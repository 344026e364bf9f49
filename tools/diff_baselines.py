#!/usr/bin/env python3
"""Compare freshly written bench JSON against the committed baselines.

Every BENCH_*.json that `ctest -L bench` wrote into BUILD_DIR must equal
its namesake in BASELINE_DIR as parsed JSON; a missing baseline counts as
a difference. For each file that differs the script prints what drifted,
table by table: every changed row as its params followed by
`column: old -> new`, then any added or removed rows. Those lines are what
bench/baseline/README.md's justification for a regenerated table cites.

Exit status 0 when every file matches, 1 otherwise.
Usage:
  python3 tools/diff_baselines.py BUILD_DIR BASELINE_DIR
  python3 tools/diff_baselines.py --self-test
"""
import glob
import json
import os
import sys
import tempfile


def fmt(value):
    return json.dumps(value, ensure_ascii=False)


def fmt_params(params):
    return "{" + ", ".join(f"{k}: {fmt(v)}" for k, v in params.items()) + "}"


def row_key(row):
    return json.dumps(row.get("params"), sort_keys=True)


def cells(row):
    """A row's non-param columns, in table order."""
    out = {}
    for part in ("measured", "predicted"):
        out.update(row.get(part) or {})
    return out


def diff_rows(old_rows, new_rows):
    """Lines describing how one table's rows changed; rows pair up by params
    (repeated params pair in order)."""
    lines = []
    pending = {}
    for row in old_rows:
        pending.setdefault(row_key(row), []).append(row)
    for row in new_rows:
        olds = pending.get(row_key(row))
        if not olds:
            lines.append(f"  + {fmt_params(row.get('params', {}))} {fmt(cells(row))}")
            continue
        old = olds.pop(0)
        before, after = cells(old), cells(row)
        changes = [f"{col}: {fmt(before.get(col))} -> {fmt(after.get(col))}"
                   for col in dict.fromkeys([*before, *after])
                   if before.get(col) != after.get(col)]
        if changes:
            lines.append(f"  ~ {fmt_params(row.get('params', {}))} " + "; ".join(changes))
    for olds in pending.values():
        for row in olds:
            lines.append(f"  - {fmt_params(row.get('params', {}))} {fmt(cells(row))}")
    return lines


def diff_file(old, new):
    """Lines describing how one bench file drifted (empty when equal)."""
    if old == new:
        return []
    lines = []
    old_tables, new_tables = old.get("tables", []), new.get("tables", [])
    for t in range(max(len(old_tables), len(new_tables))):
        if t >= len(old_tables):
            lines.append(f" table {t + 1}: added {fmt(new_tables[t].get('headers'))}")
            continue
        if t >= len(new_tables):
            lines.append(f" table {t + 1}: removed {fmt(old_tables[t].get('headers'))}")
            continue
        before, after = old_tables[t], new_tables[t]
        body = diff_rows(before.get("rows", []), after.get("rows", []))
        if before.get("headers") != after.get("headers"):
            body.insert(0, f"  headers: {fmt(before.get('headers'))} -> {fmt(after.get('headers'))}")
        if body:
            lines.append(f" table {t + 1} {fmt(after.get('headers'))}:")
            lines.extend(body)
    for key in dict.fromkeys([*old, *new]):
        if key not in ("tables", "rows") and old.get(key) != new.get(key):
            lines.append(f" {key}: {fmt(old.get(key))} -> {fmt(new.get(key))}")
    if not lines:
        lines.append(" differs outside the tables")
    return lines


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def run(build_dir, baseline_dir, out=sys.stdout):
    drifted = []
    for path in sorted(glob.glob(os.path.join(build_dir, "BENCH_*.json"))):
        name = os.path.basename(path)
        base = os.path.join(baseline_dir, name)
        if not os.path.exists(base):
            drifted.append(name)
            print(f"{name}: no committed baseline", file=out)
            continue
        lines = diff_file(load(base), load(path))
        if lines:
            drifted.append(name)
            print(f"{name}: drifted", file=out)
            for line in lines:
                print(line, file=out)
    if drifted:
        print(f"baselines drifted: {drifted}", file=out)
        return 1
    print("bench baselines: all committed anchors reproduced", file=out)
    return 0


def self_test():
    """Plants one changed, one added and one removed row and checks the
    report names each of them and the exit status."""
    def bench(rows):
        table = {"headers": ["n", "rounds"],
                 "rows": [{"params": {"n": n}, "measured": {"rounds": r}, "predicted": {}}
                          for n, r in rows]}
        return {"bench": "E0", "claim": "c", "tables": [table], "rows": table["rows"]}

    with tempfile.TemporaryDirectory() as tmp:
        build, base = os.path.join(tmp, "build"), os.path.join(tmp, "base")
        os.mkdir(build)
        os.mkdir(base)
        for d, rows in ((base, [(8, 5), (16, 6), (32, 7)]), (build, [(8, 5), (16, 4), (64, 9)])):
            with open(os.path.join(d, "BENCH_e0.json"), "w", encoding="utf-8") as f:
                json.dump(bench(rows), f)

        class Sink:
            text = ""

            def write(self, s):
                Sink.text += s

        status = run(build, base, out=Sink())
        expected = ["BENCH_e0.json: drifted", "~ {n: 16} rounds: 6 -> 4",
                    "+ {n: 64}", "- {n: 32}"]
        missing = [e for e in expected if e not in Sink.text]
        if status != 1 or missing or "{n: 8}" in Sink.text:
            print(Sink.text)
            print(f"self-test FAILED: status {status}, missing {missing}")
            return 1
        with open(os.path.join(build, "BENCH_e0.json"), "w", encoding="utf-8") as f:
            json.dump(bench([(8, 5), (16, 6), (32, 7)]), f)
        if run(build, base, out=Sink()) != 0:
            print("self-test FAILED: identical files reported as drifted")
            return 1
    print("diff_baselines self-test: ok")
    return 0


def main(argv):
    if argv == ["--self-test"]:
        return self_test()
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    return run(argv[0], argv[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
