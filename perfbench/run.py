#!/usr/bin/env python3
"""Host-cost benchmark of the congested-clique library.

    python3 perfbench/run.py --workload apsp_dense|count_sparse|serve_mixed \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the library and the perfbench
benchmark binary from source (CMake, into $CARGO_TARGET_DIR or
.bench_build), pins CC_THREADS and CC_KERNEL, runs one workload in its own
process and prints every metric with its unit. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics; --trace 1 reports the per-layer metrics, writes the
spans as Chrome trace-event JSON and prints a per-layer table.

Exits non-zero, after printing what failed, when the build fails, the
build is not one to measure, or any answer or any op's rounds/bits is
wrong.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402

WORKLOADS = ("apsp_dense", "count_sparse", "serve_mixed")
THREADS = 4  # CC_THREADS for every run: the core count of the reference host
KERNEL = "auto"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    out = build_dir()
    cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", "perfbench", "-j", str(THREADS)],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "perfbench")


def source_id():
    """The git commit when there is one, and a digest of the sources always
    (a benchmark checkout need not be a git repository)."""
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
                                    capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return commit, digest.hexdigest()[:16]


def run_binary(exe, workload, seed, seconds, trace, tiny=False, trace_out=None):
    """Runs one workload in its own process; returns its raw samples."""
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    if tiny:
        cmd.append("--tiny")
    env = dict(os.environ, CC_THREADS=str(THREADS), CC_KERNEL=KERNEL)
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("perfbench exited with code %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small n, for the benchmark's tests")
    args = ap.parse_args(argv)

    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed: %s" % e)
        return 2
    trace_out = None
    if args.trace:
        os.makedirs(os.path.join(build_dir(), "traces"), exist_ok=True)
        trace_out = os.path.join(build_dir(), "traces",
                                 "%s-seed%d.json" % (args.workload, args.seed))
    try:
        raw = run_binary(exe, args.workload, args.seed, args.seconds, args.trace,
                         args.tiny, trace_out)
    except (OSError, RuntimeError, ValueError, IndexError, subprocess.TimeoutExpired) as e:
        log("perfbench: run failed: %s" % e)
        return 1

    commit, digest = source_id()
    env = dict(raw["env"], seed=args.seed, commit=commit, source_sha256=digest,
               workload=args.workload, n=raw["n"], seconds=args.seconds, trace=args.trace)
    print("env " + json.dumps(env, sort_keys=True))
    if raw["exhausted"]:
        print("note: the run used every generated input before its time was up")

    if args.trace:
        values = metrics.per_layer(raw)
        table = metrics.layer_table(raw)
        with open(trace_out[:-len(".json")] + ".layers.txt", "w") as f:
            f.write("\n".join(table) + "\n")
        print("\n".join(table))
        print("trace: %s" % os.path.relpath(trace_out))
    else:
        values = metrics.end_to_end(raw)
        _, pct, beyond, count = metrics.tail(raw["op_ms"])
        print("op_tail_ms is p%.2f: %d of %d samples lie beyond it" % (pct, beyond, count))
    for name, (value, unit) in values.items():
        print("%-36s %16.6g %s" % (name, value, unit))
    attempted, failed = int(raw["attempted"]), int(raw["failed"])
    print("%-36s %16.6g %s" % ("error_rate", failed / attempted if attempted else 1.0, "ratio"))
    for what in raw["failures"]:
        print("FAILED: " + what)

    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }))
    return 0 if failed == 0 and attempted > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
