#!/usr/bin/env python3
"""Static locality lint (run by the CI `locality-lint` job).

The runtime locality guard (src/analysis/locality_guard.h) enforces the
simulated-clique memory model dynamically; this script enforces the same
rules statically, so a violation is caught even on paths no test executes.
Three checks, all heuristic but tuned to this codebase's idiom:

1. Tagged cross-player access: inside an engine callback lambda (an
   argument of `.round_fill(` / `all_gather(`), any index of a
   `locality::PerPlayer` variable must be exactly the callback's player
   parameter, or sit inside a branch guarded by `if (index == player)`.
   Anything else is the PR-4 splitter bug shape: a callback reaching into
   another player's registered state.

2. Reference-captured cross-player write: inside a callback body, a write
   (`=`, `+=`, `.push_back`, `.append`, `.push_uint`) through a
   reference-captured array at a non-self player index mutates engine-wide
   state from a (possibly concurrent) player callback — the PR-2 shared-RNG
   bug shape. Bodies that open with the common-knowledge idiom
   `if (player != 0) return;` ("identical decode everywhere; model once")
   are orchestrator-style decoders and exempt from this check (but not from
   check 1 — tagged state stays guarded even there).

3. Unchecked plan: a file that binds the result of a `*_plan(...)` call
   must check measured stats against the plan (text `plan` inside a
   CC_CHECK or a ChargedSince::check) or delegate to a plan-consuming
   executor (`run_block_mm`, `run_sparse_mm`, `run_routed_square`). A
   data-independent schedule that is never compared to the measured
   rounds/bits is untested paper math. The rule lives in
   tools/lint_common.py (unchecked_plan), shared with cc_oblivious.py.

A finding can be suppressed with a `// locality-ok` comment on its line.
Scanner plumbing and the self-test harness are shared with
tools/cc_oblivious.py via tools/lint_common.py.

Exit status 0 when clean, 1 with one line per finding otherwise.
Usage:
  python3 tools/check_locality.py              # scan src/
  python3 tools/check_locality.py FILE...      # scan specific files
  python3 tools/check_locality.py --self-test  # prove the planted fixture
                                               # violations are caught
"""
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import lint_common as lc

FIXTURE = os.path.join(lc.REPO, "tools", "fixtures", "locality_violation_example.cpp")

TAGGED_RE = re.compile(r"locality::PerPlayer<[\w:<>,\s]*>\s+(\w+)\s*\(")
CALLBACK_CALL_RE = re.compile(r"(?:\.round_fill|\ball_gather)\s*\(")
LAMBDA_RE = re.compile(r"\[&\]\s*\(\s*(?:const\s+)?int\s+(\w+)([^)]*)\)")
ACCESS_RE = re.compile(r"\b(\w+)\[([^\][]+)\]")
WRITE_TAIL_RE = re.compile(r"\s*(?:=[^=]|\+=|-=|\.push_back|\.append|\.push_uint)")
MODEL_ONCE_RE = r"if\s*\(\s*{p}\s*!=\s*0\s*\)\s*return\s*;"


def callback_bodies(text):
    """Yields (param, all_params, body, body_offset) for engine-callback
    lambdas: every `[&](int p, ...)` lambda inside the argument span of an
    engine round call. `all_params` includes the out/inbox parameters so
    accesses through them are never treated as captures."""
    for call in CALLBACK_CALL_RE.finditer(text):
        open_paren = call.end() - 1
        span_end = lc.match_brace(text, open_paren)
        span = text[open_paren:span_end]
        for lam in LAMBDA_RE.finditer(span):
            params = {lam.group(1)}
            params.update(re.findall(r"(\w+)\s*(?:,|$)", lam.group(2)))
            brace = span.find("{", lam.end())
            if brace < 0:
                continue
            body_end = lc.match_brace(span, brace)
            yield lam.group(1), params, span[brace:body_end], open_paren + brace


def enclosing_if_conditions(body, pos):
    """Conditions of the if-blocks whose braces enclose `pos` in `body`."""
    conditions = []
    for m in re.finditer(r"\bif\s*\(", body):
        cond_end = lc.match_brace(body, m.end() - 1)
        brace = cond_end
        while brace < len(body) and body[brace] in " \t\n":
            brace += 1
        if brace >= len(body) or body[brace] != "{":
            continue
        block_end = lc.match_brace(body, brace)
        if brace < pos < block_end:
            conditions.append(body[m.end() : cond_end - 1])
    return conditions


def self_guarded(body, pos, param, index_expr):
    idx = index_expr.strip()
    if not re.fullmatch(r"\w+", idx):
        return False
    pat = re.compile(
        r"\b{i}\s*==\s*{p}\b|\b{p}\s*==\s*{i}\b".format(
            i=re.escape(idx), p=re.escape(param)
        )
    )
    return any(pat.search(c) for c in enclosing_if_conditions(body, pos))


def declared_in(body, name):
    """True if `name` is declared inside the lambda body (a local)."""
    return (
        re.search(
            r"[\w>&*]\s+\*?&?{n}\s*[=;({{\[]".format(n=re.escape(name)), body
        )
        is not None
    )


def scan_file(path):
    problems = []
    with open(path, encoding="utf-8") as f:
        raw = f.read()
    rel = os.path.relpath(path, lc.REPO)
    suppressed = lc.suppressed_lines(raw, "locality-ok")
    text = lc.normalize(lc.strip_comments(raw))
    tagged = set(TAGGED_RE.findall(text))

    for param, params, body, body_off in callback_bodies(text):
        model_once = re.search(MODEL_ONCE_RE.format(p=re.escape(param)), body)
        for acc in ACCESS_RE.finditer(body):
            name, idx = acc.group(1), acc.group(2).strip()
            line = lc.line_of(text, body_off + acc.start())
            if line in suppressed:
                continue
            if idx == param:
                continue
            if self_guarded(body, acc.start(), param, idx):
                continue
            if name in tagged:
                problems.append(
                    f"{rel}:{line}: callback for player `{param}` indexes "
                    f"tagged per-player state `{name}` with `{idx}` — "
                    "cross-player access (check 1)"
                )
                continue
            # Untagged: only writes through reference-captured arrays count,
            # and model-once decoder bodies are exempt.
            if model_once:
                continue
            if not WRITE_TAIL_RE.match(body[acc.end() :]):
                continue
            if name in params or declared_in(body, name):
                continue
            problems.append(
                f"{rel}:{line}: callback for player `{param}` writes "
                f"reference-captured array `{name}` at non-self index "
                f"`{idx}` (check 2)"
            )

    if lc.unchecked_plan(text):
        problems.append(
            f"{rel}: binds a *_plan(...) result but never checks "
            "measured stats against the plan (check 3)"
        )
    return problems


def self_test():
    return lc.run_self_test(
        "locality",
        scan_file,
        FIXTURE,
        [
            ("check 1 (tagged cross-player access)", "(check 1)"),
            ("check 2 (reference-captured write)", "(check 2)"),
            ("check 3 (unchecked plan)", "(check 3)"),
        ],
    )


def main(argv):
    return lc.run_main("locality", argv, scan_file, self_test)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
