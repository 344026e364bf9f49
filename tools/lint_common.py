"""Shared infrastructure for the repo's static lints.

Both tools/check_locality.py (memory-model lint) and tools/cc_oblivious.py
(data-obliviousness lint) are fixture-driven scanners over C++ sources: they
strip comments, carve out regions of interest with a brace matcher, apply
check-specific predicates, and prove themselves against a planted-violation
fixture via --self-test. This module holds the scanner plumbing and the
shared self-test / CLI harness so the two lints cannot drift apart.

The self-test contract (run_self_test): the fixture must trigger every
registered check class, and the real tree under src/ must scan clean. A lint
whose fixture stops tripping a check fails its own CI job — the planted bugs
are the lint's regression tests.
"""
import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")

CAST_RE = re.compile(r"static_cast<[^<>]*>\s*\(([^()]*)\)")

# The unchecked-plan rule both lints enforce (check_locality.py check 3,
# cc_oblivious.py check 4): a file that binds a `*_plan(...)` result must
# compare measured stats against it — a CC_CHECK naming the plan, or a
# ChargedSince::check against it — or hand it to a plan-consuming executor,
# whose template carries the checks. `run_*` names are executors (they
# *consume* a plan), not planners.
PLAN_CALL_RE = re.compile(r"(?:=|return)\s*(?!run_)\w+_plan\s*\(")
PLAN_CHECK_RE = re.compile(r"(?:CC_CHECK|\.check)\s*\([^;]*plan", re.S)
PLAN_EXECUTORS = ("run_block_mm", "run_sparse_mm", "run_routed_square")


def normalize(text):
    """Strips static_cast<...>(x) wrappers (repeatedly, for nesting)."""
    prev = None
    while prev != text:
        prev = text
        text = CAST_RE.sub(r"\1", text)
    return text


def strip_comments(text):
    """Blanks out // and /* */ comments, preserving newlines and offsets."""

    def blank(m):
        return re.sub(r"[^\n]", " ", m.group(0))

    text = re.sub(r"/\*.*?\*/", blank, text, flags=re.S)
    return re.sub(r"//[^\n]*", blank, text)


def match_brace(text, open_pos):
    """Index just past the brace/paren block opening at open_pos."""
    open_ch = text[open_pos]
    close_ch = {"{": "}", "(": ")", "[": "]"}[open_ch]
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def unchecked_plan(text):
    """True if comment-stripped `text` binds a `*_plan(...)` result that no
    check compares measured stats against and no executor consumes."""
    return (
        PLAN_CALL_RE.search(text) is not None
        and PLAN_CHECK_RE.search(text) is None
        and not any(executor in text for executor in PLAN_EXECUTORS)
    )


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def suppressed_lines(text, marker):
    """1-based lines carrying the lint's suppression comment marker."""
    return {i + 1 for i, line in enumerate(text.splitlines()) if marker in line}


def split_top_level_args(argtext):
    """Splits a call's argument text on commas outside nested ()/[]/{}."""
    parts, depth, cur = [], 0, []
    for ch in argtext:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur or parts:
        parts.append("".join(cur))
    return parts


def source_files(root, exts=(".cpp", ".h")):
    out = []
    for dirpath, _, filenames in os.walk(root):
        for fn in sorted(filenames):
            if fn.endswith(exts):
                out.append(os.path.join(dirpath, fn))
    return out


def run_self_test(name, scan_file, fixture, expected, src_root=SRC):
    """Proves the lint against its planted fixture, then scans src/ clean.

    `expected` is a list of (human label, finding needle) pairs; every
    needle must appear in at least one fixture finding. Prints the planted
    catch count on success (the CI summary table reports it).
    """
    problems = scan_file(fixture)
    for p in problems:
        print(f"{name}[self-test finding]: {p}")
    missing = [
        label for label, needle in expected if not any(needle in p for p in problems)
    ]
    if missing:
        for m in missing:
            print(
                f"{name}: self-test FAILED — fixture violation not caught: {m}",
                file=sys.stderr,
            )
        return 1
    clean = []
    for path in source_files(src_root):
        clean += scan_file(path)
    if clean:
        for p in clean:
            print(f"{name}: {p}", file=sys.stderr)
        print(f"{name}: self-test FAILED — src/ must scan clean", file=sys.stderr)
        return 1
    print(
        f"{name}: self-test passed — {len(problems)} planted finding(s) "
        "caught, src/ clean"
    )
    return 0


def run_main(name, argv, scan_file, self_test, src_root=SRC):
    """Standard lint CLI: no args scans src/, FILE... scans those files,
    --self-test runs the fixture proof. Unrecognized -flags are ignored so
    lints can layer their own options on top."""
    if "--self-test" in argv:
        return self_test()
    files = [os.path.abspath(a) for a in argv if not a.startswith("-")]
    if not files:
        files = source_files(src_root)
    problems = []
    for path in files:
        try:
            problems += scan_file(path)
        except OSError as e:
            problems.append(f"{path}: unreadable ({e.strerror})")
    for p in problems:
        print(f"{name}: {p}", file=sys.stderr)
    if problems:
        print(f"{name}: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    print(f"{name}: {len(files)} file(s) clean")
    return 0
