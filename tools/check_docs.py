#!/usr/bin/env python3
"""Docs-drift and markdown link checks (run by the CI `docs` job).

Four checks, all offline:

1. Bench-table drift: every `bench_e*` target registered in
   bench/CMakeLists.txt (the CCLIQUE_BENCHES list) must be mentioned in
   README.md — the "The 18 experiments" table is the canonical user-facing
   index of the harnesses, and a bench that ships without a row there is
   undocumented. The converse holds too: a bench named in the README that
   no longer builds is a stale doc.

2. Markdown links: every `[text](target)` in the top-level docs whose
   target is a relative path must point at an existing file (anchors are
   stripped; http(s)/mailto links are skipped — no network in CI).

3. Env-knob drift: every `CC_*` environment variable read via getenv in
   src/ or bench/ (the runtime knobs: CC_THREADS, CC_KERNEL, ...) must be
   named in README.md — a knob that ships undocumented is invisible to
   users and to the CI matrix.

4. Stale code names: every backticked snake_case or CamelCase name in
   README.md and DESIGN.md must appear as an identifier in the code of
   src/, bench/, tests/, tools/, perfbench/ or examples/ (C++ comments do
   not count). A name may be qualified (`ns::name`), templated
   (`name<Ops>`) or called (`name(a, b)`); a `bench_eN` shorthand passes
   when it prefixes a registered target, as in check 1. ROADMAP.md is
   exempt: it names removed and planned APIs on purpose.

Exit status 0 when clean, 1 with one line per finding otherwise.
Usage:
  python3 tools/check_docs.py              (from anywhere inside the repo)
  python3 tools/check_docs.py --self-test  (check 4 must flag one planted
                                            stale name and nothing else)
"""
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import lint_common as lc  # noqa: E402

REPO = lc.REPO
LINK_CHECKED_DOCS = ["README.md", "DESIGN.md", "ROADMAP.md"]
BENCH_TABLE_DOC = "README.md"


def bench_targets():
    """The bench_e* executables registered with the build."""
    path = os.path.join(REPO, "bench", "CMakeLists.txt")
    with open(path, encoding="utf-8") as f:
        text = f.read()
    block = re.search(r"set\(CCLIQUE_BENCHES(.*?)\)", text, re.S)
    if block is None:
        return ["<error: CCLIQUE_BENCHES list not found in bench/CMakeLists.txt>"]
    return re.findall(r"\bbench_e\w+", block.group(1))


def check_bench_table():
    problems = []
    targets = bench_targets()
    readme_path = os.path.join(REPO, BENCH_TABLE_DOC)
    with open(readme_path, encoding="utf-8") as f:
        readme = f.read()
    # A mention only counts if it is a markdown table row (a line starting
    # with '|') — prose references elsewhere must not satisfy the index.
    table_rows = [line for line in readme.splitlines() if line.lstrip().startswith("|")]
    for target in targets:
        if not any(target in row for row in table_rows):
            problems.append(
                f"{BENCH_TABLE_DOC}: bench target `{target}` is built but has no "
                "row in the bench table — add one (see 'The 18 experiments')"
            )
    # Converse: benches the README names that the build no longer has.
    # Short prose references ("bench_e18") count as long as they prefix a
    # registered target ("bench_e18_apsp").
    for named in sorted(set(re.findall(r"\bbench_e\w+", readme))):
        if not any(t == named or t.startswith(named + "_") for t in targets):
            problems.append(
                f"{BENCH_TABLE_DOC}: names `{named}`, which is not a registered "
                "bench target — stale row?"
            )
    return problems


LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def check_links():
    problems = []
    for doc in LINK_CHECKED_DOCS:
        doc_path = os.path.join(REPO, doc)
        if not os.path.exists(doc_path):
            problems.append(f"{doc}: file missing (link check target list is stale)")
            continue
        with open(doc_path, encoding="utf-8") as f:
            text = f.read()
        for target in LINK_RE.findall(text):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path = target.split("#", 1)[0]
            if not path:  # pure in-page anchor
                continue
            resolved = os.path.normpath(os.path.join(os.path.dirname(doc_path), path))
            if not os.path.exists(resolved):
                problems.append(f"{doc}: broken link -> {target}")
    return problems


GETENV_RE = re.compile(r'getenv\(\s*"(CC_[A-Z0-9_]+)"\s*\)')


def check_env_knobs():
    problems = []
    knobs = set()
    for top in ("src", "bench"):
        for dirpath, _dirnames, filenames in os.walk(os.path.join(REPO, top)):
            for name in filenames:
                if not name.endswith((".cpp", ".h")):
                    continue
                with open(os.path.join(dirpath, name), encoding="utf-8") as f:
                    knobs.update(GETENV_RE.findall(f.read()))
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as f:
        readme = f.read()
    for knob in sorted(knobs):
        if knob not in readme:
            problems.append(
                f"README.md: env knob `{knob}` is read by the code but never "
                "documented — add it beside the CC_THREADS/CC_KERNEL docs"
            )
    return problems


CODE_NAME_DOCS = ["README.md", "DESIGN.md"]
CODE_DIRS = ["src", "bench", "tests", "tools", "perfbench", "examples"]
CODE_SUFFIXES = (".h", ".cpp", ".py", ".txt", ".sh")
BACKTICK_RE = re.compile(r"`([^`\n]+)`")
# An optional ns:: qualifier, the name, then optional <...> and (...).
CODE_NAME_RE = re.compile(r"(?:\w+::)*(\w+)(?:<[^`]*>)?(?:\([^`]*\))?")
SNAKE_RE = re.compile(r"[a-z][a-z0-9]*(?:_[a-z0-9]+)+")
CAMEL_RE = re.compile(r"[A-Z][a-z0-9]+(?:[A-Z][a-z0-9]*)+")


def code_identifiers():
    """Every identifier-shaped token in the code directories."""
    names = set()
    for top in CODE_DIRS:
        for dirpath, _dirnames, filenames in os.walk(os.path.join(REPO, top)):
            for name in filenames:
                if not name.endswith(CODE_SUFFIXES):
                    continue
                with open(os.path.join(dirpath, name), encoding="utf-8") as f:
                    text = f.read()
                if name.endswith((".h", ".cpp")):
                    text = lc.strip_comments(text)
                names.update(re.findall(r"[A-Za-z_]\w*", text))
    return names


def stale_code_names(doc, text, identifiers, targets):
    """Findings for the backticked code names in `text` that no code has."""
    problems = []
    for span in BACKTICK_RE.findall(text):
        m = CODE_NAME_RE.fullmatch(span.strip())
        if m is None:
            continue
        name = m.group(1)
        if not (SNAKE_RE.fullmatch(name) or CAMEL_RE.fullmatch(name)):
            continue
        if name in identifiers:
            continue
        if name.startswith("bench_e") and any(
            t == name or t.startswith(name + "_") for t in targets
        ):
            continue
        problems.append(
            f"{doc}: names `{span}`, but no code in {', '.join(CODE_DIRS)} "
            "defines or uses it — stale after a refactor?"
        )
    return problems


def check_code_names():
    identifiers, targets = code_identifiers(), bench_targets()
    problems = []
    for doc in CODE_NAME_DOCS:
        with open(os.path.join(REPO, doc), encoding="utf-8") as f:
            problems += stale_code_names(doc, f.read(), identifiers, targets)
    return problems


def self_test():
    """Check 4 must flag exactly one planted stale name in a synthetic doc."""
    identifiers, targets = code_identifiers(), bench_targets()
    # Built at run time so the planted name never appears in tools/ itself.
    planted = "_".join(["stale", "name", "planted", "by", "self", "test"])
    if planted in identifiers:
        print("docs self-test FAILED: the planted name exists in the code")
        return 1
    # Live names (qualified, templated, called, CamelCase, a bench shorthand)
    # come from tools/ so a library rename cannot break the self-test.
    text = (
        "Check 4 is `docs::stale_code_names<Doc>(doc, text)`, beside the "
        "`TokenFrontend` of cc_oblivious.py; `bench_e17` is a shorthand, and "
        f"`n`, `CC_THREADS` and `tools/check_docs.py` are no code names. `{planted}(x)` is gone."
    )
    problems = stale_code_names("planted.md", text, identifiers, targets)
    if len(problems) != 1 or planted not in problems[0]:
        print(f"docs self-test FAILED: expected one finding for `{planted}`, got {problems}")
        return 1
    print("docs self-test: ok (one planted stale code name caught)")
    return 0


def main(argv):
    if argv == ["--self-test"]:
        return self_test()
    problems = check_bench_table() + check_links() + check_env_knobs() + check_code_names()
    for p in problems:
        print(f"docs-drift: {p}", file=sys.stderr)
    if problems:
        print(f"docs-drift: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    print("docs-drift: bench table, markdown links, env knobs and code names are clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
