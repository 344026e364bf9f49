#!/usr/bin/env python3
"""Static data-obliviousness lint (run by the CI `oblivious-lint` job).

The congested-clique results this repo reproduces all hinge on schedules
being *data-oblivious*: round counts and message lengths are functions of
(n, element width w, bandwidth b) alone, never of payload values (matrix
entries, edge weights). The runtime guard (src/analysis/oblivious_guard.h)
enforces this dynamically on executed paths; this lint enforces it
statically, closing the dynamic guard's value-laundering gap (a payload
value copied out of a source before the sink opens). Five checks:

1. Plan reads payload: the body of a plan/pricing function (`*_plan`,
   `*_lengths`, `relay_cost`, `all_gather_cost`) calls a payload accessor (`.get(`, `.row(`,
   `.data()`) or indexes a `weights` array. The schedule would be a
   function of entry values.

2. Payload-sized message: inside an engine callback lambda (an argument of
   `.round_fill(` / `all_gather(`), a `push_uint` width argument, a
   `push_words` count or width argument, or an `append_slice`
   offset/length argument derives from a payload accessor — the emitted
   *length* leaks payload.

3. Branch on payload in a callback: an `if` condition inside an engine
   callback reads a payload accessor, so whether (or what) a player sends
   depends on values. Randomized or size-driven branches are fine; entry
   values are not.

4. Unchecked plan: a file binds a `*_plan(...)` result but never checks
   measured stats against it (the rule check_locality.py enforces, shared
   through tools/lint_common.py — a plan that is never compared to measured
   rounds/bits is untested paper math, and here it is also an unenforced
   obliviousness claim).

5. Undeclared nnz dependence: a plan/pricing function (including the
   `*_profile` family) reads sparse *structure* (`.nnz(`, `.row_nnz(`,
   `.row_ptr(`, `.cols(`, `.vals(`) without a `declared_dependence`
   declaration in its body. Sparse schedules are legitimately functions
   of nnz — but only through the announced-profile choke point
   (core/sparse_mm.h), where the dependence is declared to the runtime
   guard; a plan that reads CSR structure silently is the sparse twin of
   check 1.

Front-ends: with libclang available (CI installs it), regions of interest
— plan-function bodies and engine-callback lambda bodies — are carved out
of the real AST over compile_commands.json; otherwise a token-level
front-end (the same brace-matching used by check_locality.py) finds them.
Both feed the identical check predicates, and --self-test proves whichever
front-end is active against the planted fixture. Select with
--backend=auto|libclang|tokens (default auto).

A finding can be suppressed with an `// oblivious-ok` comment on its line.
Scanner plumbing and the self-test harness are shared with
tools/check_locality.py via tools/lint_common.py.

Exit status 0 when clean, 1 with one line per finding otherwise.
Usage:
  python3 tools/cc_oblivious.py                 # scan src/
  python3 tools/cc_oblivious.py FILE...         # scan specific files
  python3 tools/cc_oblivious.py --self-test     # prove the planted fixture
                                                # violations are caught
  python3 tools/cc_oblivious.py --backend=tokens --compile-commands=build
"""
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import lint_common as lc

FIXTURE = os.path.join(lc.REPO, "tools", "fixtures", "oblivious_violation_example.cpp")

# Pricing-function definitions: the name families that compute schedules
# (`*_profile` covers the sparse nnz-declaration choke points).
PLAN_DEF_RE = re.compile(
    r"\b(?!run_)(\w+_plan|\w+_lengths|\w+_profile|relay_cost|all_gather_cost)\s*\("
)
# Payload accessors, as tagged for the runtime guard (linalg get/row/data,
# weight arrays). Message::size_bits and graph adjacency are deliberately
# NOT here: committed lengths and network topology are common knowledge.
PAYLOAD_READ_RE = re.compile(r"\.(?:get|row)\s*\(|\.data\s*\(\s*\)|\bweights\s*\[")
# Sparse structure accessors (linalg/sparse.h): tainted like payload, but
# plans may read them *through a declared dependence* (check 5).
NNZ_READ_RE = re.compile(r"\.(?:nnz|row_nnz|row_ptr|cols|vals)\s*\(")
CALLBACK_CALL_RE = re.compile(r"(?:\.round_fill|\ball_gather)\s*\(")
LAMBDA_RE = re.compile(r"\[&\]\s*\(\s*(?:const\s+)?int\s+(\w+)([^)]*)\)")


def snippet(text):
    s = " ".join(text.split())
    return s if len(s) <= 48 else s[:45] + "..."


# --- front-ends ----------------------------------------------------------
#
# A front-end turns one file into regions of interest:
#   plan_defs: [(function name, body text, body offset in file)]
#   callbacks: [(body text, body offset in file)]
# The checks below are front-end agnostic.


class TokenFrontend:
    """Brace-matching front-end; self-contained, no dependencies."""

    name = "tokens"

    def regions(self, path, text):
        plan_defs = []
        for m in PLAN_DEF_RE.finditer(text):
            paren = m.end() - 1
            after = lc.match_brace(text, paren)
            # A definition follows its parameter list with an (optionally
            # qualified) `{`; declarations and calls do not.
            tail = re.match(r"[\s\w]*\{", text[after : after + 80])
            if tail is None:
                continue
            brace = after + tail.end() - 1
            plan_defs.append((m.group(1), text[brace : lc.match_brace(text, brace)], brace))
        callbacks = []
        for call in CALLBACK_CALL_RE.finditer(text):
            open_paren = call.end() - 1
            span_end = lc.match_brace(text, open_paren)
            span = text[open_paren:span_end]
            # Only the first lambda — the send/fill callback — is a length
            # sink; a trailing recv callback decodes already-committed
            # messages and may read freely (same rule as the runtime guard).
            for lam in LAMBDA_RE.finditer(span):
                brace = span.find("{", lam.end())
                if brace < 0:
                    continue
                body_end = lc.match_brace(span, brace)
                callbacks.append((span[brace:body_end], open_paren + brace))
                break
        return plan_defs, callbacks


class LibclangFrontend:
    """AST front-end over compile_commands.json. Falls back to the token
    front-end per file if a translation unit cannot be parsed."""

    name = "libclang"

    def __init__(self, compile_commands_dir):
        from clang import cindex  # raises ImportError without python3-clang

        self.cindex = cindex
        self.index = cindex.Index.create()  # raises if libclang.so missing
        self.fallback = TokenFrontend()
        self.cdb = None
        if compile_commands_dir and os.path.exists(
            os.path.join(compile_commands_dir, "compile_commands.json")
        ):
            self.cdb = cindex.CompilationDatabase.fromDirectory(compile_commands_dir)

    def _args_for(self, path):
        if self.cdb is not None:
            try:
                cmds = self.cdb.getCompileCommands(path)
            except self.cindex.CompilationDatabaseError:
                cmds = None
            if cmds:
                args = list(cmds[0].arguments)[1:]
                # Drop the compile/output bits; keep -I/-D/-std flags.
                keep, skip_next = [], False
                for a in args:
                    if skip_next:
                        skip_next = False
                        continue
                    if a == "-c" or a == path:
                        continue
                    if a == "-o":
                        skip_next = True
                        continue
                    keep.append(a)
                return keep
        # Headers and the fixture are not in the database: parse them
        # against the source root (parse errors are tolerated below).
        return ["-std=c++17", "-I", lc.SRC]

    def regions(self, path, text):
        try:
            tu = self.index.parse(path, args=self._args_for(path))
            plan_defs, callbacks = [], []
            self._walk(tu.cursor, path, text, plan_defs, callbacks)
            return plan_defs, callbacks
        except Exception:
            return self.fallback.regions(path, text)

    def _extent(self, cursor):
        return cursor.extent.start.offset, cursor.extent.end.offset

    def _walk(self, cursor, path, text, plan_defs, callbacks):
        ck = self.cindex.CursorKind
        for child in cursor.get_children():
            loc = child.location
            if loc.file is not None and os.path.abspath(loc.file.name) != path:
                continue
            if (
                child.kind in (ck.FUNCTION_DECL, ck.CXX_METHOD, ck.FUNCTION_TEMPLATE)
                and child.is_definition()
                and PLAN_DEF_RE.match(child.spelling + "(")
            ):
                start, end = self._extent(child)
                brace = text.find("{", start, end)
                if brace >= 0:
                    plan_defs.append((child.spelling, text[brace:end], brace))
            if child.kind == ck.CALL_EXPR and child.spelling in ("round_fill", "all_gather"):
                lams = self._lambdas(child)
                if lams:
                    # First lambda in source order = the send/fill callback;
                    # recv callbacks are not sinks (see TokenFrontend).
                    lam = min(lams, key=lambda c: self._extent(c)[0])
                    start, end = self._extent(lam)
                    brace = text.find("{", start, end)
                    if brace >= 0:
                        callbacks.append((text[brace:end], brace))
            self._walk(child, path, text, plan_defs, callbacks)

    def _lambdas(self, cursor):
        out = []
        ck = self.cindex.CursorKind
        stack = list(cursor.get_children())
        while stack:
            c = stack.pop()
            if c.kind == ck.LAMBDA_EXPR:
                out.append(c)
            else:
                stack.extend(c.get_children())
        return out


def make_frontend(choice, compile_commands_dir):
    if choice in ("auto", "libclang"):
        try:
            fe = LibclangFrontend(compile_commands_dir)
            return fe
        except Exception as e:
            if choice == "libclang":
                print(f"oblivious: libclang front-end unavailable ({e})", file=sys.stderr)
                sys.exit(2)
    return TokenFrontend()


FRONTEND = TokenFrontend()


# --- the checks (front-end agnostic) -------------------------------------


def scan_file(path):
    problems = []
    with open(path, encoding="utf-8") as f:
        raw = f.read()
    rel = os.path.relpath(path, lc.REPO)
    suppressed = lc.suppressed_lines(raw, "oblivious-ok")
    text = lc.strip_comments(raw)
    plan_defs, callbacks = FRONTEND.regions(os.path.abspath(path), text)

    def flag(offset, message):
        line = lc.line_of(text, offset)
        if line not in suppressed:
            problems.append(f"{rel}:{line}: {message}")

    for name, body, body_off in plan_defs:
        for m in PAYLOAD_READ_RE.finditer(body):
            flag(
                body_off + m.start(),
                f"plan function `{name}` reads payload storage "
                f"(`{snippet(body[m.start() : m.end() + 16])}`) — schedules "
                "must be functions of (n, w, b) alone (check 1)",
            )
        if "declared_dependence" not in body:
            for m in NNZ_READ_RE.finditer(body):
                flag(
                    body_off + m.start(),
                    f"plan function `{name}` reads sparse structure "
                    f"(`{snippet(body[m.start() : m.end() + 16])}`) without "
                    "declaring the dependence — nnz may shape a schedule "
                    "only through oblivious::declared_dependence (check 5)",
                )

    for body, body_off in callbacks:
        for m in re.finditer(r"\.(push_uint|push_words|append_slice)\s*\(", body):
            paren = m.end() - 1
            args = lc.split_top_level_args(body[paren + 1 : lc.match_brace(body, paren) - 1])
            # push_uint(value, width): the *width* is the emitted length.
            # push_words(src, count, width): count * width bits are emitted.
            # append_slice(src, offset, len): offset and len size the slice.
            for arg in args[1:]:
                if PAYLOAD_READ_RE.search(arg):
                    flag(
                        body_off + m.start(),
                        f"`{m.group(1)}` length argument derives from a "
                        f"payload read (`{snippet(arg)}`) inside an engine "
                        "callback — the emitted length leaks payload "
                        "(check 2)",
                    )
        for m in re.finditer(r"\bif\s*\(", body):
            cond = body[m.end() : lc.match_brace(body, m.end() - 1) - 1]
            if PAYLOAD_READ_RE.search(cond):
                flag(
                    body_off + m.start(),
                    f"engine callback branches on a payload read "
                    f"(`{snippet(cond)}`) — what a player sends must not "
                    "depend on entry values (check 3)",
                )

    if lc.unchecked_plan(text):
        problems.append(
            f"{rel}: binds a *_plan(...) result but never checks "
            "measured stats against the plan (check 4)"
        )
    # The AST front-end can surface one call expression through several
    # wrapper nodes; findings are keyed strings, so dedup is exact.
    return list(dict.fromkeys(problems))


def self_test():
    print(f"oblivious: front-end = {FRONTEND.name}")
    return lc.run_self_test(
        "oblivious",
        scan_file,
        FIXTURE,
        [
            ("check 1 (plan reads payload)", "(check 1)"),
            ("check 2 (payload-sized message)", "(check 2)"),
            ("check 3 (branch on payload in callback)", "(check 3)"),
            ("check 4 (unchecked plan)", "(check 4)"),
            ("check 5 (undeclared nnz dependence)", "(check 5)"),
        ],
    )


def main(argv):
    global FRONTEND
    backend = "auto"
    ccdir = os.path.join(lc.REPO, "build")
    for a in argv:
        if a.startswith("--backend="):
            backend = a.split("=", 1)[1]
        elif a.startswith("--compile-commands="):
            ccdir = os.path.abspath(a.split("=", 1)[1])
    if backend not in ("auto", "libclang", "tokens"):
        print(f"oblivious: unknown backend `{backend}`", file=sys.stderr)
        return 2
    FRONTEND = make_frontend(backend, ccdir)
    return lc.run_main("oblivious", argv, scan_file, self_test)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
