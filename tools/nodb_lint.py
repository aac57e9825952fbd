#!/usr/bin/env python3
"""Project-invariant linter for the whole tree (hard CI gate).

Grown from the old check_style.py whitespace gate into the enforcement
point for the project's C++ invariants — the ones a formatter or a
generic linter cannot know:

  style            no tabs, no CRLF, no trailing whitespace, exactly
                   one trailing newline
  naked-lock       .lock()/.unlock()/.try_lock() calls outside the
                   RAII guards in src/util/mutex.h; every acquisition
                   must be a guard object the thread-safety analysis
                   can see
  std-mutex        std::mutex / std::lock_guard / std::unique_lock and
                   friends outside src/util/mutex.h; all locking goes
                   through the CAPABILITY-annotated wrappers
  raw-new          owning `new` not immediately handed to a smart
                   pointer (the function-local static leak idiom is
                   allowed), and any `delete` expression
  banned-fn        sprintf / rand / strtok (unbounded, non-reentrant,
                   or statistically unsound — snprintf, util/random.h
                   and manual tokenizing replace them)
  mutex-guard      a Mutex/SharedMutex member in a src/ header whose
                   name never appears in a GUARDED_BY/REQUIRES/ACQUIRE
                   cluster in that header guards nothing the analysis
                   can check
  nolint-form      NOLINT must name the check and give a reason:
                   `NOLINT(check): reason` / `NOLINTNEXTLINE(check): reason`
  ntsa-reason      NO_THREAD_SAFETY_ANALYSIS needs a nearby
                   `NO_THREAD_SAFETY_ANALYSIS: <why>` comment
  void-discard     `(void)Call(...)` discards need a nearby comment
                   saying why dropping the result is correct
  status-discard   `(void)x;` where `Status x` was declared a few lines
                   above, comment or not: an expected error is tested
                   (`if (!s.ok() && !s.IsOutOfRange()) return s;`),
                   any other one returned — a discarded read error
                   leaves its out-parameters unset
  header-guard     headers carry a NODB_*_H_ include guard (or
                   #pragma once)
  include-order    contiguous runs of same-kind #include lines are
                   sorted
  generation-tag   DropBlocksFrom / component Clear() call sites must
                   say, in a nearby comment, how stale producers are
                   fenced (the generation-tag story)
  isa-sibling      every `#if NODB_HAVE_AVX2`-style ISA-gated branch
                   must have a scalar sibling: an #else in the chain,
                   or a scalar fallback (named in code or comment)
                   within reach of its #endif — no kernel may exist
                   only in SIMD form
  span-name        trace span names at OpenSpan/EmitSpan/ScopedSpan
                   call sites follow the `component.verb` taxonomy
                   with a known component (query, scan, exec, cache,
                   map, store, persist, promoter, pool, snapshot) so
                   traces stay greppable and dashboards stay stable
  server-seam      src/server/ talks to the engine only through its
                   public seams (engines/, obs/, monitor/, types/,
                   util/ plus the streaming/cancel/config headers);
                   including scan, store, cache, SQL or persistence
                   internals from the wire layer is a layering bug
  row-value        GetValue( / AppendValue( / AppendRow( in
                   src/exec/*.cc and src/raw/*.cc: operators and scans
                   work on typed arrays a batch at a time, and a Value
                   per row is the cost the kernels removed. A site that
                   runs once per group or per result row (group-key
                   capture, aggregate finalize, result rendering) says
                   so on the line: `NOLINT(row-value): reason`
  row-clock        a PhaseTimer / ScopedTimer / Stopwatch constructed,
                   or a `::now()` call, lexically inside a for / while /
                   do body in src/raw/, src/csv/ or src/io/*.cc: a clock
                   read per row costs more than the work it measures,
                   so a scan times whole passes. A site that runs once
                   per pass or walk says so: `NOLINT(row-clock): reason`
                   on the line or `NOLINTNEXTLINE(row-clock): reason`
                   on the line above

Exit code 0 when clean; 1 with one line per violation otherwise.
"""

import glob
import os
import re
import sys

PATTERNS = [
    "src/**/*.cc",
    "src/**/*.h",
    "tests/**/*.cc",
    "bench/*.cc",
    "bench/*.h",
    "examples/*.cpp",
]

# Files implementing the RAII guards themselves: the one place raw
# std primitives and .lock()/.unlock() calls are legitimate.
MUTEX_IMPL_FILES = {"src/util/mutex.h"}

NAKED_LOCK_RE = re.compile(
    r"\.\s*(?:lock|unlock|try_lock|lock_shared|unlock_shared)\s*\(")
STD_MUTEX_RE = re.compile(
    r"std::(?:mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock)\b")
NEW_RE = re.compile(r"\bnew\b")
DELETE_RE = re.compile(r"\bdelete\b")
BANNED_FN_RE = re.compile(r"\b(sprintf|strtok|rand)\s*\(")
MUTEX_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:nodb::)?(?:Mutex|SharedMutex)\s+"
    r"([A-Za-z_]\w*)\s*(?:ACQUIRED_(?:BEFORE|AFTER)\([^)]*\)\s*)?;")
NOLINT_RE = re.compile(r"NOLINT\w*")
NOLINT_FORM_RE = re.compile(r"NOLINT(?:NEXTLINE)?\([\w\-,. ]+\): \S")
VOID_DISCARD_RE = re.compile(r"^\s*\(void\)\s*[\w:]+(?:\.\w+|->\w+)*\s*\(")
VOID_NAME_RE = re.compile(r"^\s*\(void\)\s*([A-Za-z_]\w*)\s*;")
STATUS_DISCARD_BACK = 8  # lines above a `(void)x;` searched for `Status x`
DROP_CALL_RE = re.compile(r"\.\s*DropBlocksFrom\s*\(|\w+_\.\s*Clear\s*\(")
ISA_MACRO_RE = re.compile(r"\bNODB_HAVE_[A-Z0-9_]+\b")
INCLUDE_RE = re.compile(r'^#include\s+(["<])([^">]+)[">]')
ROW_VALUE_RE = re.compile(r"\b(?:GetValue|AppendValue|AppendRow)\s*\(")
ROW_VALUE_DIRS = ("src/exec/", "src/raw/")
ROW_CLOCK_RE = re.compile(
    r"\b(?:PhaseTimer|ScopedTimer|Stopwatch)\b\s*(?:[A-Za-z_]\w*\s*)?[({;]"
    r"|\bmake_(?:unique|shared)\s*<\s*(?:PhaseTimer|ScopedTimer|Stopwatch)\b"
    r"|::\s*now\s*\(")
ROW_CLOCK_DIRS = ("src/raw/", "src/csv/", "src/io/")
LOOP_KEYWORD_RE = re.compile(r"\b(for|while|do)\b")
SPAN_CALL_RE = re.compile(r"\b(?:OpenSpan|EmitSpan|ScopedSpan)\s*\(")
SPAN_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*\.[a-z][a-z0-9_]*$")
SPAN_COMPONENTS = {"query", "scan", "exec", "cache", "map", "store",
                   "persist", "promoter", "pool", "snapshot"}
# The tracer implementation itself (declarations, not span sites).
SPAN_IMPL_FILES = {"src/obs/trace.h", "src/obs/trace.cc"}

# The server front end is a client of the engine, not part of it: it
# may use the engine facade, observability, shared plumbing, and the
# handful of headers that *are* the public execution seam — nothing
# below that (no scan/store/cache/SQL/persistence internals).
SERVER_ALLOWED_PREFIXES = ("server/", "engines/", "obs/", "monitor/",
                           "types/", "util/")
SERVER_ALLOWED_HEADERS = {
    "exec/cancel.h",        # cooperative per-query cancel tokens
    "exec/operator.h",      # BatchSink, the streaming seam
    "exec/query_result.h",  # result container + Drain
    "raw/nodb_config.h",    # server_* knobs live in the shared config
}


def strip_comments_and_strings(lines):
    """Returns a per-line copy with comments and literals blanked."""
    out = []
    in_block = False
    for line in lines:
        res = []
        i = 0
        n = len(line)
        while i < n:
            if in_block:
                end = line.find("*/", i)
                if end < 0:
                    i = n
                else:
                    in_block = False
                    i = end + 2
                continue
            c = line[i]
            if c == "/" and i + 1 < n and line[i + 1] == "/":
                break
            if c == "/" and i + 1 < n and line[i + 1] == "*":
                in_block = True
                i += 2
                continue
            if c in "\"'":
                quote = c
                i += 1
                while i < n:
                    if line[i] == "\\":
                        i += 2
                        continue
                    if line[i] == quote:
                        i += 1
                        break
                    i += 1
                res.append(quote + quote)
                continue
            res.append(c)
            i += 1
        out.append("".join(res))
    return out


def has_nearby_comment(lines, idx, needle=None, back=6):
    """True if a comment (optionally containing `needle`) sits on the
    line itself or within `back` lines above it."""
    for j in range(idx, max(-1, idx - back - 1), -1):
        line = lines[j]
        pos = line.find("//")
        if pos < 0 and j != idx:
            # A non-comment line above the site ends the search unless
            # it is the flagged line itself.
            if j != idx and line.strip() and "*/" not in line and \
                    not line.strip().startswith("*") and \
                    not line.strip().startswith("/*"):
                if j < idx:
                    break
            continue
        comment = line[pos:] if pos >= 0 else line
        if needle is None or needle in comment:
            return True
    return False


def check_style(path, raw, problems):
    if b"\r" in raw:
        problems.append(f"{path}: [style] CRLF line endings")
    if raw and not raw.endswith(b"\n"):
        problems.append(f"{path}: [style] missing trailing newline")
    if raw.endswith(b"\n\n"):
        problems.append(f"{path}: [style] multiple trailing newlines")
    for i, line in enumerate(raw.split(b"\n"), start=1):
        if b"\t" in line:
            problems.append(f"{path}:{i}: [style] tab character")
        if line != line.rstrip():
            problems.append(f"{path}:{i}: [style] trailing whitespace")


def check_locking(path, code, problems):
    if path in MUTEX_IMPL_FILES:
        return
    for i, line in enumerate(code, start=1):
        if NAKED_LOCK_RE.search(line):
            problems.append(
                f"{path}:{i}: [naked-lock] direct lock()/unlock() call; "
                "use the RAII guards in util/mutex.h")
        if STD_MUTEX_RE.search(line):
            problems.append(
                f"{path}:{i}: [std-mutex] raw std locking primitive; "
                "use the annotated wrappers in util/mutex.h")


def check_new_delete(path, code, problems):
    allow = ("unique_ptr", "shared_ptr", "OperatorPtr(", "static ",
             "make_unique", "make_shared")
    for i, line in enumerate(code, start=1):
        if NEW_RE.search(line):
            context = (code[i - 2] if i >= 2 else "") + line
            if not any(tok in context for tok in allow):
                problems.append(
                    f"{path}:{i}: [raw-new] owning `new` outside a smart "
                    "pointer; use std::make_unique/make_shared")
        for m in DELETE_RE.finditer(line):
            before = line[:m.start()].rstrip()
            if before.endswith("="):
                continue  # deleted special member
            problems.append(
                f"{path}:{i}: [raw-delete] `delete` expression; owning "
                "pointers must be smart pointers")


def check_banned_fns(path, code, problems):
    for i, line in enumerate(code, start=1):
        m = BANNED_FN_RE.search(line)
        if m:
            problems.append(
                f"{path}:{i}: [banned-fn] {m.group(1)}() is banned "
                "(use snprintf / util/random.h / manual tokenizing)")


def check_mutex_members(path, code, problems):
    if not path.startswith("src/") or not path.endswith(".h"):
        return
    if path in MUTEX_IMPL_FILES:
        return
    joined = "\n".join(code)
    for i, line in enumerate(code, start=1):
        m = MUTEX_MEMBER_RE.match(line)
        if not m:
            continue
        name = m.group(1)
        cluster = re.compile(
            r"(?:GUARDED_BY|PT_GUARDED_BY|REQUIRES|REQUIRES_SHARED|"
            r"ACQUIRE|ACQUIRE_SHARED|EXCLUDES|RETURN_CAPABILITY)"
            r"\([^)]*\b" + re.escape(name) + r"\b")
        if not cluster.search(joined):
            problems.append(
                f"{path}:{i}: [mutex-guard] mutex member {name} has no "
                "GUARDED_BY/REQUIRES cluster in this header")


def check_nolint(path, lines, problems):
    for i, line in enumerate(lines, start=1):
        if NOLINT_RE.search(line) and not NOLINT_FORM_RE.search(line):
            problems.append(
                f"{path}:{i}: [nolint-form] NOLINT without check name "
                "and reason; use NOLINT(check): reason")


def check_ntsa(path, lines, problems):
    if path.endswith("util/thread_annotations.h"):
        return
    for i, line in enumerate(lines, start=1):
        if "NO_THREAD_SAFETY_ANALYSIS" not in line:
            continue
        if line.lstrip().startswith("//") or line.lstrip().startswith("*"):
            continue
        if not has_nearby_comment(lines, i - 1,
                                  needle="NO_THREAD_SAFETY_ANALYSIS:"):
            problems.append(
                f"{path}:{i}: [ntsa-reason] NO_THREAD_SAFETY_ANALYSIS "
                "without a nearby `NO_THREAD_SAFETY_ANALYSIS: <why>` "
                "comment")


def check_void_discards(path, lines, code, problems):
    for i, line in enumerate(code, start=1):
        if not VOID_DISCARD_RE.match(line):
            continue
        if not has_nearby_comment(lines, i - 1):
            problems.append(
                f"{path}:{i}: [void-discard] discarded call result "
                "without a comment saying why dropping it is correct")


def check_status_discards(path, code, problems):
    for i, line in enumerate(code, start=1):
        m = VOID_NAME_RE.match(line)
        if m is None:
            continue
        decl = re.compile(
            r"\b(?:nodb::)?Status\s+" + re.escape(m.group(1)) + r"\b")
        above = code[max(0, i - 1 - STATUS_DISCARD_BACK):i - 1]
        if any(decl.search(prev) for prev in above):
            problems.append(
                f"{path}:{i}: [status-discard] Status `{m.group(1)}` "
                "discarded; test the expected error (e.g. IsOutOfRange()) "
                "and return any other")


def check_header_guard(path, lines, problems):
    if not path.endswith(".h"):
        return
    text = "\n".join(lines)
    if "#pragma once" in text:
        return
    if re.search(r"#ifndef NODB_\w+_H_", text) and \
            re.search(r"#define NODB_\w+_H_", text):
        return
    problems.append(
        f"{path}: [header-guard] missing NODB_*_H_ include guard "
        "(or #pragma once)")


def check_include_order(path, lines, problems):
    run_kind = None
    run = []
    run_start = 0

    def flush():
        if len(run) > 1 and run != sorted(run):
            problems.append(
                f"{path}:{run_start}: [include-order] includes not "
                "sorted within their block")

    for i, line in enumerate(lines, start=1):
        m = INCLUDE_RE.match(line)
        if m:
            kind = m.group(1)
            if kind != run_kind:
                flush()
                run_kind, run, run_start = kind, [], i
            run.append(m.group(2))
        else:
            flush()
            run_kind, run = None, []
    flush()


def check_generation_tags(path, lines, code, problems):
    if not path.startswith("src/"):
        return
    for i, line in enumerate(code, start=1):
        if not DROP_CALL_RE.search(line):
            continue
        # Skip declarations/definitions of the methods themselves.
        if re.search(r"(?:void|Status)\s+\w*(?:::)?(?:DropBlocksFrom|"
                     r"Clear)\s*\(", line):
            continue
        lo = max(0, i - 11)
        hi = min(len(lines), i + 4)
        window = "\n".join(lines[lo:hi])
        if "generation" not in window and "Generation" not in window:
            problems.append(
                f"{path}:{i}: [generation-tag] DropBlocksFrom/Clear "
                "call without a nearby comment on how stale producers "
                "are fenced (generation tags / re-validation)")


def check_isa_siblings(path, lines, problems):
    """Every ISA-gated branch needs a scalar sibling.

    A conditional chain whose #if/#elif condition tests an
    NODB_HAVE_* tier macro either carries an #else (the fallback is
    part of the chain — a `default:` dispatch arm or a scalar
    expression), or names its scalar sibling within the #endif line
    plus the 20 lines after it (a `*Scalar` kernel, a kScalar return,
    or an explicit `(scalar siblings: ...)` note on the #endif). The
    #ifndef defaulting idiom (`#ifndef NODB_HAVE_X` / `#define
    NODB_HAVE_X 0`) is exempt: it *creates* the macro, it does not
    gate a kernel on it.
    """
    stack = []  # [start_line, gates_on_isa_macro, has_else]
    for i, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped.startswith("#"):
            continue
        directive = stripped[1:].lstrip()
        if directive.startswith("ifndef"):
            stack.append([i, False, False])
        elif directive.startswith("if"):  # #if and #ifdef
            stack.append([i, bool(ISA_MACRO_RE.search(directive)), False])
        elif directive.startswith("elif"):
            if stack and ISA_MACRO_RE.search(directive):
                stack[-1][1] = True
        elif directive.startswith("else"):
            if stack:
                stack[-1][2] = True
        elif directive.startswith("endif"):
            if not stack:
                continue
            start, isa, has_else = stack.pop()
            if not isa or has_else:
                continue
            window = "\n".join(lines[i - 1:min(len(lines), i + 20)])
            if "scalar" not in window.lower():
                problems.append(
                    f"{path}:{start}: [isa-sibling] NODB_HAVE_* branch "
                    "with no #else and no scalar sibling near its "
                    "#endif; every ISA tier needs an always-available "
                    "scalar fallback")


def check_span_names(path, lines, code, problems):
    """Span-name literals must be `component.verb` with a known
    component. Dynamic names are checked on their literal component
    prefix (`"exec." + kind`); fully computed names are trusted."""
    if path in SPAN_IMPL_FILES:
        return
    for i, stripped in enumerate(code, start=1):
        m = SPAN_CALL_RE.search(stripped)
        if not m:
            continue
        rest = lines[i - 1][m.start():]
        lit = re.search(r'"([^"]*)"\s*(\+?)', rest)
        if not lit:
            continue  # name passed as a variable: not checkable here
        name, concat = lit.group(1), lit.group(2)
        if concat == "+" and name.endswith("."):
            ok = name[:-1] in SPAN_COMPONENTS
        else:
            ok = bool(SPAN_NAME_RE.match(name)) and \
                name.split(".")[0] in SPAN_COMPONENTS
        if not ok:
            problems.append(
                f"{path}:{i}: [span-name] span name \"{name}\" does not "
                "follow the component.verb taxonomy (components: "
                + ", ".join(sorted(SPAN_COMPONENTS)) + ")")


def check_server_seam(path, lines, problems):
    if not path.startswith("src/server/"):
        return
    for i, line in enumerate(lines, start=1):
        m = INCLUDE_RE.match(line)
        if not m or m.group(1) != '"':
            continue
        header = m.group(2)
        if header.startswith(SERVER_ALLOWED_PREFIXES):
            continue
        if header in SERVER_ALLOWED_HEADERS:
            continue
        problems.append(
            f"{path}:{i}: [server-seam] src/server/ must not include "
            f"\"{header}\"; the front end talks to the engine only "
            "through engines/, obs/, monitor/, types/, util/ and the "
            "public execution seam headers")


def check_row_values(path, lines, code, problems):
    if not path.startswith(ROW_VALUE_DIRS) or not path.endswith(".cc"):
        return
    for i, line in enumerate(code, start=1):
        m = ROW_VALUE_RE.search(line)
        if not m or "NOLINT(row-value): " in lines[i - 1]:
            continue
        problems.append(
            f"{path}:{i}: [row-value] per-row Value call "
            f"{m.group(0).rstrip('(').strip()}() in an operator or scan; "
            "use the typed batch API in types/column_vector.h, or mark a "
            "once-per-group/result site `NOLINT(row-value): reason`")


def loop_body_offsets(text):
    """Offsets of `text` (comment- and literal-free code) that lie
    lexically inside a for / while / do body, braced or not."""
    inside = bytearray(len(text))
    stack = []       # one flag per open '{': True for a loop body
    bare = []        # brace depths of open brace-less loop bodies
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if stack and any(stack) or bare:
            inside[i] = 1
        m = LOOP_KEYWORD_RE.match(text, i)
        if m and (i == 0 or not (text[i - 1].isalnum() or
                                 text[i - 1] == "_")):
            j = m.end()
            if m.group(1) != "do":
                while j < n and text[j].isspace():
                    j += 1
                if j >= n or text[j] != "(":
                    i = m.end()
                    continue
                depth = 0
                while j < n:
                    if text[j] == "(":
                        depth += 1
                    elif text[j] == ")":
                        depth -= 1
                        if depth == 0:
                            j += 1
                            break
                    j += 1
            while j < n and text[j].isspace():
                j += 1
            if j < n and text[j] == "{":
                stack.append(True)
                i = j + 1
                continue
            if j < n and text[j] != ";":
                bare.append(len(stack))  # body ends at its ';'
            i = m.end()
            continue
        if c == "{":
            stack.append(False)
        elif c == "}":
            if stack:
                stack.pop()
            while bare and bare[-1] > len(stack):
                bare.pop()
        elif c == ";":
            while bare and bare[-1] == len(stack):
                bare.pop()
        i += 1
    return inside


def check_row_clocks(path, lines, code, problems):
    if not path.startswith(ROW_CLOCK_DIRS) or not path.endswith(".cc"):
        return
    text = "\n".join(code)
    inside = loop_body_offsets(text)
    line_starts = [0]
    for line in code:
        line_starts.append(line_starts[-1] + len(line) + 1)
    for i, line in enumerate(code, start=1):
        for m in ROW_CLOCK_RE.finditer(line):
            if not inside[line_starts[i - 1] + m.start()]:
                continue
            if "NOLINT(row-clock): " in lines[i - 1]:
                continue
            if i >= 2 and "NOLINTNEXTLINE(row-clock): " in lines[i - 2]:
                continue
            problems.append(
                f"{path}:{i}: [row-clock] clock started inside a loop "
                f"body ({m.group(0).rstrip('(;{ ')}); time the whole "
                "pass with one timer, or mark a once-per-pass site "
                "`NOLINT(row-clock): reason`")


def check_file(path):
    problems = []
    with open(path, "rb") as f:
        raw = f.read()
    check_style(path, raw, problems)
    lines = raw.decode("utf-8", errors="replace").split("\n")
    code = strip_comments_and_strings(lines)
    check_locking(path, code, problems)
    check_new_delete(path, code, problems)
    check_banned_fns(path, code, problems)
    check_mutex_members(path, code, problems)
    check_nolint(path, lines, problems)
    check_ntsa(path, lines, problems)
    check_void_discards(path, lines, code, problems)
    check_status_discards(path, code, problems)
    check_header_guard(path, lines, problems)
    check_include_order(path, lines, problems)
    check_generation_tags(path, lines, code, problems)
    check_isa_siblings(path, lines, problems)
    check_span_names(path, lines, code, problems)
    check_server_seam(path, lines, problems)
    check_row_values(path, lines, code, problems)
    check_row_clocks(path, lines, code, problems)
    return problems


def main():
    files = sorted({f for p in PATTERNS for f in glob.glob(p, recursive=True)})
    files = [f.replace(os.sep, "/") for f in files]
    if not files:
        print("nodb_lint: no sources found (run from the repo root)")
        return 1
    problems = []
    for path in files:
        problems.extend(check_file(path))
    for problem in problems:
        print(problem)
    print(f"nodb_lint: {len(files)} files, {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
