#!/usr/bin/env python3
"""Repo-invariant linter: cross-artifact contracts a compiler cannot see.

Checks (each failure is one line on stdout; exit 1 if any fired):

  1. metrics-docs   Every `phes_*` instrument registered in source
                    appears in README.md's metric table, and every
                    README table entry names a registered instrument.
                    The table uses `{a,b}` brace shorthand and `<...>`
                    placeholders for dynamically-suffixed families.
  2. protocol-ops   Every protocol op handled in protocol.cpp has a
                    client-side subcommand (examples/phes_pipeline.cpp)
                    and at least one mention in the test suite.
  3. protocol-docs  Every protocol op handled in protocol.cpp is
                    documented in README.md (as `"op":"name"` or a
                    backticked `name`), so the wire surface and the
                    docs cannot drift apart.
  4. sync-layer     No raw std synchronization primitive outside
                    util/sync.hpp: every mutex in the tree must be a
                    phes::util one so the thread-safety analysis sees
                    it.  (See README "Static analysis".)
  5. cli-flags      Every flag phes_pipeline's parse_flags accepts
                    (`flag == "--x"`) is listed in the file's header
                    comment, in usage() and in README.md, and every
                    flag those three name is one parse_flags accepts.
                    README lines that run cmake or ctest are skipped:
                    their flags belong to those tools.
  6. prod-callers   Every function declared in include/phes has a
                    caller in production code: a whole-word use in
                    src/, examples/ or bench/ (or in an inline body in
                    include/), other than its own declaration and
                    definition.  Constructors, destructors, operators,
                    overrides and deleted functions are exempt; test
                    seams sit on PROD_CALLERS_ALLOW with a reason, and
                    a stale entry fires too.  The scan works on names,
                    so it cannot tell overloads apart, and a member
                    passes whenever anything else in production code
                    uses its name: an uncalled `clear`, `capacity` or
                    `reset` hides behind std containers, smart
                    pointers and constructor parameters of that name.
  7. simd-confined  GCC/Clang vector types (`vector_size`) and SIMD
                    intrinsics headers (`<*intrin.h>`, `<arm_neon.h>`)
                    appear only in src/la/kernels.cpp, so "one kernel
                    path" stays checkable: every explicitly vectorized
                    loop is in that file, with its scalar loop in
                    tests/reference_kernels.hpp as the oracle.
  8. threads-confined
                    `std::thread`/`std::jthread` objects, `#pragma omp`
                    and `<omp.h>` appear in src/, include/ and
                    examples/ only in src/util/threads.cpp, so every
                    thread the program starts goes through
                    util::ThreadGroup or util::parallel_for.
                    `std::thread::hardware_concurrency` and
                    `std::this_thread` stay allowed; test and bench
                    harnesses keep their own client threads.

Run from anywhere: paths resolve relative to this file's repo root.
"""

from __future__ import annotations

import itertools
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# ---- check 1: metric names vs README table ----------------------------

# Registration calls whose string literal is the canonical metric name.
REGISTRATION_RE = re.compile(
    r'\b(?:counter|gauge|histogram)\(\s*"(phes_[a-z0-9_]+)"'
)
# Dynamically-suffixed families are registered by string concatenation
# off a literal prefix; the README documents them with a <placeholder>.
PREFIX_REGISTRATION_RE = re.compile(
    r'std::string\(\s*"(phes_[a-z0-9_]+_)"\s*\)'
)
README_METRIC_RE = re.compile(r"`(phes_[a-z0-9_{},<>]+)`")


def expand_braces(name: str) -> list[str]:
    """phes_a_{x,y}_total -> [phes_a_x_total, phes_a_y_total]."""
    parts = re.split(r"\{([^{}]*)\}", name)
    # Odd indices are the comma groups, even indices literal text.
    options = [
        part.split(",") if i % 2 else [part]
        for i, part in enumerate(parts)
    ]
    return ["".join(combo) for combo in itertools.product(*options)]


def source_metric_names() -> tuple[set[str], set[str]]:
    names: set[str] = set()
    prefixes: set[str] = set()
    for directory in ("src", "include"):
        for path in (ROOT / directory).rglob("*.[ch]pp"):
            text = path.read_text(encoding="utf-8")
            names.update(REGISTRATION_RE.findall(text))
            prefixes.update(PREFIX_REGISTRATION_RE.findall(text))
    return names, prefixes


README_TABLE_MARKER = "Metric names, by layer:"


def readme_metric_entries() -> tuple[set[str], set[str]]:
    """Exact names and `<...>`-wildcard prefixes documented in README."""
    exact: set[str] = set()
    wildcard_prefixes: set[str] = set()
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    try:
        start = next(i for i, l in enumerate(lines)
                     if README_TABLE_MARKER in l)
    except StopIteration:
        return exact, wildcard_prefixes  # caller flags the empty table
    in_table = False
    for line in lines[start + 1:]:
        if line.lstrip().startswith("|"):
            in_table = True
        elif in_table:
            break  # the metric table ended
        elif line.strip():
            break  # something other than the table follows the marker
        else:
            continue
        for raw in README_METRIC_RE.findall(line):
            for name in expand_braces(raw):
                if "<" in name:
                    wildcard_prefixes.add(name.split("<", 1)[0])
                else:
                    exact.add(name)
    return exact, wildcard_prefixes


def check_metrics(errors: list[str]) -> None:
    names, prefixes = source_metric_names()
    exact, wildcards = readme_metric_entries()
    if not exact and not wildcards:
        errors.append(
            "metrics-docs: README.md metric table not found (marker: "
            f"'{README_TABLE_MARKER}')"
        )
        return
    for name in sorted(names):
        if name in exact:
            continue
        if any(name.startswith(w) for w in wildcards):
            continue
        errors.append(
            f"metrics-docs: '{name}' is registered in source but missing "
            "from README.md's metric table"
        )
    for name in sorted(exact):
        if name not in names:
            errors.append(
                f"metrics-docs: README.md documents '{name}' but no "
                "source file registers it"
            )
    for prefix in sorted(wildcards):
        if prefix not in prefixes and not any(
            n.startswith(prefix) for n in names
        ):
            errors.append(
                f"metrics-docs: README.md documents the '{prefix}<...>' "
                "family but no source file registers that prefix"
            )


# ---- check 2: protocol ops vs client + tests --------------------------

OP_RE = re.compile(r'\bop == "(\w+)"')

# Ops whose client-side spelling differs from the wire op.  The client
# maps `wait` onto the wire `status` op, sends `submit_inline` via
# `submit --inline`, and performs `auth` implicitly from
# --auth-token-file.
CLIENT_EVIDENCE_OVERRIDES = {
    "submit_inline": "--inline",
    "auth": "--auth-token-file",
}


def check_protocol_ops(errors: list[str]) -> None:
    protocol = (ROOT / "src/server/protocol.cpp").read_text(encoding="utf-8")
    ops = sorted(set(OP_RE.findall(protocol)))
    if not ops:
        errors.append("protocol-ops: no ops found in protocol.cpp "
                      "(extraction pattern broke?)")
        return
    client = (ROOT / "examples/phes_pipeline.cpp").read_text(encoding="utf-8")
    test_text = "".join(
        p.read_text(encoding="utf-8")
        for p in sorted((ROOT / "tests").glob("*.[ch]pp"))
    )
    for op in ops:
        evidence = CLIENT_EVIDENCE_OVERRIDES.get(op, f'"{op}"')
        if evidence not in client:
            errors.append(
                f"protocol-ops: op '{op}' has no client subcommand "
                f"(expected '{evidence}' in examples/phes_pipeline.cpp)"
            )
        if op not in test_text:
            errors.append(
                f"protocol-ops: op '{op}' is never mentioned in tests/"
            )


# ---- check 3: protocol ops vs README ----------------------------------


def check_protocol_docs(errors: list[str]) -> None:
    protocol = (ROOT / "src/server/protocol.cpp").read_text(encoding="utf-8")
    ops = sorted(set(OP_RE.findall(protocol)))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for op in ops:
        if f'"op":"{op}"' in readme or f"`{op}`" in readme:
            continue
        errors.append(
            f"protocol-docs: op '{op}' is handled in protocol.cpp but "
            "not documented in README.md"
        )


# ---- check 4: raw std synchronization outside util/sync.hpp -----------

BANNED_RE = re.compile(
    r"std::(?:mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"condition_variable(?:_any)?|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock)\b"
)
SYNC_HPP = Path("include/phes/util/sync.hpp")


ALL_SOURCE_DIRS = ("src", "include", "tests", "bench", "examples")


def check_confined(errors: list[str], check: str, pattern: re.Pattern,
                   home: Path, advice: str,
                   directories: tuple[str, ...] = ALL_SOURCE_DIRS) -> None:
    """`pattern` may match C++ code (line comments stripped) under
    `directories` only in `home`."""
    for directory in directories:
        base = ROOT / directory
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*.[ch]pp")):
            rel = path.relative_to(ROOT)
            if rel == home:
                continue
            for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1
            ):
                code = line.split("//", 1)[0]
                match = pattern.search(code)
                if match:
                    errors.append(
                        f"{check}: {rel}:{lineno}: {match.group(0)} — "
                        f"{advice}"
                    )


def check_sync_layer(errors: list[str]) -> None:
    check_confined(errors, "sync-layer", BANNED_RE, SYNC_HPP,
                   "use phes::util::Mutex/MutexLock/CondVar from "
                   "phes/util/sync.hpp")


# ---- check 5: phes_pipeline flags vs header comment, usage(), README ---

CLI_SOURCE = Path("examples/phes_pipeline.cpp")
PARSED_FLAG_RE = re.compile(r'\bflag == "(--[a-z0-9-]+)"')
FLAG_RE = re.compile(r"(?<![\w-])(--[a-z][a-z0-9-]*)")
OTHER_TOOL_RE = re.compile(r"\b(?:cmake|ctest)\b")


def cli_flag_surfaces(source: str) -> dict[str, set[str]]:
    """Flags named by each documentation surface of the CLI."""
    lines = source.splitlines()
    header = itertools.takewhile(lambda l: l.startswith("//"), lines)
    header_flags = set(FLAG_RE.findall("\n".join(header)))
    usage_match = re.search(r"int usage\(\) \{(.*?)\n\}", source, re.S)
    usage_flags = (set(FLAG_RE.findall(usage_match.group(1)))
                   if usage_match else set())
    readme_flags: set[str] = set()
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if not OTHER_TOOL_RE.search(line):
            readme_flags.update(FLAG_RE.findall(line))
    return {
        f"the header comment of {CLI_SOURCE}": header_flags,
        f"usage() in {CLI_SOURCE}": usage_flags,
        "README.md": readme_flags,
    }


def check_cli_flags(errors: list[str]) -> None:
    source = (ROOT / CLI_SOURCE).read_text(encoding="utf-8")
    parsed = set(PARSED_FLAG_RE.findall(source))
    if not parsed:
        errors.append(f"cli-flags: no flags found in {CLI_SOURCE} "
                      "(extraction pattern broke?)")
        return
    for surface, named in cli_flag_surfaces(source).items():
        for flag in sorted(parsed - named):
            errors.append(f"cli-flags: '{flag}' is parsed but missing "
                          f"from {surface}")
        for flag in sorted(named - parsed):
            errors.append(f"cli-flags: {surface} names '{flag}', which "
                          "parse_flags does not accept")


# ---- check 6: every public function has a production caller ----------
#
# A name-based scan, not a C++ parser: comments, literals and
# preprocessor lines are blanked, then braces are tracked to tell
# namespace and class scopes (where functions are declared) from
# function bodies and initializers (where they are used).

PUBLIC_HEADERS = Path("include/phes")
# Production code.  Inline bodies in include/ count too: they compile
# into whichever production caller uses them.
CALLER_DIRS = ("src", "examples", "bench", "include")

# Test seams: public functions only tests call, kept on purpose.
# Name -> why.  Keep it short; each entry must still name a declared
# function that has no production caller.
PROD_CALLERS_ALLOW = {
    "assert_held": "thread-safety analysis hook for lambda predicates "
                   "(sync.hpp contract); only test_sync's predicates "
                   "touch guarded fields today",
    "stats": "JobQueue::stats: the queue tests' view of its counters and "
             "of its peak depth (the capacity bound), which the metrics "
             "registry does not carry",
}

NOT_FUNCTIONS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof",
    "alignas", "decltype", "noexcept", "static_assert", "requires",
    "throw", "catch", "new", "delete", "void", "int", "double", "bool",
    "char", "auto", "explicit", "typeid",
}
IDENT_RE = re.compile(r"[A-Za-z_]\w*")
MACRO_NAME_RE = re.compile(r"\b[A-Z][A-Z0-9_]*\b")
ACCESS_RE = re.compile(r"\b(?:public|private|protected)\s*:(?!:)")


def blank_match(m: re.Match) -> str:
    return " " * len(m.group(0))


def blank_code(text: str) -> str:
    """Comments, string/char literals and preprocessor lines replaced by
    spaces; newlines stay, so offsets and line numbers are kept."""
    out = list(text)
    n = len(text)

    def blank(a: int, b: int) -> None:
        for k in range(a, b):
            if out[k] != "\n":
                out[k] = " "

    i, line_start = 0, True
    while i < n:
        c = text[i]
        if c == "\n":
            line_start = True
            i += 1
            continue
        if line_start and c == "#":
            j = i
            while j < n and not (text[j] == "\n" and text[j - 1] != "\\"):
                j += 1
            blank(i, j)
            i = j
            continue
        if not c.isspace():
            line_start = False
        if text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
        elif text.startswith('R"', i) and not (
                i and (text[i - 1].isalnum() or text[i - 1] == "_")):
            m = re.match(r'R"([^(\s]*)\(', text[i:])
            end = text.find(")" + m.group(1) + '"', i) if m else -1
            j = n if end < 0 else end + len(m.group(1)) + 2
        elif c == '"' or (c == "'" and not is_digit_separator(text, i)):
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            j += 1
        else:
            i += 1
            continue
        blank(i, min(j, n))
        i = j
    return "".join(out)


def is_digit_separator(text: str, i: int) -> bool:
    """True for the ' of 100'000 (not a character literal)."""
    j = i
    while j > 0 and (text[j - 1].isalnum() or text[j - 1] in ".'"):
        j -= 1
    return j < i and text[j].isdigit()


def matching(code: str, i: int, open_c: str, close_c: str) -> int:
    depth = 0
    for k in range(i, len(code)):
        if code[k] == open_c:
            depth += 1
        elif code[k] == close_c:
            depth -= 1
            if depth == 0:
                return k
    return len(code) - 1


def strip_macros(stmt: str) -> str:
    """All-caps annotation macros (PHES_EXCLUDES(mu_), ...) blanked."""
    out = stmt
    for m in reversed(list(MACRO_NAME_RE.finditer(stmt))):
        end = m.end()
        k = end
        while k < len(stmt) and stmt[k].isspace():
            k += 1
        if k < len(stmt) and stmt[k] == "(":
            end = matching(stmt, k, "(", ")") + 1
        out = out[:m.start()] + " " * (end - m.start()) + out[end:]
    return out


def strip_template_head(stmt: str) -> str:
    """Blank leading `template <...>` heads (offsets are kept)."""
    while True:
        m = re.match(r"\s*template\s*<", stmt)
        if not m:
            return stmt
        end = matching(stmt, m.end() - 1, "<", ">")
        stmt = " " * (end + 1) + stmt[end + 1:]


def declarator(stmt: str) -> tuple[str, int, bool] | None:
    """(name, offset, exempt) of the function a declaration statement
    declares, or None.  Exempt: operators, destructors, overrides and
    deleted functions."""
    stmt = strip_template_head(strip_macros(stmt))
    if re.match(r"\s*(?:using|typedef|static_assert)\b", stmt):
        return None
    angles = 0
    k = 0
    while k < len(stmt):
        c = stmt[k]
        if c == "(" and angles == 0:
            operator = re.search(r"\boperator\b", stmt[:k])
            if operator:
                return "operator", operator.start(), True
            m = re.search(r"(~?)([A-Za-z_]\w*)\s*$", stmt[:k])
            if m and m.group(2) in NOT_FUNCTIONS:
                k = matching(stmt, k, "(", ")") + 1  # decltype(...) etc.
                continue
            if not m:
                return None
            tail = stmt[matching(stmt, k, "(", ")") + 1:]
            exempt = bool(m.group(1)) or bool(
                re.search(r"\boverride\b|=\s*delete\b", tail))
            return m.group(2), m.start(2), exempt
        if c == "<" and k and (stmt[k - 1].isalnum() or stmt[k - 1] in "_ "):
            operator = re.search(r"\boperator\s*$", stmt[:k])
            if operator:
                return "operator", operator.start(), True
            angles += 1
        elif c == ">" and angles:
            angles -= 1
        elif c == "=" and angles == 0:
            return None  # a variable with an initializer
        k += 1
    return None


def scan_scopes(code: str):
    """Function declarations at namespace/class scope, as
    (name, offset, exempt, enclosing class name or None), and the brace
    blocks outside them, as (start, end, function name or None)."""
    decls, blocks = [], []
    scopes: list[str | None] = [None]
    start = parens = 0
    i = 0
    while i < len(code):
        c = code[i]
        if c == "(":
            parens += 1
        elif c == ")":
            parens -= 1
        elif c == ";" and parens == 0:
            d = declarator(ACCESS_RE.sub(blank_match, code[start:i]))
            if d:
                decls.append((d[0], start + d[1], d[2], scopes[-1]))
            start = i + 1
        elif c == "}":
            if len(scopes) > 1:
                scopes.pop()
            start, parens = i + 1, 0
        elif c == "{":
            stmt = ACCESS_RE.sub(blank_match, code[start:i])
            head = strip_template_head(strip_macros(stmt))
            d = declarator(stmt)
            kind = re.search(r"\b(namespace|enum|class|struct|union)\b",
                             head)
            if parens == 0 and kind and kind.group(1) == "namespace":
                scopes.append(None)
                start = i + 1
            elif parens == 0 and kind and kind.group(1) != "enum" and (
                    d is None or "(" not in head[:kind.start()]):
                name = re.match(r"\s*(?:\[\[.*?\]\]\s*)?([A-Za-z_]\w*)",
                                head[kind.end():])
                scopes.append(name.group(1) if name else "")
                start = i + 1
            else:
                end = matching(code, i, "{", "}")
                prev = stmt.rstrip()[-1:]
                after = stmt[stmt.find(")", d[1]) + 1:] if d else ""
                member_init = bool(re.search(r"(?<!:):(?!:)", after)) and (
                    prev.isalnum() or prev in "_>")
                if d is None or parens > 0 or member_init:
                    blocks.append((i, end, None))  # the statement goes on
                else:
                    decls.append((d[0], start + d[1], d[2], scopes[-1]))
                    blocks.append((i, end, d[0]))
                    start, parens = end + 1, 0
                i = end
        i += 1
    return decls, blocks


def public_functions() -> list[tuple[Path, int, str]]:
    found = []
    for path in sorted((ROOT / PUBLIC_HEADERS).rglob("*.hpp")):
        code = blank_code(path.read_text(encoding="utf-8"))
        for name, offset, exempt, cls in scan_scopes(code)[0]:
            if exempt or name == cls:  # constructors are exempt too
                continue
            line = code.count("\n", 0, offset) + 1
            found.append((path.relative_to(ROOT), line, name))
    return found


def production_uses() -> set[str]:
    """Every name used in production code other than as the declared
    name of a declaration or definition (or inside its own body)."""
    used: set[str] = set()
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.[ch]pp")):
            code = blank_code(path.read_text(encoding="utf-8"))
            decls, blocks = scan_scopes(code)
            declared_at = {offset for _, offset, _, _ in decls}
            bodies: dict[str, list[tuple[int, int]]] = {}
            for a, b, own in blocks:
                if own:
                    bodies.setdefault(own, []).append((a, b))
            for m in IDENT_RE.finditer(code):
                name = m.group(0)
                if m.start() in declared_at or any(
                        a < m.start() < b for a, b in bodies.get(name, ())):
                    continue  # a declaration, or recursion
                used.add(name)
    return used


def check_prod_callers(errors: list[str]) -> None:
    functions = public_functions()
    if not functions:
        errors.append("prod-callers: no functions found in include/phes "
                      "(extraction pattern broke?)")
        return
    used = production_uses()
    declared = {name for _, _, name in functions}
    for rel, line, name in functions:
        if name not in used and name not in PROD_CALLERS_ALLOW:
            errors.append(f"prod-callers: {rel}:{line}: '{name}' has no "
                          "caller in src/, examples/ or bench/")
    for name in sorted(PROD_CALLERS_ALLOW):
        if name not in declared:
            errors.append(f"prod-callers: allow-list entry '{name}' names "
                          "no function declared in include/phes")
        elif name in used:
            errors.append(f"prod-callers: allow-list entry '{name}' has a "
                          "production caller now; drop the entry")


# ---- check 7: explicit SIMD only in the kernel file -------------------

SIMD_RE = re.compile(
    r"\bvector_size\b|<\s*\w*intrin\.h\s*>|<\s*arm_neon\.h\s*>"
)
SIMD_HOME = Path("src/la/kernels.cpp")


def check_simd_confined(errors: list[str]) -> None:
    check_confined(errors, "simd-confined", SIMD_RE, SIMD_HOME,
                   f"explicit SIMD belongs in {SIMD_HOME}")


# ---- check 8: threads start only in the thread helper -----------------

THREADS_RE = re.compile(
    r"\bstd::j?thread\b(?!::)|#\s*pragma\s+omp\b|<\s*omp\.h\s*>"
)
THREADS_HOME = Path("src/util/threads.cpp")


def check_threads_confined(errors: list[str]) -> None:
    check_confined(errors, "threads-confined", THREADS_RE, THREADS_HOME,
                   "start threads with util::ThreadGroup or "
                   "util::parallel_for (phes/util/threads.hpp)",
                   directories=("src", "include", "examples"))


def main() -> int:
    errors: list[str] = []
    check_metrics(errors)
    check_protocol_ops(errors)
    check_protocol_docs(errors)
    check_sync_layer(errors)
    check_cli_flags(errors)
    check_prod_callers(errors)
    check_simd_confined(errors)
    check_threads_confined(errors)
    if errors:
        for err in errors:
            print(err)
        print(f"\n{len(errors)} invariant violation(s).")
        return 1
    print("lint_invariants: all invariants hold "
          "(metrics-docs, protocol-ops, protocol-docs, sync-layer, "
          "cli-flags, prod-callers, simd-confined, threads-confined).")
    return 0


if __name__ == "__main__":
    sys.exit(main())
