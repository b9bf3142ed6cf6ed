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


def check_sync_layer(errors: list[str]) -> None:
    for directory in ("src", "include", "tests", "bench", "examples"):
        base = ROOT / directory
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*.[ch]pp")):
            rel = path.relative_to(ROOT)
            if rel == SYNC_HPP:
                continue
            for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1
            ):
                code = line.split("//", 1)[0]
                match = BANNED_RE.search(code)
                if match:
                    errors.append(
                        f"sync-layer: {rel}:{lineno}: {match.group(0)} — "
                        "use phes::util::Mutex/MutexLock/CondVar from "
                        "phes/util/sync.hpp"
                    )


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


def main() -> int:
    errors: list[str] = []
    check_metrics(errors)
    check_protocol_ops(errors)
    check_protocol_docs(errors)
    check_sync_layer(errors)
    check_cli_flags(errors)
    if errors:
        for err in errors:
            print(err)
        print(f"\n{len(errors)} invariant violation(s).")
        return 1
    print("lint_invariants: all invariants hold "
          "(metrics-docs, protocol-ops, protocol-docs, sync-layer, "
          "cli-flags).")
    return 0


if __name__ == "__main__":
    sys.exit(main())
