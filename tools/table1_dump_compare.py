#!/usr/bin/env python3
"""Product-level comparison of two bench/table1_bitdump outputs.

Usage: table1_dump_compare.py [--oracle FILE] BASE.txt NEW.txt

A change that moves bits on purpose (a different Krylov dimension, a
different sum order) makes the two dumps differ byte for byte while the
product, the crossing set Omega, stays the same.  Per Table I case this
requires:

  - the same crossing count, each crossing within 1e-12 relative;
  - a bit-identical band edge omega_max and |lambda|max matvec count
    (lambda_max_matvecs), which no shift reads.

It prints one line per case with both sides' total_matvecs and shift
counts, and exits 1 if any case fails (2 on unreadable input).

With --oracle FILE (the dense route's crossings, `table1_bitdump dense`,
committed as tests/data/table1_dense_crossings.txt) it also prints each
dump's worst relative crossing error against the oracle per case, and
fails a case whose new worst error exceeds max(1e-12, the base dump's
worst) or whose new crossing count differs from the oracle's.
"""

import sys

REL_TOL = 1e-12
ORACLE_FLOOR = 1e-12


def parse(path):
    """Case id -> {crossings, omega_max, lambda_max_matvecs, ...}."""
    cases = {}
    case = None
    section = None
    with open(path, encoding="utf-8") as f:
        for line in f:
            tok = line.split()
            if not tok:
                continue
            head = tok[0]
            if head == "case":
                case = {"crossings": []}
                cases[int(tok[1])] = case
                section = None
            elif head == "crossings":
                section = "crossings"
            elif head == "eigenvalues":
                section = None
            elif head == "omega_max":
                case["omega_max"] = tok[1]
            elif head == "shifts":
                case["shifts"] = int(tok[1])
                section = None
            elif head == "total_matvecs":
                case["total_matvecs"] = int(tok[1])
                case["lambda_max_matvecs"] = tok[3]
            elif section == "crossings":
                case["crossings"].append(float.fromhex(head))
    return cases


def compare(base, new):
    """Failure messages and one summary line per case."""
    failures = []
    lines = []
    for cid in sorted(set(base) | set(new)):
        if cid not in base or cid not in new:
            failures.append(f"case {cid}: present on one side only")
            continue
        a, b = base[cid], new[cid]
        ca, cb = a["crossings"], b["crossings"]
        worst = 0.0
        if len(ca) != len(cb):
            failures.append(
                f"case {cid}: {len(ca)} crossings -> {len(cb)}")
        else:
            for x, y in zip(ca, cb):
                rel = abs(x - y) / max(abs(x), 1e-300)
                worst = max(worst, rel)
            if worst > REL_TOL:
                failures.append(
                    f"case {cid}: a crossing moved by {worst:.3g} relative")
        for key in ("omega_max", "lambda_max_matvecs"):
            if a.get(key) != b.get(key):
                failures.append(
                    f"case {cid}: {key} {a.get(key)} -> {b.get(key)}")
        lines.append(
            f"case {cid}: {len(cb)} crossings (max rel move {worst:.2g}), "
            f"shifts {a.get('shifts')} -> {b.get('shifts')}, "
            f"total_matvecs {a.get('total_matvecs')} -> "
            f"{b.get('total_matvecs')}")
    return failures, lines


def worst_error(crossings, truth):
    """Worst relative error of `crossings` against `truth`; None when the
    counts differ."""
    if len(crossings) != len(truth):
        return None
    return max((abs(x - y) / max(abs(y), 1e-300)
                for x, y in zip(crossings, truth)), default=0.0)


def compare_oracle(oracle, base, new):
    """Failure messages and one line per oracle case present in both
    dumps."""
    failures = []
    lines = []
    for cid in sorted(set(oracle) & set(base) & set(new)):
        truth = oracle[cid]["crossings"]
        eb = worst_error(base[cid]["crossings"], truth)
        en = worst_error(new[cid]["crossings"], truth)
        shown = ["count differs" if e is None else f"{e:.2g}"
                 for e in (eb, en)]
        lines.append(f"case {cid}: worst rel error vs oracle "
                     f"({len(truth)} crossings): base {shown[0]}, "
                     f"new {shown[1]}")
        if en is None:
            failures.append(
                f"case {cid}: {len(new[cid]['crossings'])} crossings, "
                f"oracle {len(truth)}")
        elif eb is not None and en > max(ORACLE_FLOOR, eb):
            failures.append(
                f"case {cid}: worst error vs oracle {eb:.3g} -> {en:.3g}")
    return failures, lines


def main(argv):
    args = argv[1:]
    oracle_path = None
    if args[:1] == ["--oracle"] and len(args) >= 2:
        oracle_path, args = args[1], args[2:]
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    try:
        base, new = parse(args[0]), parse(args[1])
        oracle = parse(oracle_path) if oracle_path else None
    except (OSError, ValueError, IndexError, KeyError, TypeError) as e:
        print(f"table1_dump_compare: {e}", file=sys.stderr)
        return 2
    failures, lines = compare(base, new)
    if oracle is not None:
        more_failures, more_lines = compare_oracle(oracle, base, new)
        failures += more_failures
        lines += more_lines
    for line in lines:
        print(line)
    for msg in failures:
        print(f"PRODUCT CHANGED: {msg}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
