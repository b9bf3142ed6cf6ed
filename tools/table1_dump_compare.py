#!/usr/bin/env python3
"""Product-level comparison of two bench/table1_bitdump outputs.

Usage: table1_dump_compare.py BASE.txt NEW.txt

A change that moves bits on purpose (a different Krylov dimension, a
different sum order) makes the two dumps differ byte for byte while the
product, the crossing set Omega, stays the same.  Per Table I case this
requires:

  - the same crossing count, each crossing within 1e-12 relative;
  - a bit-identical band edge omega_max and |lambda|max matvec count
    (lambda_max_matvecs), which no shift reads.

It prints one line per case with both sides' total_matvecs and shift
counts, and exits 1 if any case fails (2 on unreadable input).
"""

import sys

REL_TOL = 1e-12


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


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    try:
        base, new = parse(argv[1]), parse(argv[2])
    except (OSError, ValueError, IndexError, KeyError, TypeError) as e:
        print(f"table1_dump_compare: {e}", file=sys.stderr)
        return 2
    failures, lines = compare(base, new)
    for line in lines:
        print(line)
    for msg in failures:
        print(f"PRODUCT CHANGED: {msg}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
