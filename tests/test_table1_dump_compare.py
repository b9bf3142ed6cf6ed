#!/usr/bin/env python3
"""Self-test of tools/table1_dump_compare.py on small synthetic dumps.

    python3 tests/test_table1_dump_compare.py

Writes pairs of two-case dumps in bench/table1_bitdump's format to a
temporary directory, runs the compare script on each pair and checks
its exit code: 0 when the product is the same (bits elsewhere may
move), 1 when a crossing moved past 1e-12 relative, the crossing count
changed or omega_max / lambda_max_matvecs changed, 2 on an unreadable
file.  With --oracle it checks the per-case worst error against a
dense-route oracle: 0 while the new dump is within max(1e-12, the base
dump's worst error), 1 past it or on a crossing count that differs from
the oracle's, 2 on a missing oracle file or a bare --oracle.  Exits 0
when every check holds, 1 otherwise.  Standard library only.
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
from pathlib import Path

SCRIPT = (Path(__file__).resolve().parent.parent / "tools" /
          "table1_dump_compare.py")

CROSSINGS = {1: [3.25, 5.5, 17.0625], 2: [0.75, 9.125]}


def dump(crossings=None, omega_max=72.0, lambda_max_matvecs=120,
         shifts=3, eigen_im=3.25) -> str:
    """A two-case dump; keyword arguments change case 1 only."""
    crossings = crossings if crossings is not None else CROSSINGS[1]
    lines = []
    for cid in (1, 2):
        cross = crossings if cid == 1 else CROSSINGS[2]
        om = omega_max if cid == 1 else 40.0
        lm = lambda_max_matvecs if cid == 1 else 120
        ns = shifts if cid == 1 else 2
        lines.append(f"case {cid} n 1000 p 20 passive 0")
        lines.append(f"crossings {len(cross)}")
        lines += [float.hex(w) for w in cross]
        lines.append("eigenvalues 1")
        lines.append(f"{float.hex(-0.5)} {float.hex(eigen_im)}")
        lines.append(f"omega_max {float.hex(om)}")
        lines.append(f"shifts {ns} eliminated 0")
        for k in range(ns):
            lines.append(f"{float.hex(1.0 + k)} {float.hex(0.5)} 2 2 80")
        lines.append(f"total_matvecs {80 * ns + lm} "
                     f"lambda_max_matvecs {lm}")
    return "\n".join(lines) + "\n"


def moved(rel: float) -> list[float]:
    """Case 1's crossings with the middle one moved by `rel` relative."""
    out = list(CROSSINGS[1])
    out[1] *= 1.0 + rel
    return out


def oracle(crossings=None) -> str:
    """A dense-route oracle in `table1_bitdump dense`'s format: the case
    header and the crossings, case 1's taken from `crossings`."""
    lines = []
    for cid in (1, 2):
        cross = (crossings if crossings is not None else CROSSINGS[1]) \
            if cid == 1 else CROSSINGS[2]
        lines.append(f"case {cid} n 1000 p 20 passive 0")
        lines.append(f"crossings {len(cross)}")
        lines += [float.hex(w) for w in cross]
    return "\n".join(lines) + "\n"


def main() -> int:
    base = dump()
    cases = [
        ("identical", base, 0),
        ("eigenvalue and shift log moved, same product",
         dump(shifts=4, eigen_im=3.2500000001), 0),
        ("crossing moved 5e-13 relative", dump(crossings=moved(5e-13)), 0),
        ("crossing moved 2e-12 relative", dump(crossings=moved(2e-12)), 1),
        ("crossing count changed",
         dump(crossings=CROSSINGS[1] + [20.5]), 1),
        ("omega_max changed", dump(omega_max=72.00000000000001), 1),
        ("lambda_max_matvecs changed", dump(lambda_max_matvecs=160), 1),
    ]
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        base_path = Path(tmp) / "base.txt"
        base_path.write_text(base, encoding="utf-8")
        runs = []
        for i, (label, text, want) in enumerate(cases):
            new_path = Path(tmp) / f"new{i}.txt"
            new_path.write_text(text, encoding="utf-8")
            runs.append((label, [str(base_path), str(new_path)], want))
        bad_path = Path(tmp) / "bad.txt"
        bad_path.write_text(base.replace(float.hex(5.5), "five", 1),
                            encoding="utf-8")
        runs.append(("unreadable file",
                     [str(base_path), str(Path(tmp) / "missing.txt")], 2))
        runs.append(("malformed crossing", [str(base_path), str(bad_path)],
                     2))
        runs.append(("wrong argument count", [str(base_path)], 2))

        # Oracle checks: pairs of dumps whose product compare passes
        # (crossings within 1e-12 of each other), read against an oracle.
        truth_path = Path(tmp) / "oracle.txt"
        truth_path.write_text(oracle(), encoding="utf-8")
        extra_path = Path(tmp) / "oracle_extra.txt"
        extra_path.write_text(oracle(CROSSINGS[1] + [20.5]),
                              encoding="utf-8")
        oracle_cases = [
            ("oracle: both exact", dump(), dump(), truth_path, 0),
            ("oracle: new 5e-13 off, under the 1e-12 floor", dump(),
             dump(crossings=moved(5e-13)), truth_path, 0),
            ("oracle: base 9e-13 off, new 1.5e-12 off",
             dump(crossings=moved(9e-13)), dump(crossings=moved(1.5e-12)),
             truth_path, 1),
            ("oracle: base 3e-12 off, new 2.5e-12 off",
             dump(crossings=moved(3e-12)), dump(crossings=moved(2.5e-12)),
             truth_path, 0),
            ("oracle: base 2.5e-12 off, new 3e-12 off",
             dump(crossings=moved(2.5e-12)), dump(crossings=moved(3e-12)),
             truth_path, 1),
            ("oracle: crossing count differs from the oracle's", dump(),
             dump(), extra_path, 1),
            ("oracle: missing oracle file", dump(), dump(),
             Path(tmp) / "missing_oracle.txt", 2),
        ]
        for i, (label, old, new, truth, want) in enumerate(oracle_cases):
            old_path = Path(tmp) / f"oracle_base{i}.txt"
            new_path = Path(tmp) / f"oracle_new{i}.txt"
            old_path.write_text(old, encoding="utf-8")
            new_path.write_text(new, encoding="utf-8")
            runs.append((label, ["--oracle", str(truth), str(old_path),
                                 str(new_path)], want))
        runs.append(("oracle: bare --oracle",
                     ["--oracle", str(base_path), str(base_path)], 2))
        for label, args, want in runs:
            got = subprocess.run([sys.executable, str(SCRIPT), *args],
                                 capture_output=True, text=True).returncode
            status = "ok" if got == want else "FAIL"
            print(f"{status}: {label}: exit {got}, expected {want}")
            failures += got != want
    print(f"{len(runs) - failures}/{len(runs)} checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
