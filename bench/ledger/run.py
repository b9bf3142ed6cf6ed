#!/usr/bin/env python3
"""Benchmark entry point: build bench_ledger, run one workload.

    python3 bench/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the phes library and bench_ledger from the checkout's own sources
into .bench_build/ledger (a no-op when up to date; build output goes to
stderr), then runs bench_ledger from the checkout root with its working
files under .bench_build/runs/.  Its standard output passes through
unchanged: the last line is the JSON result.  The exit status is
bench_ledger's, or 1 when the build fails.  Standard library only.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = Path(".bench_build") / "ledger"
WORKLOADS = ("table1_case1", "small_jobs", "enforce_jobs", "repeat_jobs")


def build() -> Path:
    """Configure once, then build bench_ledger; raises on failure."""
    steps = []
    if not (ROOT / BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE.relative_to(ROOT)), "-B",
                      str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "bench_ledger",
                  "-j", "4"])
    # The compiler's scratch files stay inside the checkout too.
    tmp = ROOT / BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                       stderr=sys.stderr, check=True)
    return BUILD / "bench_ledger"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    out = (Path(".bench_build") / "runs" /
           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    cmd = [f"./{binary}", "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--out", str(out)]
    if args.trace:
        cmd.append("--trace")
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
