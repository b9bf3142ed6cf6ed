#!/usr/bin/env python3
"""Run the performance ledger: every workload, N sets, one JSON ledger.

    python3 bench/ledger/run_ledger.py --out ledger.json [--sets 5]
        [--trace] [--seconds S] [--seed0 1]

Each run is its own process (bench/ledger/run.py), so peak RSS is per
workload.  Set k runs every workload with seed seed0 + k; odd sets run
the workloads in reverse order, so a slow phase of the machine does not
always land on the same workload.  --trace adds a traced run after each
timed one and stores trace_overhead_frac = traced / timed
verdict_p50_ms - 1 with it.  Metric definitions, bounds and the default
run length come from the root BENCHMARK.json.  Ends by printing each
(workload, metric) median and quartile spread.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def parse_output(text: str) -> dict:
    """Split run.py output into params, input hash, metrics and result."""
    lines = [line for line in text.splitlines() if line.strip()]
    result = json.loads(lines[-1])
    run = {"params": None, "input_hash": None, "host_speed": None,
           "metrics": {}}
    for line in lines[:-1]:
        if line.startswith("# params "):
            run["params"] = json.loads(line[len("# params "):])
        elif line.startswith("# input_hash "):
            run["input_hash"] = line.split()[2]
        elif line.startswith("# host_speed "):
            run["host_speed"] = float(line.split()[2])
        elif not line.startswith("#"):
            parts = line.split()
            if len(parts) == 3:
                run["metrics"][parts[0]] = float(parts[1])
    # The JSON record carries full precision; the lines are rounded.
    for name, entry in result["metrics"].items():
        run["metrics"][name] = entry["value"]
    run.update(correct=result["correct"], attempted=result["attempted"],
               failed=result["failed"])
    return run


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           "1" if trace else "0"]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - started
    try:
        run = parse_output(proc.stdout)
    except (ValueError, IndexError, KeyError):
        run = {"params": None, "input_hash": None, "host_speed": None,
               "metrics": {}, "correct": False, "attempted": 0, "failed": 0}
    run.update(seed=seed, trace=trace, exit=proc.returncode,
               wall_s=round(wall, 3))
    if proc.returncode != 0:
        run["correct"] = False
    return run


def spread(values: list[float]) -> tuple[float, float]:
    """Median and (q3 - q1) / median, quartiles of statistics.quantiles."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--sets", type=int, default=5)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]

    ledger = {
        "sets": args.sets,
        "seconds": args.seconds,
        "seed0": args.seed0,
        "nproc": os.cpu_count(),
        "end_to_end": bench["end_to_end"],
        "per_layer": bench["per_layer"],
        "workloads": {w: {"params": None, "runs": []} for w in workloads},
    }
    ok = True
    for k in range(args.sets):
        seed = args.seed0 + k
        for w in workloads if k % 2 == 0 else reversed(workloads):
            entry = ledger["workloads"][w]
            timed = run_once(w, seed, args.seconds, trace=False)
            runs = [timed]
            if args.trace:
                traced = run_once(w, seed, args.seconds, trace=True)
                base = timed["metrics"].get("verdict_p50_ms")
                if base:
                    traced["metrics"]["trace_overhead_frac"] = (
                        traced["metrics"].get("verdict_p50_ms", 0.0) / base - 1)
                runs.append(traced)
            for run in runs:
                run["set"] = k
                params = run.pop("params")
                entry["params"] = entry["params"] or params
                entry["runs"].append(run)
                ok = ok and run["correct"]
                print(f"set {k} {w} seed {seed} "
                      f"{'traced' if run['trace'] else 'timed'}: "
                      f"exit {run['exit']}, {run['attempted']} attempted, "
                      f"{run['failed']} failed, {run['wall_s']} s",
                      file=sys.stderr)

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(ledger, indent=1) + "\n")

    print(f"{'workload':<14} {'metric':<24} {'median':>12} {'spread':>8}")
    for w in workloads:
        timed = [r for r in ledger["workloads"][w]["runs"] if not r["trace"]]
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]] for r in timed
                      if m["name"] in r["metrics"]]
            if values:
                med, s = spread(values)
                print(f"{w:<14} {m['name']:<24} {med:>12.6g} {s:>8.2%}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
