#!/usr/bin/env python3
"""Compare two performance ledgers written by run_ledger.py.

    python3 bench/ledger/bench_diff.py OLD.json NEW.json

One row per (workload, end-to-end metric): each side's median and
quartiles over its timed runs, the change of the medians, and a verdict
against the metric's bound from OLD:

  unresolved  either side's quartile spread, (q3 - q1) / median, is
              wider than the bound (reported better instead when every
              NEW run beats every OLD run);
  worse       NEW's median is worse than OLD's by more than the bound;
  better      NEW's median is better by more than OLD's own spread and
              NEW wins at least 9 in 10 of the runs paired by set;
  unchanged   otherwise.

Metric rows use the runs whose every check passed.  Before them, one
row per workload and side counts runs, incorrect runs, attempted and
failed operations; a workload is `worse` there when any NEW run is
incorrect or NEW fails a larger share of its operations than OLD.  A
workload with no correct NEW run gets `worse` on every metric row.

Per-layer metrics of the traced runs follow, when both ledgers have
them, as medians and change only (they carry no bound; a layer the
workload does not exercise reads 0 and shows no change).

Refuses (exit 2) to compare ledgers whose workload parameters differ,
or whose input hashes differ for a (workload, seed) both ran, or that
share no seed for a workload.  Exit 1 when any row is `worse`, else 0.
Standard library only.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), quartiles as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def runs(ledger: dict, workload: str, traced: bool) -> list[dict]:
    return [r for r in ledger["workloads"][workload]["runs"]
            if r["trace"] == traced and r["correct"]]


def failures(ledger: dict, workload: str) -> tuple[int, int, int, int]:
    """(runs, incorrect runs, attempted, failed) over all of a workload's
    runs, timed and traced."""
    rs = ledger["workloads"][workload]["runs"]
    return (len(rs), sum(1 for r in rs if not r["correct"]),
            sum(r["attempted"] for r in rs), sum(r["failed"] for r in rs))


def failure_verdict(old: tuple, new: tuple) -> str:
    _, _, old_att, old_fail = old
    _, new_bad, new_att, new_fail = new
    if new_bad or new_att == 0:
        return "worse"
    old_share = old_fail / old_att if old_att else 0.0
    return "worse" if new_fail / new_att > old_share else "ok"


def check_comparable(old: dict, new: dict, workloads: list[str]) -> list[str]:
    problems = []
    for w in workloads:
        if old["workloads"][w]["params"] != new["workloads"][w]["params"]:
            problems.append(f"{w}: workload parameters differ")
        # A run that died before printing its hash counts as a failure
        # below, not as an input change.
        hashes = {r["seed"]: r["input_hash"]
                  for r in old["workloads"][w]["runs"] if r["input_hash"]}
        common = [r for r in new["workloads"][w]["runs"]
                  if r["seed"] in hashes and r["input_hash"]]
        if not common:
            problems.append(f"{w}: no seed in common, inputs cannot be matched")
        for r in common:
            if r["input_hash"] != hashes[r["seed"]]:
                problems.append(f"{w}: seed {r['seed']} input hash "
                                f"{hashes[r['seed']]} -> {r['input_hash']}")
    return problems


def verdict(metric: dict, old_runs: list[dict], new_runs: list[dict]) -> tuple:
    name = metric["name"]
    sign = 1.0 if metric["better"] == "lower" else -1.0
    old_v = [r["metrics"][name] for r in old_runs]
    new_v = [r["metrics"][name] for r in new_runs]
    oq, nq = quartiles(old_v), quartiles(new_v)
    change = (nq[1] - oq[1]) / oq[1] if oq[1] else 0.0
    old_spread = (oq[2] - oq[0]) / oq[1] if oq[1] else 0.0
    new_spread = (nq[2] - nq[0]) / nq[1] if nq[1] else 0.0
    bound = metric["bound"]
    all_better = max(sign * v for v in new_v) < min(sign * v for v in old_v)
    by_set = {r["set"]: r["metrics"][name] for r in old_runs}
    pairs = [(by_set[r["set"]], r["metrics"][name]) for r in new_runs
             if r["set"] in by_set]
    wins = sum(1 for o, n in pairs if sign * n < sign * o)
    if max(old_spread, new_spread) > bound:
        result = "better" if all_better else "unresolved"
    elif sign * change > bound:
        result = "worse"
    elif -sign * change > old_spread and pairs and wins >= 0.9 * len(pairs):
        result = "better"
    else:
        result = "unchanged"
    return oq, nq, change, result


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    old = json.loads(Path(sys.argv[1]).read_text())
    new = json.loads(Path(sys.argv[2]).read_text())
    workloads = [w for w in old["workloads"] if w in new["workloads"]]
    problems = check_comparable(old, new, workloads)
    if problems:
        print("refusing to compare:", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 2

    worse = 0
    print(f"{'workload':<14} {'side':<4} {'runs':>5} {'incorrect':>9} "
          f"{'attempted':>9} {'failed':>7}  verdict")
    for w in workloads:
        of, nf = failures(old, w), failures(new, w)
        result = failure_verdict(of, nf)
        worse += result == "worse"
        for side, counts in (("old", of), ("new", nf)):
            print(f"{w:<14} {side:<4} {counts[0]:>5} {counts[1]:>9} "
                  f"{counts[2]:>9} {counts[3]:>7}"
                  f"{'  ' + result if side == 'new' else ''}")

    print(f"\n{'workload':<14} {'metric':<36} {'old q1/med/q3':>30} "
          f"{'new q1/med/q3':>30} {'change':>8}  verdict")
    for w in workloads:
        old_runs, new_runs = runs(old, w, False), runs(new, w, False)
        for metric in old["end_to_end"]:
            if not new_runs or not old_runs:
                result = ("worse (no correct new run)" if not new_runs
                          else "unresolved (no correct old run)")
                worse += not new_runs
                print(f"{w:<14} {metric['name']:<36} {'':>30} {'':>30} "
                      f"{'':>8}  {result}")
                continue
            oq, nq, change, result = verdict(metric, old_runs, new_runs)
            worse += result == "worse"
            print(f"{w:<14} {metric['name']:<36} "
                  f"{'/'.join(f'{v:.4g}' for v in oq):>30} "
                  f"{'/'.join(f'{v:.4g}' for v in nq):>30} "
                  f"{change:>+8.1%}  {result}")

    layered = False
    for w in workloads:
        old_runs, new_runs = runs(old, w, True), runs(new, w, True)
        if not old_runs or not new_runs:
            continue
        if not layered:
            print(f"\n{'workload':<14} {'per-layer metric':<36} "
                  f"{'old median':>12} {'new median':>12} {'change':>8}")
            layered = True
        names = [m["name"] for m in old["per_layer"]] + ["trace_overhead_frac"]
        for name in names:
            ov = [r["metrics"][name] for r in old_runs if name in r["metrics"]]
            nv = [r["metrics"][name] for r in new_runs if name in r["metrics"]]
            if not ov or not nv:
                continue
            om, nm = statistics.median(ov), statistics.median(nv)
            change = f"{(nm - om) / abs(om):+8.1%}" if om else f"{'n/a':>8}"
            print(f"{w:<14} {name:<36} {om:>12.4g} {nm:>12.4g} {change}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
