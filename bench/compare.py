"""Compare benchmark results from two commits.

    python3 bench/run.py --all --runs 10 --out parent.json    # on the parent
    python3 bench/run.py --all --runs 10 --out change.json    # on the change
    python3 bench/run.py --compare parent.json change.json

Run i of one file is paired with run i of the other (same seed).  Each row
gives, for one workload and end-to-end metric, each side's median and
quartiles, the share of pairs the change won (ties count for neither side)
and a verdict, using the bounds in BENCHMARK.json:

* regressed: the change's median is worse than the parent's by more than
  the bound.
* improved: the change won at least 9/10 of the pairs and the medians differ
  by more than the parent's interquartile range.
* unresolved: neither of the above, and the run-to-run spread (the wider
  side's interquartile range over its median) exceeds the bound, unless
  every run of the change reads better than every run of the parent.
* unchanged: otherwise.

``fail_ratio`` gets a row of its own per workload: a change that fails more
operations than the parent is regressed whatever its speed.
"""

from __future__ import annotations

import json
import statistics


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], higher_better: bool,
            bound: float) -> tuple[str, int, int]:
    """Return (verdict, pairs won by the change, pairs compared)."""
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    sign = 1.0 if higher_better else -1.0
    pairs = list(zip(parent, change))
    won = sum(1 for p, c in pairs if sign * (c - p) > 0)
    worse_by = sign * (pm - cm) / pm
    spread = max((p3 - p1) / pm, (c3 - c1) / cm)
    if higher_better:
        every_better = min(change) > max(parent)
    else:
        every_better = max(change) < min(parent)
    if worse_by > bound:
        return "regressed", won, len(pairs)
    if won >= 0.9 * len(pairs) and abs(cm - pm) > p3 - p1:
        return "improved", won, len(pairs)
    if spread > bound and not every_better:
        return "unresolved", won, len(pairs)
    return "unchanged", won, len(pairs)


def _fmt(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"


def compare(spec: dict, parent_path: str, change_path: str) -> int:
    with open(parent_path) as fh:
        parent = json.load(fh)["workloads"]
    with open(change_path) as fh:
        change = json.load(fh)["workloads"]
    print(f"{'workload':16s} {'metric':14s} {'parent median [q1, q3]':34s} "
          f"{'change median [q1, q3]':34s} {'won':>7s}  verdict")
    regressed = False
    for workload in parent:
        if workload not in change:
            print(f"{workload:16s} missing from {change_path}")
            continue
        p_runs = parent[workload]["runs"]
        c_runs = change[workload]["runs"]
        n = min(len(p_runs), len(c_runs))
        p_runs, c_runs = p_runs[:n], c_runs[:n]
        for m in spec["end_to_end"]:
            name = m["name"]
            pv = [r["metrics"][name]["value"] for r in p_runs]
            cv = [r["metrics"][name]["value"] for r in c_runs]
            v, won, total = verdict(pv, cv, m["better"] == "higher", m["bound"])
            regressed |= v == "regressed"
            print(f"{workload:16s} {name:14s} {_fmt(pv):34s} {_fmt(cv):34s} "
                  f"{won:>3d}/{total:<3d}  {v}")
        pf = sum(r["failed"] for r in p_runs)
        pa = sum(r["attempted"] for r in p_runs)
        cf = sum(r["failed"] for r in c_runs)
        ca = sum(r["attempted"] for r in c_runs)
        p_ratio, c_ratio = pf / pa, cf / ca
        v = "regressed" if c_ratio > p_ratio else (
            "improved" if c_ratio < p_ratio else "unchanged")
        regressed |= v == "regressed"
        print(f"{workload:16s} {'fail_ratio':14s} {p_ratio:<34.5g} "
              f"{c_ratio:<34.5g} {'':7s}  {v}")
    return 1 if regressed else 0
