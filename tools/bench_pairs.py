"""Same-host parent/change pairs of one benchmark workload.

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE \\
        --workload large-act-n1000 --pairs 10 [--seconds 30] [--seed 1]

Runs ``bench/run.py --workload W --trace 0`` in each tree in turn, N pairs
of runs, with the first of each pair alternating between the trees so that
neither always runs on a warmer or quieter host.  Then it prints, for every
end-to-end metric of the change tree's BENCHMARK.json, the median and
interquartile range (IQR) of each tree's runs, the ratio of the medians
(change / parent) and how many pairs the change won in the metric's better
direction, plus the failed operations of each tree.  Wall-time figures only
compare runs taken on one host, which is what a pair is.  ``--out F``
keeps every run's JSON result.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from statistics import median


def percentile(values, q):
    """Linear interpolation between closest ranks, as bench/run.py does."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run(tree: str, workload: str, seconds: float, seed: int) -> dict:
    """One untraced benchmark run in tree; its JSON result line."""
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload",
           workload, "--trace", "0", "--seconds", str(seconds),
           "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{tree}: bench/run.py exited with "
                         f"{proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summarize(spec: dict, parent: list[dict], change: list[dict]) -> str:
    out = [f"{'metric':14s} {'parent':>12s} {'IQR':>10s} {'change':>12s} "
           f"{'IQR':>10s} {'ratio':>7s} {'wins':>6s}"]
    for metric in spec["end_to_end"]:
        name = metric["name"]
        higher = metric["better"] == "higher"
        a = [r["metrics"][name]["value"] for r in parent]
        b = [r["metrics"][name]["value"] for r in change]
        wins = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
        ma, mb = median(a), median(b)
        out.append(
            f"{name:14s} {ma:12.6g} {percentile(a, 75) - percentile(a, 25):10.3g}"
            f" {mb:12.6g} {percentile(b, 75) - percentile(b, 25):10.3g}"
            f" {mb / ma if ma else float('nan'):7.3f} {wins:>3d}/{len(a)}")
    for label, runs in (("parent", parent), ("change", change)):
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        correct = all(r["correct"] for r in runs)
        out.append(f"{label}: {failed}/{attempted} operations failed, "
                   f"every run correct: {str(correct).lower()}")
    return "\n".join(out)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent", help="root of the parent tree")
    p.add_argument("change", help="root of the changed tree")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", help="write every run's result here as JSON")
    args = p.parse_args(argv)

    trees = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    with open(os.path.join(trees["change"], "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for label in order:
            res = run(trees[label], args.workload, args.seconds, args.seed)
            results[label].append(res)
        line = "  ".join(
            f"{label} " + " ".join(
                f"{k}={v['value']:.4g}"
                for k, v in results[label][-1]["metrics"].items())
            for label in ("parent", "change"))
        print(f"pair {i + 1}/{args.pairs}: {line}", flush=True)
    print(f"# {args.workload}, {args.pairs} pairs, {args.seconds:g} s runs, "
          f"seed {args.seed}")
    print(summarize(spec, results["parent"], results["change"]))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"workload": args.workload, "seconds": args.seconds,
                       "seed": args.seed, **results}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
