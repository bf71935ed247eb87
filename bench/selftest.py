"""Fast self-test of the benchmark (about 15 s).

    python3 bench/selftest.py

1. Runs every workload at a tiny size through ``run.py``, untraced and
   traced, and checks that the result line is well formed, that every metric
   named in BENCHMARK.json is printed by name with its unit, and that no
   operation failed.
2. Feeds the output checks a deliberately corrupted result for each workload
   (a world that did not quiesce, a dropped delivery, a trace that no longer
   checks clean) and checks that the failure is counted.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from run import load_spec  # noqa: E402
from securecast import simnet  # noqa: E402


def check_runs(spec: dict):
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=170)
            assert proc.returncode == 0, (workload, trace, proc.stderr)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, result.keys()
            assert result["correct"] is True, (workload, trace)
            assert result["attempted"] >= 1 and result["failed"] == 0
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == wanted, (workload, trace, set(got) ^ set(wanted))
            for name, unit in wanted.items():
                value = result["metrics"][name]["value"]
                assert isinstance(value, (int, float)), (name, value)
                if key == "end_to_end":
                    assert value > 0, (workload, name, value)
                assert any(line.split()[1:2] == [name]
                           and line.split()[3:4] == [unit]
                           for line in lines[:-1]), (workload, name)
            print(f"ok  {workload} --trace {trace}: {len(wanted)} metrics")


def check_corruption():
    workdir = os.path.join(ROOT, ".bench_work")

    mc = workloads.make("mc-act-n31", 3, True, workdir)
    report = simnet.run_world(replace(mc.config, seed=7))
    unit = workloads.Unit()
    mc.check_world(report, unit)
    assert unit.failed == 0
    report.quiescent = False
    mc.check_world(report, unit)
    assert unit.failed == 1, "a world that did not quiesce must fail"
    assert not workloads.c3_rule_holds(attacked=1000, conflicts=500,
                                       bound=0.14)
    print("ok  mc-act-n31: a non-quiescent world and a conflict rate "
          "above the C3 bound are caught")

    large = workloads.make("large-act-n1000", 3, True, workdir)
    report = simnet.run_world(large.config)
    unit = workloads.Unit()
    large.check_world(report, unit)
    assert unit.failed == 0 and unit.attempted == report.messages_multicast
    slots = next(iter(report.delivered_digests.values()))
    next(iter(slots.values())).pop()           # one correct process misses it
    large.check_world(report, unit)
    assert unit.failed == 1, "a dropped delivery must fail its message"
    print("ok  large-act-n1000: a dropped delivery counts as failed")

    traced = workloads.make("traced-3t-n100", 3, True, workdir)

    def drop_first_delivery(path):
        with open(path) as fh:
            lines = fh.readlines()
        first = next(i for i, line in enumerate(lines)
                     if line.split(" ", 2)[1] == "appdlv")
        with open(path, "w") as fh:
            fh.writelines(lines[:first] + lines[first + 1:])

    try:
        clean = traced.run_unit(0)
        assert clean.failed == 0 and clean.attempted >= 1
        broken = traced.run_unit(0, corrupt=drop_first_delivery)
        assert broken.failed == broken.attempted, \
            "a trace that does not check clean must fail every message"
    finally:
        traced.close()
    print("ok  traced-3t-n100: a non-clean trace-check counts as failed")


def main() -> int:
    spec = load_spec()
    check_corruption()
    check_runs(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
