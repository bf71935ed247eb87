"""One benchmark process: runs one workload in a fresh interpreter.

A fresh interpreter per measurement keeps peak RSS per process and starts
the program's module-level ``lru_cache``s cold, as a user's run does.
``run.py`` starts this file; it is not meant to be run by hand.

Modes:

* ``setup``: do the set-up and print the clock reading at which the first
  timed operation would start.
* ``measure``: untraced; run units until the next one would end after
  ``--seconds``, then print the end-to-end figures.
* ``traced``: the same with the tracer installed; print the span aggregates.
* ``replay``: untraced; run exactly ``--units`` units, the work a traced run
  did, so the two wall times give the tracing overhead.

The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
WORKDIR = os.path.join(ROOT, ".bench_work")


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _run_units(workload, seconds: float, units: int | None, after_unit=None):
    """Run units until the next one is predicted to end past ``seconds``
    (at least one), or exactly ``units`` of them when that is given.
    ``after_unit`` runs between units, outside their timing.  Returns the
    units and the peak RSS once the workload's prefix of worlds is done."""
    done = []
    worlds = 0
    prefix_rss_kb = None
    start = time.perf_counter()
    while True:
        u_start = time.perf_counter()
        unit = workload.run_unit(len(done))
        unit.wall_s = time.perf_counter() - u_start
        done.append(unit)
        worlds += unit.worlds
        if prefix_rss_kb is None and worlds >= workload.prefix_worlds:
            prefix_rss_kb = _peak_rss_kb()
        if after_unit is not None:
            after_unit()
        if units is not None:
            if len(done) >= units:
                break
            continue
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(done) > seconds:
            break
    return done, prefix_rss_kb or _peak_rss_kb()


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--mode", required=True,
                   choices=("setup", "measure", "traced", "replay"))
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--units", type=int)
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)

    import workloads

    tracer = None
    if args.mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    workload = workloads.make(args.workload, args.seed, args.tiny, WORKDIR)
    first_op_at = time.perf_counter()
    if args.mode == "setup":
        print(json.dumps({"first_op_at": first_op_at}))
        return 0

    try:
        units, peak_rss_kb = _run_units(
            workload, args.seconds, args.units,
            tracer.collect if tracer is not None else None)
        workload.finish()
    finally:
        workload.close()

    result = {
        "first_op_at": first_op_at,
        "wall_s": sum(u.wall_s for u in units),
        "units": [{k: v for k, v in vars(u).items() if k != "world_ms"}
                  for u in units],
        "world_ms": [ms for u in units for ms in u.world_ms],
        "run_ok": workload.run_ok,
        "sim_stats": workload.sim_stats,
        "peak_rss_kb": peak_rss_kb,
    }
    if tracer is not None:
        result["spans"] = tracer.agg
        result["root_s"] = tracer.root_s
        result["queue_hwm"] = tracer.queue_hwm
        result["deliver_useful"] = tracer.deliver_useful
        result["records"] = tracer.records
        result["world_stats"] = tracer.world_stats
        os.makedirs(WORKDIR, exist_ok=True)
        tracer.dump(os.path.join(
            WORKDIR, f"spans-{args.workload}-seed{args.seed}.tsv"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
