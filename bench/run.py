"""securecast benchmark: one workload per run, or every workload at once.

    python3 bench/run.py --workload mc-act-n31 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --all [--runs N] [--out results.json]
    python3 bench/run.py --compare parent.json change.json

A single run prints one line per metric (name, value, unit) and, as its last
line, the JSON result ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics, taken
from a separate traced process.  ``--all`` runs every workload untraced and
then traced, so the summary shows each metric by name and unit; ``--out``
keeps the results for ``--compare``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

ROLES = ("regular", "ack", "deliver", "inform", "verify", "alert", "sm_notify")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 30
SETUP_SAMPLES = 9        # fresh interpreters whose set-up time is taken
RUN_LIMIT_S = 170       # a run, all its workers included, ends within this


class BenchError(Exception):
    pass


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def percentile(values, q):
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def spawn(mode: str, workload: str, seed: int, seconds: float, tiny: bool,
          deadline: float, units: int | None = None) -> tuple[float, dict]:
    """Run one worker in a fresh interpreter; return (spawn time, result).
    The worker is killed if it is still running at ``deadline``."""
    cmd = [sys.executable, WORKER, "--mode", mode, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    if units is not None:
        cmd += ["--units", str(units)]
    if tiny:
        cmd.append("--tiny")
    # A fixed hash seed keeps dict and set layout, and with it the timing,
    # the same from one process to the next.
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned_at = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - spawned_at, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} {mode} worker timed out")
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} worker exited with "
                         f"{proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} {mode} worker printed no result")
    return spawned_at, json.loads(lines[-1])


def end_to_end(workload: str, seed: int, seconds: float, tiny: bool,
               deadline: float) -> dict:
    """Untraced run: the end-to-end metrics."""
    spawned_at, res = spawn("measure", workload, seed, seconds, tiny, deadline)
    setups = [res["first_op_at"] - spawned_at]
    for _ in range(SETUP_SAMPLES - 1):
        at, probe = spawn("setup", workload, seed, seconds, tiny, deadline)
        setups.append(probe["first_op_at"] - at)

    units = res["units"]
    world_ms = res["world_ms"]
    metrics = {
        "setup_s": (median(setups), "s"),
        "worlds_per_s": (median([u["worlds"] / u["wall_s"] for u in units]),
                         "1/s"),
        "world_ms_p50": (median(world_ms), "ms"),
        "msgs_per_s": (median([u["msgs"] / u["sim_s"] for u in units]), "1/s"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024.0, "MB"),
    }
    # p99 is printed, not gated: the two large-world workloads finish fewer
    # than ten worlds a run, so there it is the maximum, not a tail.
    info = {"world_ms_p99": percentile(world_ms, 99),
            "world_samples": len(world_ms), "units": len(units),
            "sim": res["sim_stats"]}
    checked = [u for u in units if u["check_s"] > 0]
    if checked:
        info["check_msgs_per_s"] = median(
            [u["msgs"] / u["check_s"] for u in checked])
    return _result(res, metrics, info)


def per_layer(workload: str, seed: int, seconds: float, tiny: bool,
              deadline: float) -> dict:
    """Traced run, then an untraced replay of the same units.  The traced
    process gets half the time, so the pair takes about one run's time."""
    _, res = spawn("traced", workload, seed, seconds / 2, tiny, deadline)
    units = res["units"]
    _, replay = spawn("replay", workload, seed, seconds, tiny, deadline,
                      units=len(units))
    spans = res["spans"]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    msgs = sum(u["msgs"] for u in units)
    replay_sim_s = sum(u["sim_s"] for u in replay["units"])
    steps = calls("simnet.step")
    deliver_calls = calls("protocols.handle.deliver")
    ws = res["world_stats"]
    m = {}

    def count(name, value):
        m[name] = (value, "count")

    def secs(name):
        m[name + ".self_s"] = (self_s(name), "s")

    count("simnet.world_build.calls", calls("simnet.world_build"))
    secs("simnet.world_build")
    count("simnet.step.calls", steps)
    secs("simnet.step")
    m["simnet.events_per_s"] = (steps / replay_sim_s, "1/s")
    count("simnet.queue_hwm", res["queue_hwm"])
    m["simnet.events_per_msg"] = (steps / msgs if msgs else 0.0, "count")
    count("simnet.stability_oracle_tick.calls",
          calls("simnet.stability_oracle_tick"))
    secs("simnet.stability_oracle_tick")
    count("simnet.trace_lines", ws["trace_lines"])
    secs("simnet.write_trace")
    count("simnet.retransmits", ws["retransmits"])
    for role in ROLES:
        count(f"protocols.handle.{role}.calls",
              calls(f"protocols.handle.{role}"))
        secs(f"protocols.handle.{role}")
    m["protocols.handle.deliver.useful_ratio"] = (
        res["deliver_useful"] / deliver_calls if deliver_calls else 0.0,
        "ratio")
    for name in ("protocols.on_timer", "protocols.wan_multicast",
                 "adversary.act", "core.sign", "core.verify",
                 "core.valid_signers", "core.ack_valid", "quorum.w3t",
                 "quorum.w_active", "quorum.sample_peers"):
        count(name + ".calls", calls(name))
        secs(name)
    count("protocols.state_entries", ws["state_entries"])
    count("core.message_digest.calls", calls("core.message_digest"))
    count("quorum.sample_witness_subset.calls",
          calls("quorum.sample_witness_subset"))
    secs("analysis.monte_carlo_conflict_rate")
    count("analysis.overall_conflict_bound.calls",
          calls("analysis.overall_conflict_bound"))
    secs("tracecheck.parse_trace")
    secs("tracecheck.check_trace")
    count("tracecheck.records", res["records"])
    secs("cli.simulate")
    secs("cli.trace_check")
    m["trace_overhead"] = (res["wall_s"] / replay["wall_s"], "ratio")
    m["unattributed_s"] = (max(res["wall_s"] - res["root_s"], 0.0), "s")
    for key, value in res["sim_stats"].items():
        count(f"sim.{key}", value)
    info = {"units": len(units), "traced_wall_s": res["wall_s"],
            "untraced_wall_s": replay["wall_s"]}
    return _result(res, m, info)


def _result(res: dict, metrics: dict, info: dict) -> dict:
    attempted = sum(u["attempted"] for u in res["units"])
    failed = sum(u["failed"] for u in res["units"])
    return {
        "correct": bool(res["run_ok"]) and failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": info,
    }


def run_one(spec: dict, workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT_S
    if trace:
        result = per_layer(workload, seed, seconds, tiny, deadline)
        wanted = spec["per_layer"]
    else:
        result = end_to_end(workload, seed, seconds, tiny, deadline)
        wanted = spec["end_to_end"]
    names = [m["name"] for m in wanted]
    missing = set(names) ^ set(result["metrics"])
    if missing:
        raise BenchError(f"metrics do not match BENCHMARK.json: {sorted(missing)}")
    result["metrics"] = {n: result["metrics"][n] for n in names}
    return result


def print_run(workload: str, seed: int, result: dict):
    att, fail = result["attempted"], result["failed"]
    print(f"# {workload} seed={seed} correct={str(result['correct']).lower()}")
    for name, m in result["metrics"].items():
        print(f"{workload}  {name:44s} {m['value']:>16.6g} {m['unit']}")
    print(f"{workload}  {'fail_ratio':44s} {fail / att if att else 1.0:>16.6g}"
          f" ratio ({fail}/{att})")
    for key, value in result["info"].items():
        print(f"{workload}  info.{key} = {value}")


def main(argv=None) -> int:
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=workloads)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true",
                   help="run every workload, untraced then traced")
    p.add_argument("--runs", type=int, default=1,
                   help="with --all: untraced runs per workload, seeds "
                        "seed, seed+1, ...")
    p.add_argument("--out", help="with --all: write the results here")
    p.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    p.add_argument("--tiny", action="store_true",
                   help="tiny worlds, for the self-test")
    args = p.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "securecast")):
        print("securecast sources not found under src/", file=sys.stderr)
        return 2
    if args.compare:
        from compare import compare
        return compare(spec, *args.compare)

    try:
        if args.workload:
            result = run_one(spec, args.workload, args.seed, args.seconds,
                             bool(args.trace), args.tiny)
            print_run(args.workload, args.seed, result)
            result.pop("info")
            print(json.dumps(result))
            return 0
        if not args.all:
            p.error("give --workload, --all or --compare")
        collected = {"seconds": args.seconds, "workloads": {}}
        for workload in workloads:
            runs = []
            for i in range(args.runs):
                seed = args.seed + i
                result = run_one(spec, workload, seed, args.seconds, False,
                                 args.tiny)
                print_run(workload, seed, result)
                runs.append(dict(result, seed=seed))
            traced = run_one(spec, workload, args.seed, args.seconds, True,
                             args.tiny)
            print_run(workload, args.seed, traced)
            collected["workloads"][workload] = {"runs": runs,
                                                "traced": traced}
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(collected, fh, indent=1)
        return 0 if all(r["correct"] for w in collected["workloads"].values()
                        for r in w["runs"] + [w["traced"]]) else 1
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
