"""The three benchmark workloads, their output checks and their metrics.

Each workload turns the benchmark seed into securecast configurations and
runs them in timed *units* through the program's own public entry points,
looked up as module attributes so the tracer's patches apply:

* ``mc-act-n31``: a unit is a batch of ACT worlds run by
  ``analysis.monte_carlo_conflict_rate`` (the ``montecarlo --parallel 1``
  path), each world timed at ``simnet.run_world``.
* ``large-act-n1000``: a unit is one ``simnet.run_world`` of a long n=1000
  world.
* ``traced-3t-n100``: a unit is ``securecast simulate ... --trace-out F``
  followed by ``securecast trace-check F``, both through ``cli.main``.

World seeds are ``(seed << 32) + index``, so two benchmark seeds never share
a world and the same seed always yields the same worlds in the same order.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
import time
from dataclasses import replace

from securecast import analysis, cli, simnet
from securecast.analysis import AnalysisParams
from securecast.simnet import SimConfig

# Simulated statistics and peak RSS are taken over this many leading worlds
# of a run, so they do not depend on how many units the host finishes in the
# run's time: the statistics repeat exactly for a seed, and the program's
# lru_caches, which grow with every Monte Carlo world, are measured at the
# same fill.
PREFIX_WORLDS = {"mc-act-n31": 4000, "large-act-n1000": 1, "traced-3t-n100": 1}


def world_seed(seed: int, index: int) -> int:
    return (seed << 32) + index


# -- output checks -------------------------------------------------------------
# Pure functions of the program's outputs, so the self-test can feed them a
# corrupted result and see the failure counted.

def mc_world_failed(report) -> bool:
    """A Monte Carlo world fails unless it quiesced with one attacked id."""
    return not report.quiescent or report.attacked != 1


def c3_rule_holds(attacked: int, conflicts: int, bound: float) -> bool:
    """The C3 acceptance rule: conflict rate <= specific bound + 3 sigma."""
    if attacked == 0:
        return False
    margin = 3 * math.sqrt(bound * (1 - bound) / attacked)
    return conflicts / attacked <= bound + margin


def undelivered(delivered_digests: dict, correct: int, multicast: int) -> int:
    """Multicasts that not every correct process delivered with one digest."""
    full = sum(1 for slots in delivered_digests.values()
               if len(slots) == 1
               and len(next(iter(slots.values()))) == correct)
    return multicast - full


def cli_unit_failed(sim_rc: int, check_rc: int, check_out: str) -> bool:
    """Both commands must exit 0 and trace-check must print ``trace clean``."""
    return (sim_rc != 0 or check_rc != 0
            or "trace clean" not in check_out.splitlines())


_SIM_LINE = re.compile(
    r"messages=(\d+) deliveries=(\d+) conflicts=(\d+) alerts=(\d+) "
    r"quiescent=(true|false) ticks=(\d+)")


def parse_simulate_output(text: str) -> dict:
    m = _SIM_LINE.search(text)
    if m is None:
        raise ValueError(f"unrecognised simulate output: {text!r}")
    msgs, dlv, conf, alerts, quiet, ticks = m.groups()
    return {"messages": int(msgs), "deliveries": int(dlv),
            "conflicts": int(conf), "alerts": int(alerts),
            "quiescent": quiet == "true", "ticks": int(ticks)}


# -- workloads -------------------------------------------------------------------

class Unit:
    """What one timed unit did."""

    def __init__(self):
        self.worlds = 0
        self.msgs = 0
        self.sim_s = 0.0       # host seconds inside the simulator
        self.check_s = 0.0     # host seconds inside trace-check
        self.wall_s = 0.0      # host seconds of the whole unit
        self.world_ms: list[float] = []
        self.attempted = 0
        self.failed = 0


class Workload:
    name = ""

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.seed = seed
        self.sim_stats = {"ticks": 0, "deliveries": 0, "conflicts": 0,
                          "alerts": 0}
        self.prefix_worlds = PREFIX_WORLDS[self.name]
        self._stat_worlds = 0
        self.run_ok = True     # run-level rules, decided by finish()

    def _add_stats(self, ticks, deliveries, conflicts, alerts):
        if self._stat_worlds < self.prefix_worlds:
            self._stat_worlds += 1
            s = self.sim_stats
            s["ticks"] += ticks
            s["deliveries"] += deliveries
            s["conflicts"] += conflicts
            s["alerts"] += alerts

    def _timed_run_world(self, unit: Unit):
        """Time each world at ``simnet.run_world``.  The timer is installed
        on the module, where ``run_trial_batch`` looks the function up."""
        inner = simnet.run_world

        def timed(config):
            start = time.perf_counter()
            report = inner(config)
            dur = time.perf_counter() - start
            unit.world_ms.append(dur * 1e3)
            unit.sim_s += dur
            unit.worlds += 1
            unit.msgs += report.messages_multicast
            self._add_stats(report.elapsed, report.total_deliveries(),
                            report.conflicts, report.alerts_raised)
            self.check_world(report, unit)
            return report

        return inner, timed

    def run_unit(self, index: int) -> Unit:
        raise NotImplementedError

    def check_world(self, report, unit: Unit):
        raise NotImplementedError

    def finish(self):
        """Apply run-level rules once every unit has run."""

    def close(self):
        """Remove what the workload wrote."""


class MonteCarloAct(Workload):
    name = "mc-act-n31"

    def __init__(self, seed: int, tiny: bool, workdir: str):
        super().__init__(seed, tiny, workdir)
        self.batch = 5 if tiny else 50
        self.config = SimConfig(protocol="act", n=31, t=10, kappa=3, delta=5,
                                adversary="regime-split", messages=1,
                                record_trace=False, stability=False)
        self.config.validate()
        self.attacked = 0
        self.conflicts = 0

    def run_unit(self, index: int) -> Unit:
        unit = Unit()
        cfg = replace(self.config,
                      seed=world_seed(self.seed, index * self.batch))
        inner, timed = self._timed_run_world(unit)
        simnet.run_world = timed
        try:
            result = analysis.monte_carlo_conflict_rate(cfg, self.batch)
        finally:
            simnet.run_world = inner
        self.attacked += result.attacked
        self.conflicts += result.conflicts
        return unit

    def check_world(self, report, unit: Unit):
        unit.attempted += 1
        unit.failed += mc_world_failed(report)

    def finish(self):
        c = self.config
        bound = analysis.overall_conflict_bound(
            AnalysisParams(c.n, c.t, c.kappa, c.delta)).specific
        self.run_ok = c3_rule_holds(self.attacked, self.conflicts, bound)


class LargeAct(Workload):
    name = "large-act-n1000"

    def __init__(self, seed: int, tiny: bool, workdir: str):
        super().__init__(seed, tiny, workdir)
        self.config = SimConfig(protocol="act", n=1000, t=100, kappa=4,
                                delta=10, adversary="silent", num_faulty=10,
                                messages=2 if tiny else 100,
                                record_trace=False, stability=False)
        self.config.validate()

    def run_unit(self, index: int) -> Unit:
        unit = Unit()
        inner, timed = self._timed_run_world(unit)
        timed(replace(self.config, seed=world_seed(self.seed, index)))
        return unit

    def check_world(self, report, unit: Unit):
        unit.attempted += report.messages_multicast
        unit.failed += undelivered(report.delivered_digests,
                                   report.n - len(report.faulty),
                                   report.messages_multicast)
        if report.conflicts or not report.quiescent:
            self.run_ok = False


class TracedThreeT(Workload):
    name = "traced-3t-n100"

    def __init__(self, seed: int, tiny: bool, workdir: str):
        super().__init__(seed, tiny, workdir)
        self.messages = 2 if tiny else 10
        os.makedirs(workdir, exist_ok=True)
        self.trace_path = os.path.join(workdir, f"{self.name}-{os.getpid()}.trace")
        # The world is captured only to count per-message deliveries.
        self._worlds: list = []
        inner = cli.build_world

        def capture(config):
            world = inner(config)
            self._worlds.append(world)
            return world

        cli.build_world = capture

    def argv(self, index: int) -> list[str]:
        return ["simulate", "--protocol", "3t", "--n", "100", "--t", "10",
                "--adversary", "crash", "--drop-prob", "0.1",
                "--messages", str(self.messages),
                "--seed", str(world_seed(self.seed, index)),
                "--trace-out", self.trace_path]

    def run_unit(self, index: int, corrupt=None) -> Unit:
        """``corrupt``, if given, edits the trace file between the two
        commands; the self-test uses it."""
        unit = Unit()
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            sim_rc = cli.main(self.argv(index))
        sim_end = time.perf_counter()
        world = self._worlds.pop()
        sim_out = out.getvalue()
        if corrupt is not None:
            corrupt(self.trace_path)
        out = io.StringIO()
        check_start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            check_rc = cli.main(["trace-check", self.trace_path])
        check_end = time.perf_counter()
        os.remove(self.trace_path)

        unit.worlds = 1
        unit.sim_s = sim_end - start
        unit.check_s = check_end - check_start
        unit.world_ms.append(unit.sim_s * 1e3)
        stats = parse_simulate_output(sim_out)
        unit.msgs = stats["messages"]
        unit.attempted = stats["messages"]
        if cli_unit_failed(sim_rc, check_rc, out.getvalue()) \
                or not stats["quiescent"]:
            unit.failed = unit.attempted
        else:
            unit.failed = undelivered(world.delivered_digests,
                                      world.config.n - len(world.faulty),
                                      stats["messages"])
        self._add_stats(stats["ticks"], stats["deliveries"],
                        stats["conflicts"], stats["alerts"])
        return unit

    def close(self):
        if os.path.exists(self.trace_path):
            os.remove(self.trace_path)


WORKLOADS = {w.name: w for w in (MonteCarloAct, LargeAct, TracedThreeT)}


def make(name: str, seed: int, tiny: bool, workdir: str) -> Workload:
    return WORKLOADS[name](seed, tiny, workdir)
