"""Closed-form failure-probability and load formulas, exact combinatorial
counterparts, and Monte Carlo estimators that cross-validate both against
the simulator.

Two worked guarantee levels quoted in the literature for these protocols
(0.95 at n=100, t=10, kappa=3, delta=5 and 0.998 at n=1000, t=100,
kappa=4, delta=10) do not match the bound they accompany; the formulas
below give detection probabilities of about 0.887 and 0.983 for those
parameter choices.  This module reports the formula-derived values.

With slack C the all-faulty term of the conflict bound is the exact chance
that the faulty active witnesses alone meet the active count,
P[|W_active ∩ F| >= max(|W_active| - C, 1)] over the sampler's kappa draws
with replacement: (t/n)^kappa at C = 0, and above the binomial tail
P[>= kappa - C faulty draws] otherwise, as repeats shrink W_active.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from .quorum import (InvalidParamsError, dissemination_quorum_size,
                     witness_quorum_size)


@dataclass(frozen=True)
class AnalysisParams:
    n: int
    t: int
    kappa: int = 0
    delta: int = 0
    slack_c: int = 0

    # A wider domain than the simulator's (SimConfig, check_act_params): the
    # closed forms are defined at t = 0 and without n - t >= kappa*delta, and
    # analyze and sweep report such points.
    def __post_init__(self):
        if self.n < 1:
            raise InvalidParamsError(f"n must be >= 1, got {self.n}", "n")
        for name in ("t", "kappa", "delta", "slack_c"):
            if getattr(self, name) < 0:
                raise InvalidParamsError(
                    f"{name} must be >= 0, got {getattr(self, name)}", name)
        # The closed forms only need the resilience ratio t <= n/3; the
        # stricter 3t+1 <= n matters where a witness range must exist and
        # is enforced by QuorumParams.
        if 3 * self.t > self.n:
            raise InvalidParamsError(
                f"need t <= n/3, got n={self.n} t={self.t}")
        if self.kappa > self.n:
            raise InvalidParamsError(f"kappa={self.kappa} exceeds n={self.n}")
        if self.delta > 3 * self.t:
            raise InvalidParamsError(
                f"delta={self.delta} exceeds 3t={3 * self.t} probe candidates")
        if self.slack_c > self.kappa:
            raise InvalidParamsError(
                f"slack C={self.slack_c} exceeds kappa={self.kappa}")


class FaultyActiveSet(NamedTuple):
    independent: float  # (t/n)^kappa, the model used by the sampler
    exact_distinct: float  # C(t,kappa)/C(n,kappa), without replacement


class ConflictBound(NamedTuple):
    specific: float    # pf + (1-pf) (2t/(3t+1))^d, pf = (t/n)^k at C=0
    worst_case: float  # the same with t/n = 1/3


class PKappaC(NamedTuple):
    exact: float
    bound: float


def p_faulty_active_set(params: AnalysisParams) -> FaultyActiveSet:
    """Probability that an entire active witness set is faulty."""
    n, t, k = params.n, params.t, params.kappa
    independent = (t / n) ** k
    if k <= t:
        exact = float(Fraction(math.comb(t, k), math.comb(n, k)))
    else:
        exact = 0.0
    return FaultyActiveSet(independent, exact)


def probe_miss_probability(params: AnalysisParams) -> float:
    """Chance that delta probes all avoid the correct members of a 2t+1
    recovery set inside the 3t+1 witness range (with-replacement model)."""
    t, d = params.t, params.delta
    if d == 0:
        return 1.0
    return (2 * t / (3 * t + 1)) ** d


def probe_miss_exact(params: AnalysisParams) -> float:
    """Hypergeometric miss probability for the production sampler.

    The sampler draws delta distinct peers from the 3t+1 range minus the
    prober itself; the recovery set holds t+1 correct members.  Sampling
    without replacement can only lower the miss chance, so this is always
    <= the with-replacement bound.
    """
    t, d = params.t, params.delta
    pool = 3 * t
    correct = t + 1
    if d == 0:
        return 1.0
    if d > pool:
        raise InvalidParamsError(f"delta={d} exceeds pool {pool}")
    return float(Fraction(math.comb(pool - correct, d), math.comb(pool, d)))


def p_faulty_meet_active(n: int, rho: float, k: int, c: int) -> float:
    """P[|W ∩ F| >= max(|W| - c, 1)] for W the distinct values of k uniform
    draws from n processes, each faulty with probability rho: some draw is
    faulty and at most c distinct correct ones are drawn."""
    # p[j][f]: j distinct correct processes drawn so far, f = a faulty one was
    p = [[1.0, 0.0]] + [[0.0, 0.0] for _ in range(c)]
    for _ in range(k):
        nxt = [[0.0, 0.0] for _ in range(c + 1)]
        for j in range(c + 1):
            for f in (0, 1):
                x = p[j][f]
                nxt[j][1] += x * rho
                nxt[j][f] += x * j / n
                if j < c:  # a new correct process; beyond c the event fails
                    nxt[j + 1][f] += x * (1 - rho - j / n)
        p = nxt
    return rho ** k + sum(p[j][1] for j in range(1, c + 1))


def overall_conflict_bound(params: AnalysisParams) -> ConflictBound:
    """Probability that a conflicting message pair is deliverable at all:
    the faulty active witnesses meet the active count on their own, plus
    probe miss when they do not."""
    n, t, k, d = params.n, params.t, params.kappa, params.delta
    pf = p_faulty_meet_active(n, t / n, k, params.slack_c)
    miss = probe_miss_probability(params)
    worst_pf = p_faulty_meet_active(n, 1 / 3, k, params.slack_c)
    worst_miss = (2 / 3) ** d if d > 0 else 1.0
    return ConflictBound(pf + (1 - pf) * miss,
                         worst_pf + (1 - worst_pf) * worst_miss)


def p_kappa_c(params: AnalysisParams) -> PKappaC:
    """Chance that kappa-C of kappa random processes are faulty, under the
    worst-case one-third-faulty split, with its closed-form upper bound.

    For n not divisible by 3 the faulty side is floor(n/3); the remaining
    processes are correct.
    """
    n, k, c = params.n, params.kappa, params.slack_c
    if c > k:
        raise InvalidParamsError(f"C={c} exceeds kappa={k}")
    f = n // 3
    total = math.comb(n, k)
    acc = Fraction(0)
    for j in range(c + 1):
        acc += Fraction(math.comb(f, k - j) * math.comb(n - f, j), total)
    exact = float(acc)
    if c == 0:
        bound = (1 / 3) ** k
    elif k == n:
        bound = math.inf    # the closed form's limit as kappa reaches n
    else:
        bound = (k * n / (c * (n - k))) ** c * (1 / 3) ** (k - c)
    assert exact <= bound + 1e-12, (exact, bound, params)
    return PKappaC(exact, bound)


def failure_free_load(protocol: str, params: AnalysisParams) -> float:
    """Busiest-process access fraction in faultless runs.

    The E figure q/n is an extension beyond the published formulas: it is
    the minimal contact set, while the E protocol as specified contacts
    every process. Callers should label it accordingly.
    """
    n = params.n
    p = protocol.lower()
    if p == "3t":
        return witness_quorum_size(params) / n
    if p == "act":
        return params.kappa * (params.delta + 1) / n
    if p == "e":
        return dissemination_quorum_size(params) / n
    raise InvalidParamsError(f"unknown protocol {protocol!r}")


def failure_load_bound(protocol: str, params: AnalysisParams) -> float:
    """Busiest-process access fraction bound when failures occur."""
    n, t = params.n, params.t
    p = protocol.lower()
    if p == "3t":
        return (3 * t + 1) / n
    if p == "act":
        return (params.kappa * (params.delta + 1) + 3 * t + 1) / n
    if p == "e":
        return 1.0
    raise InvalidParamsError(f"unknown protocol {protocol!r}")


class MonteCarloResult(NamedTuple):
    estimate: float
    ci_low: float
    ci_high: float
    attacked: int
    conflicts: int
    warning: Optional[str]


def binomial_ci(successes: int, trials: int, sigmas: float = 3.0) -> tuple[float, float]:
    """Normal-approximation confidence interval for a binomial proportion."""
    if trials == 0:
        return (0.0, 1.0)
    p = successes / trials
    half = sigmas * math.sqrt(max(p * (1 - p), 0.0) / trials)
    return (max(0.0, p - half), min(1.0, p + half))


def monte_carlo_conflict_rate(config, trials: int, parallel: int = 1,
                              bound: Optional[float] = None) -> MonteCarloResult:
    """Run independent seeded worlds and estimate the conflicting-id rate.

    Each trial derives its seeds from the base config seed plus the trial
    index; results are aggregated by count, so the estimate does not depend
    on worker scheduling.  When no message was attacked the estimate says
    nothing, and the warning says so.
    """
    from .simnet import run_trial_batch

    attacked, conflicts = run_trial_batch(config, trials, parallel)
    est = conflicts / attacked if attacked else 0.0
    lo, hi = binomial_ci(conflicts, attacked) if attacked else (0.0, 1.0)
    warning = None
    if not attacked:
        warning = "no message was attacked, so the estimate tests nothing"
    elif bound is not None:
        # Width the interval would have at the bound itself: if that alone
        # exceeds the bound, the sample cannot resolve the question.
        width_at_bound = 6.0 * math.sqrt(bound * (1 - bound) / attacked)
        if max(hi - lo, width_at_bound) > bound:
            warning = (f"insufficient trials: 3-sigma interval width "
                       f"{max(hi - lo, width_at_bound):.6g} exceeds the "
                       f"bound {bound:.6g} under test")
    return MonteCarloResult(est, lo, hi, attacked, conflicts, warning)


def measured_load(report) -> float:
    """Busiest-process witness/peer access fraction from a run report.

    Counts receptions of regular and inform traffic; acknowledgment and
    delivery traffic is the requester's cost, not the server's.  With a
    single message the busiest figure is 1.0 by definition.
    """
    msgs = report.messages_multicast
    if msgs < 1:
        raise InvalidParamsError("need at least one multicast message")
    busiest = 0
    for counts in report.access_counts.values():
        busiest = max(busiest,
                      counts.get("regular", 0) + counts.get("inform", 0))
    return busiest / msgs


def solve_min_cost_params(n: int, t: int, epsilon: float, slack_c: int = 0,
                          max_kappa: int = 16, max_delta: int = 64
                          ) -> Optional[tuple[int, int]]:
    """Smallest-overhead (kappa, delta) whose specific conflict bound at
    slack C meets epsilon, minimizing the failure-free load kappa*(delta+1).

    Feasibility requires n - t >= kappa * delta so that witnesses and peers
    can be disjoint from the faulty set, and kappa >= C.
    """
    best = None
    best_cost = None
    for k in range(max(1, slack_c), max_kappa + 1):
        if k > n:
            break
        for d in range(1, min(max_delta, 3 * t) + 1):
            if n - t < k * d:
                break
            p = AnalysisParams(n, t, k, d, slack_c)
            if overall_conflict_bound(p).specific <= epsilon:
                cost = k * (d + 1)
                if best_cost is None or cost < best_cost or \
                        (cost == best_cost and (k, d) < best):
                    best, best_cost = (k, d), cost
                break  # larger delta only costs more at this kappa
    return best


@dataclass(frozen=True)
class BoundReport:
    params: AnalysisParams
    p_faulty_active: FaultyActiveSet
    probe_miss: float
    probe_miss_exact: float
    overall_conflict: ConflictBound
    p_kappa_c: PKappaC
    load_ff_3t: float
    load_ff_act: float
    load_ff_e_ext: float
    load_fail_3t: float
    load_fail_act: float

    CSV_COLUMNS = ("n", "t", "kappa", "delta", "slack_c",
                   "p_faulty_active", "p_faulty_active_exact",
                   "probe_miss", "probe_miss_exact",
                   "conflict_bound", "conflict_bound_worst",
                   "p_kappa_c_exact", "p_kappa_c_bound",
                   "load_ff_3t", "load_ff_act", "load_ff_e_ext",
                   "load_fail_3t", "load_fail_act")

    def csv_row(self) -> list[str]:
        p = self.params
        vals = [p.n, p.t, p.kappa, p.delta, p.slack_c,
                self.p_faulty_active.independent, self.p_faulty_active.exact_distinct,
                self.probe_miss, self.probe_miss_exact,
                self.overall_conflict.specific, self.overall_conflict.worst_case,
                self.p_kappa_c.exact, self.p_kappa_c.bound,
                self.load_ff_3t, self.load_ff_act, self.load_ff_e_ext,
                self.load_fail_3t, self.load_fail_act]
        return [format_number(v) for v in vals]


def format_number(v) -> str:
    if isinstance(v, int):
        return str(v)
    return f"{v:.6g}"


def bound_report(params: AnalysisParams) -> BoundReport:
    return BoundReport(
        params=params,
        p_faulty_active=p_faulty_active_set(params),
        probe_miss=probe_miss_probability(params),
        probe_miss_exact=probe_miss_exact(params),
        overall_conflict=overall_conflict_bound(params),
        p_kappa_c=p_kappa_c(params),
        load_ff_3t=failure_free_load("3t", params),
        load_ff_act=failure_free_load("act", params),
        load_ff_e_ext=failure_free_load("e", params),
        load_fail_3t=failure_load_bound("3t", params),
        load_fail_act=failure_load_bound("act", params),
    )
