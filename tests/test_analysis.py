import itertools
import math
import random

import pytest

from securecast.analysis import (AnalysisParams, binomial_ci, bound_report,
                                 failure_free_load, failure_load_bound,
                                 overall_conflict_bound, p_faulty_active_set,
                                 p_faulty_meet_active, p_kappa_c,
                                 probe_miss_exact,
                                 probe_miss_probability,
                                 solve_min_cost_params)
from securecast.quorum import InvalidParamsError


def test_p_faulty_active_examples():
    r = p_faulty_active_set(AnalysisParams(100, 10, 3, 5))
    assert r.independent == pytest.approx(0.001)
    assert r.exact_distinct == pytest.approx(120 / 161700)
    assert p_faulty_active_set(AnalysisParams(10, 0, 3, 0)).independent == 0.0


def test_p_faulty_exact_by_enumeration():
    # n=30, t=10, kappa=3: count all-faulty 3-subsets directly.
    n, t, k = 30, 10, 3
    hits = sum(1 for c in itertools.combinations(range(n), k)
               if all(x < t for x in c))
    total = math.comb(n, k)
    assert hits / total == pytest.approx(120 / 4060)
    r = p_faulty_active_set(AnalysisParams(n, t, k, 5))
    assert r.exact_distinct == pytest.approx(hits / total)


def test_probe_miss_examples():
    assert probe_miss_probability(AnalysisParams(31, 10, 3, 5)) == \
        pytest.approx((20 / 31) ** 5)
    assert probe_miss_probability(AnalysisParams(31, 10, 3, 0)) == 1.0
    big = AnalysisParams(3 * 10**6 + 1, 10**6, 3, 5)
    assert probe_miss_probability(big) == pytest.approx((2 / 3) ** 5, rel=1e-4)


def test_probe_miss_exact_by_enumeration():
    # Brute force over every 5-subset of the 30 candidate peers.
    t, d = 10, 5
    pool, correct = 3 * t, t + 1
    misses = sum(1 for c in itertools.combinations(range(pool), d)
                 if all(x >= correct for x in c))
    expect = misses / math.comb(pool, d)
    assert probe_miss_exact(AnalysisParams(31, t, 3, d)) == pytest.approx(expect)
    assert expect < (2 * t / (3 * t + 1)) ** d


def test_probe_miss_monte_carlo_cross_check():
    rng = random.Random(5)
    t, d = 10, 5
    trials = 200_000
    # 3t candidate peers, t+1 of them the correct recovery-set members.
    marked = set(range(3 * t - (t + 1)))
    hits = sum(1 for _ in range(trials)
               if set(rng.sample(range(3 * t), d)) <= marked)
    rate = hits / trials
    expect = probe_miss_exact(AnalysisParams(31, t, 3, d))
    sigma = (expect * (1 - expect) / trials) ** 0.5
    assert abs(rate - expect) < 4 * sigma


def test_overall_conflict_bound_examples():
    worst = overall_conflict_bound(AnalysisParams(100, 10, 3, 5)).worst_case
    assert worst == pytest.approx(1 / 27 + (26 / 27) * (32 / 243))
    spec = overall_conflict_bound(AnalysisParams(100, 10, 3, 5)).specific
    assert spec == pytest.approx(0.001 + 0.999 * (20 / 31) ** 5)
    assert spec == pytest.approx(0.112662, abs=1e-6)
    # With slack C the all-faulty term is P[|W_active ∩ F| >=
    # max(|W_active| - C, 1)]; at C=1 it exceeds the binomial tail
    # P[>= 2 of 3 faulty draws] = 0.245 because repeats shrink W_active.
    for c, pf, bound in ((0, (10 / 31) ** 3, 0.141589),
                         (1, 0.266188, 0.348209), (2, 0.689134, 0.723881)):
        assert p_faulty_meet_active(31, 10 / 31, 3, c) == \
            pytest.approx(pf, abs=1e-6)
        assert overall_conflict_bound(
            AnalysisParams(31, 10, 3, 5, c)).specific == \
            pytest.approx(bound, abs=1e-6)
    # Exhaustive oracle over every ordered draw of k witnesses.
    n, t = 7, 2
    for k in range(1, 5):
        for c in range(k + 1):
            hits = 0
            for draw in itertools.product(range(n), repeat=k):
                w = set(draw)
                hits += len(w & set(range(t))) >= max(len(w) - c, 1)
            assert p_faulty_meet_active(n, t / n, k, c) == \
                pytest.approx(hits / n ** k, abs=1e-12), (k, c)


def test_conflict_bound_monotone_in_kappa_and_delta():
    for t, n in ((10, 100), (4, 13)):
        prev_k = None
        for k in range(1, 13):
            v = overall_conflict_bound(AnalysisParams(n, t, k, 6)).specific
            if prev_k is not None:
                assert v < prev_k
            prev_k = v
        prev_d = None
        for d in range(1, 13):
            v = overall_conflict_bound(AnalysisParams(n, t, 4, d)).specific
            if prev_d is not None:
                assert v < prev_d
            prev_d = v


def test_quoted_guarantee_levels_do_not_reproduce():
    # The formulas give ~0.887 and ~0.983 detection at the two commonly
    # quoted parameter points, not 0.95 and 0.998.
    b1 = overall_conflict_bound(AnalysisParams(100, 10, 3, 5)).specific
    assert 1 - b1 == pytest.approx(0.887, abs=0.001)
    b2 = overall_conflict_bound(AnalysisParams(1000, 100, 4, 10)).specific
    assert 1 - b2 == pytest.approx(0.983, abs=0.001)


def enumerate_p_kappa_c(n, k, c):
    """Exhaustive oracle: fraction of k-subsets with at most c members
    outside the first floor(n/3) processes."""
    f = n // 3
    hits = sum(1 for comb in itertools.combinations(range(n), k)
               if sum(1 for x in comb if x >= f) <= c)
    return hits / math.comb(n, k)


def test_p_kappa_c_examples():
    r = p_kappa_c(AnalysisParams(30, 10, 3, 0, slack_c=1))
    assert r.exact == pytest.approx(1020 / 4060)
    assert r.bound == pytest.approx((90 / 27) * (1 / 9))
    assert r.exact <= r.bound
    r0 = p_kappa_c(AnalysisParams(30, 10, 3, 0, slack_c=0))
    assert r0.exact == pytest.approx(120 / 4060)


def test_p_kappa_c_matches_enumeration_grid():
    for n in range(6, 31, 3):
        for k in range(1, 6):
            for c in range(0, min(2, k) + 1):
                r = p_kappa_c(AnalysisParams(n, n // 3, k, 0, slack_c=c))
                assert r.exact == pytest.approx(enumerate_p_kappa_c(n, k, c)), \
                    (n, k, c)
                assert r.exact <= r.bound + 1e-12
    # kappa == n: the closed form's limit is +inf once C > 0
    for n in range(1, 7):
        for c in range(0, min(2, n) + 1):
            r = p_kappa_c(AnalysisParams(n, n // 3, n, 0, slack_c=c))
            assert r.exact == pytest.approx(enumerate_p_kappa_c(n, n, c)), \
                (n, c)
            assert r.exact <= r.bound
            assert (r.bound == math.inf) == (c > 0), (n, c)


def test_loads():
    p = AnalysisParams(100, 10, 3, 5)
    assert failure_free_load("3t", p) == pytest.approx(0.21)
    assert failure_free_load("act", p) == pytest.approx(0.18)
    assert failure_load_bound("3t", p) == pytest.approx(0.31)
    assert failure_load_bound("act", p) == pytest.approx(0.49)
    assert failure_free_load("e", p) == pytest.approx(0.56)
    full = AnalysisParams(100, 10, kappa=100, delta=0)
    assert failure_free_load("act", full) == pytest.approx(1.0)
    t0 = AnalysisParams(4, 0, 3, 0)
    assert failure_load_bound("act", t0) == pytest.approx((3 * 1 + 1) / 4)


def test_params_validation():
    with pytest.raises(InvalidParamsError):
        AnalysisParams(10, 4)          # 3t+1 > n
    with pytest.raises(InvalidParamsError):
        AnalysisParams(100, 10, 101)   # kappa > n
    with pytest.raises(InvalidParamsError):
        AnalysisParams(100, 10, 3, 31)  # delta > 3t
    with pytest.raises(InvalidParamsError):
        AnalysisParams(100, 10, 3, 5, slack_c=4)


def test_binomial_ci():
    lo, hi = binomial_ci(50, 1000)
    assert lo < 0.05 < hi
    assert binomial_ci(0, 1000) == (0.0, 0.0)
    assert binomial_ci(0, 0) == (0.0, 1.0)


def test_solver_meets_epsilon():
    got = solve_min_cost_params(100, 10, 0.001)
    assert got is not None
    k, d = got
    assert overall_conflict_bound(AnalysisParams(100, 10, k, d)).specific <= 0.001
    # Nothing cheaper works.
    for k2 in range(1, k + 1):
        for d2 in range(1, d + 1):
            if k2 * (d2 + 1) < k * (d + 1) and 100 - 10 >= k2 * d2:
                b = overall_conflict_bound(
                    AnalysisParams(100, 10, k2, d2)).specific
                assert b > 0.001


def test_solver_meets_epsilon_with_slack():
    for c, eps in ((1, 0.001), (2, 0.01)):
        k, d = solve_min_cost_params(100, 10, eps, c)
        assert k >= c
        assert overall_conflict_bound(
            AnalysisParams(100, 10, k, d, c)).specific <= eps
        # Nothing cheaper works at this slack.
        for k2 in range(c, k + 1):
            for d2 in range(1, d + 1):
                if k2 * (d2 + 1) < k * (d + 1) and 100 - 10 >= k2 * d2:
                    b = overall_conflict_bound(
                        AnalysisParams(100, 10, k2, d2, c)).specific
                    assert b > eps
    # Slack 0 is the default and changes nothing.
    assert solve_min_cost_params(100, 10, 0.01, 0) == \
        solve_min_cost_params(100, 10, 0.01)


def test_bound_report_rows():
    rep = bound_report(AnalysisParams(100, 10, 3, 5))
    row = rep.csv_row()
    assert len(row) == len(rep.CSV_COLUMNS)
    assert row[0] == "100" and row[5] == "0.001"
