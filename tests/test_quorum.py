import hashlib
import itertools
import random

import pytest

from securecast.core import MessageId
from securecast.quorum import (InvalidParamsError, QuorumParams,
                               check_dissemination_properties,
                               dissemination_quorum_size, sample_peers,
                               sample_witness_subset, w3t, w_active)


def brute_force_quorum_size(n, t):
    """Independent oracle: smallest q such that every pair of q-subsets of
    [n] intersects in more than t elements, and q avoids any t faults."""
    for q in range(1, n + 1):
        if q > n - t:
            return None
        # Worst-case pair intersection is 2q - n; check it exhaustively for
        # tiny n to justify the formula.
        if n <= 8:
            universe = range(n)
            ok = all(len(set(a) & set(b)) > t
                     for a in itertools.combinations(universe, q)
                     for b in itertools.combinations(universe, q))
        else:
            ok = 2 * q - n > t
        if ok:
            return q
    return None


def test_quorum_size_examples():
    assert dissemination_quorum_size(QuorumParams(4, 1)) == 3
    assert dissemination_quorum_size(QuorumParams(100, 10)) == 56
    assert dissemination_quorum_size(QuorumParams(7, 2)) == 5


def test_quorum_size_matches_brute_force():
    for n in range(4, 9):
        for t in range(1, (n - 1) // 3 + 1):
            assert dissemination_quorum_size(QuorumParams(n, t)) == \
                brute_force_quorum_size(n, t), (n, t)


def test_quorum_size_100_10_properties():
    q = dissemination_quorum_size(QuorumParams(100, 10))
    assert 2 * q - 100 >= 11 and q <= 90


def test_check_properties():
    assert check_dissemination_properties(QuorumParams(4, 1), 3)
    assert not check_dissemination_properties(QuorumParams(4, 1), 2)
    assert not check_dissemination_properties(QuorumParams(100, 10), 91)


def test_invalid_params():
    with pytest.raises(InvalidParamsError):
        QuorumParams(3, 1)
    with pytest.raises(InvalidParamsError):
        QuorumParams(10, 0)


def test_property_sweep_small_grid():
    for n in range(4, 101):
        for t in range(1, (n - 1) // 3 + 1):
            p = QuorumParams(n, t)
            assert check_dissemination_properties(p, dissemination_quorum_size(p))


def test_ack_sets_of_quorum_size_intersect_in_t_plus_1():
    # Pure set arithmetic, brute-checked for small n.
    for n in range(4, 13):
        for t in range(1, (n - 1) // 3 + 1):
            q = dissemination_quorum_size(QuorumParams(n, t))
            worst = 2 * q - n  # minimal possible overlap of two q-subsets
            assert worst >= t + 1


def test_w3t_deterministic_and_shaped():
    p = QuorumParams(100, 10)
    mid = MessageId(5, 17)
    a = w3t(mid, p, seed=123)
    b = w3t(mid, p, seed=123)
    assert a == b
    assert len(a) == 31
    assert all(0 <= m < 100 for m in a)
    assert w3t(mid, p, seed=124) != a


def test_w3t_spreads_uniformly():
    p = QuorumParams(100, 10)
    counts = [0] * 100
    trials = 20000
    for i in range(trials):
        for m in w3t(MessageId(i % 40, i), p, seed=9):
            counts[m] += 1
    expect = trials * 31 / 100
    for c in counts:
        assert abs(c - expect) / expect < 0.05


def test_witness_sets_pinned():
    # Witness selection is a fixed function of (id, seed): these pin it.
    p = QuorumParams(31, 7)
    assert sorted(w3t(MessageId(2, 1), p, 99)) == [
        0, 1, 2, 3, 4, 5, 6, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 23,
        25, 30]
    assert w_active(MessageId(2, 1), 3, p, 99) == {12, 28, 29}
    assert w_active(MessageId(5, 7), 4, QuorumParams(100, 10), 2**40) == \
        {13, 23, 48, 56}
    h = hashlib.sha256()
    small, large = QuorumParams(31, 10), QuorumParams(1000, 100)
    seed = 12345678901
    for sender in range(40):
        for seq in range(1, 30):
            mid = MessageId(sender, seq)
            h.update(bytes(sorted(w3t(mid, small, 99))))
            h.update(bytes(sorted(w_active(mid, 3, small, 99))))
            h.update(repr(sorted(w3t(mid, large, seed))).encode())
            h.update(repr(sorted(w_active(mid, 4, large, seed))).encode())
    assert h.hexdigest() == \
        "f6dcd8acf81b979d72cbfd9b378c0f91fdff5ba712f3a91ea8c9c51487a508dc"


def test_w_active_deterministic():
    p = QuorumParams(100, 10)
    mid = MessageId(3, 9)
    assert w_active(mid, 3, p, seed=5) == w_active(mid, 3, p, seed=5)
    assert 1 <= len(w_active(mid, 3, p, seed=5)) <= 3


def test_w_active_all_faulty_fraction_matches_independent_model():
    # Independent draws: all-faulty chance is exactly (t/n)^kappa.
    p = QuorumParams(100, 10)
    faulty = frozenset(range(10))
    trials = 100_000
    hits = sum(
        1 for i in range(trials)
        if w_active(MessageId(i % 90 + 10, i // 90 + 1), 3, p,
                    seed=77) <= faulty)
    rate = hits / trials
    expect = 0.001
    sigma = (expect * (1 - expect) / trials) ** 0.5
    assert abs(rate - expect) <= 3 * sigma + 1e-9, (rate, expect)


def test_w_active_membership_uniformity_chi_square():
    from scipy import stats
    p = QuorumParams(50, 10)
    counts = [0] * 50
    trials = 100_000
    for i in range(trials):
        for m in w_active(MessageId(i % 7, i), 4, p, seed=31):
            counts[m] += 1
    total = sum(counts)
    _, pvalue = stats.chisquare(counts, f_exp=[total / 50] * 50)
    assert pvalue > 0.01


def test_sample_peers_excludes_self_and_is_distinct():
    p = QuorumParams(31, 10)
    members = w3t(MessageId(0, 1), p, seed=1)
    me = sorted(members)[0]
    rng = random.Random(0)
    peers = sample_peers(rng, members, me, 5)
    assert len(peers) == len(set(peers)) == 5
    assert me not in peers
    assert set(peers) <= members


def test_sample_peers_rejects_oversized_delta():
    p = QuorumParams(7, 2)
    members = w3t(MessageId(0, 1), p, seed=1)
    with pytest.raises(InvalidParamsError):
        sample_peers(random.Random(0), members, sorted(members)[0], 7)


def test_sample_witness_subset():
    p = QuorumParams(31, 10)
    members = w3t(MessageId(1, 1), p, seed=1)
    sub = sample_witness_subset(random.Random(3), members, 21)
    assert len(set(sub)) == 21 and set(sub) <= members
