"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers when it holds.  Tolerances are fixed here, not tuned
at run time.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import math
import random
from pathlib import Path

from securecast.analysis import (AnalysisParams, failure_free_load,
                                 failure_load_bound, measured_load,
                                 overall_conflict_bound, p_kappa_c)
from securecast.cli import main as cli_main
from securecast.core import MessageId
from securecast.quorum import (QuorumParams, check_dissemination_properties,
                               dissemination_quorum_size, sample_peers, w3t,
                               w_active)
from securecast.simnet import SimConfig, build_world, run_trial_batch
from securecast.tracecheck import check_trace

DATA = Path(__file__).parent / "data"

ADVERSARIES = ("silent", "crash", "equivocate", "collusive")


def _announce(tag, ok, detail):
    print(f"ACCEPTANCE {tag} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{tag}: {detail}"


def _checked_run(cfg):
    world = build_world(cfg)
    report = world.run_to_quiescence()
    result = check_trace(world.trace_text())
    return report, result


def _absolute_grid(protocol, grid, seeds_per_combo):
    runs = 0
    for n, t in grid:
        for adversary in ADVERSARIES:
            for seed in range(seeds_per_combo):
                kw = {}
                if protocol == "act":
                    kw = dict(kappa=2, delta=2)
                cfg = SimConfig(protocol=protocol, n=n, t=t,
                                adversary=adversary, messages=2,
                                seed=seed * 7919 + n, **kw)
                report, result = _checked_run(cfg)
                assert report.quiescent, (protocol, n, adversary, seed)
                assert report.conflicts == 0, (protocol, n, adversary, seed)
                assert result.ok, (protocol, n, adversary, seed,
                                   [str(v) for v in result.violations][:3])
                runs += 1
    return runs


def test_c01_absolute_agreement_e():
    grid = [(n, (n - 1) // 3) for n in (4, 7, 10)]
    runs = _absolute_grid("e", grid, seeds_per_combo=84)
    _announce("C1", runs >= 1000,
              f"E protocol: {runs} adversarial runs, zero conflicting "
              f"deliveries, zero Integrity/Reliability/Self-delivery "
              f"violations")


def test_c02_absolute_agreement_3t():
    small = [(n, (n - 1) // 3) for n in (4, 7, 10)]
    runs = _absolute_grid("3t", small, seeds_per_combo=50)
    for n, seeds in ((31, 75), (100, 25)):
        for adversary in ADVERSARIES:
            for seed in range(seeds):
                cfg = SimConfig(protocol="3t", n=n, t=10, adversary=adversary,
                                messages=1, seed=seed * 104729 + n)
                report, result = _checked_run(cfg)
                assert report.quiescent and report.conflicts == 0, \
                    (n, adversary, seed)
                assert result.ok, (n, adversary, seed,
                                   [str(v) for v in result.violations][:3])
                runs += 1
    # The WitnessRule check inside check_trace enforces the 2t+1-in-range
    # ack rule on every delivery; result.ok above covers it.
    _announce("C2", runs >= 1000,
              f"3T protocol: {runs} adversarial runs incl. n=31,100, zero "
              f"violations, every delivery backed by 2t+1 in-range signers")


def test_c03_act_probabilistic_agreement():
    n, t, kappa, delta = 31, 10, 3, 5
    trials = 10_000
    cfg = SimConfig(protocol="act", n=n, t=t, kappa=kappa, delta=delta,
                    adversary="regime-split", messages=1, seed=20_000,
                    record_trace=False, stability=False)
    attacked, conflicts = run_trial_batch(cfg, trials)
    assert attacked == trials
    rate = conflicts / attacked
    bound = overall_conflict_bound(AnalysisParams(n, t, kappa, delta)).specific
    margin = 3 * math.sqrt(bound * (1 - bound) / attacked)
    _announce("C3", rate <= bound + margin,
              f"ACT regime-split over {trials} attacked messages: conflict "
              f"rate {rate:.4f} <= bound {bound:.4f} (+3-sigma {margin:.4f})")
    assert conflicts > 0, "the attack should land occasionally"


def test_c04_faulty_witness_set_frequency():
    n, t, kappa = 100, 10, 3
    params = QuorumParams(n, t)
    seed = 424242
    faulty = frozenset(random.Random(4).sample(range(n), t))
    trials = 1_000_000
    senders = [p for p in range(n) if p not in faulty]
    hits = 0
    for i in range(trials):
        mid = MessageId(senders[i % len(senders)], i // len(senders) + 1)
        if w_active(mid, kappa, params, seed) <= faulty:
            hits += 1
    rate = hits / trials
    expect = (t / n) ** kappa
    sigma = math.sqrt(expect * (1 - expect) / trials)
    _announce("C4", abs(rate - expect) <= 3 * sigma,
              f"all-faulty active witness sets: {rate:.6f} vs {expect:.6f} "
              f"(3-sigma {3 * sigma:.6f}) over 1e6 ids")


def test_c05_probe_miss_calibration():
    t, delta = 10, 5
    n = 3 * t + 1
    params = QuorumParams(n, t)
    members = w3t(MessageId(0, 1), params, seed=5)
    me = sorted(members)[0]
    pool = sorted(m for m in members if m != me)
    correct_s = frozenset(pool[:t + 1])  # the correct recovery-set members

    # Brute-force oracle: enumerate every delta-subset of the pool.
    miss_subsets = sum(1 for c in itertools.combinations(pool, delta)
                       if not (set(c) & correct_s))
    exact = miss_subsets / math.comb(len(pool), delta)

    rng = random.Random(99)
    trials = 1_000_000
    hits = sum(1 for _ in range(trials)
               if not (set(sample_peers(rng, members, me, delta)) & correct_s))
    rate = hits / trials
    with_replacement = (2 * t / (3 * t + 1)) ** delta
    sigma = math.sqrt(exact * (1 - exact) / trials)
    ok = rate <= with_replacement and abs(rate - exact) <= 3 * sigma
    _announce("C5", ok,
              f"probe miss: sampler {rate:.6f} <= with-replacement bound "
              f"{with_replacement:.6f}, within 3-sigma of exact {exact:.6f}")


def test_c06_p_kappa_c_oracle_equivalence():
    checked = 0
    for n in range(6, 31, 3):
        for kappa in range(1, 6):
            for c in range(0, min(2, kappa) + 1):
                r = p_kappa_c(AnalysisParams(n, n // 3, kappa, 0, slack_c=c))
                f = n // 3
                hits = sum(1 for comb in itertools.combinations(range(n), kappa)
                           if sum(1 for x in comb if x >= f) <= c)
                expect = hits / math.comb(n, kappa)
                assert abs(r.exact - expect) < 1e-12, (n, kappa, c)
                assert r.exact <= r.bound + 1e-12, (n, kappa, c)
                checked += 1
    _announce("C6", checked == 9 * (2 + 3 + 3 + 3 + 3),
              f"closed-form faulty-subset probability equals exhaustive "
              f"enumeration at {checked} grid points, exact <= bound")


def _load_run(protocol, messages, num_faulty=0, **kw):
    cfg = SimConfig(protocol=protocol, n=100, t=10, messages=messages,
                    adversary="silent" if num_faulty else "none",
                    num_faulty=num_faulty, senders="uniform",
                    message_spacing=1, stability=False, record_trace=False,
                    seed=31337, **kw)
    world = build_world(cfg)
    report = world.run_to_quiescence()
    assert report.quiescent
    return measured_load(report)


def test_c07_load_convergence():
    p = AnalysisParams(100, 10, 3, 5)
    l3t = _load_run("3t", 10_000)
    lact = _load_run("act", 10_000, kappa=3, delta=5)
    ok_ff = abs(l3t - failure_free_load("3t", p)) <= 0.02 and \
        abs(lact - failure_free_load("act", p)) <= 0.02
    _announce("C7a", ok_ff,
              f"faultless busiest-process load over 1e4 messages: "
              f"3T {l3t:.4f} (target 0.21 +/- 0.02), "
              f"ACT {lact:.4f} (target 0.18 +/- 0.02)")
    f3t = _load_run("3t", 3_000, num_faulty=4)
    fact = _load_run("act", 3_000, num_faulty=4, kappa=3, delta=5)
    ok_fail = f3t <= failure_load_bound("3t", p) and \
        fact <= failure_load_bound("act", p)
    _announce("C7b", ok_fail,
              f"failure-run loads: 3T {f3t:.4f} <= 0.31, ACT {fact:.4f} <= 0.49")


GOLDEN_CONFIGS = {
    "golden_e.trace": ["--protocol", "e", "--n", "4", "--t", "1",
                       "--messages", "1", "--seed", "0"],
    "golden_3t.trace": ["--protocol", "3t", "--n", "31", "--t", "10",
                        "--adversary", "equivocate", "--seed", "7"],
    "golden_act.trace": ["--protocol", "act", "--n", "13", "--t", "4",
                         "--kappa", "2", "--delta", "3",
                         "--adversary", "collusive", "--seed", "3"],
}


def test_c08_determinism_golden_traces(tmp_path, capsys):
    for name, flags in GOLDEN_CONFIGS.items():
        run1, run2 = tmp_path / ("a_" + name), tmp_path / ("b_" + name)
        for out in (run1, run2):
            code = cli_main(["simulate", *flags, "--trace-out", str(out)])
            assert code == 0, name
        capsys.readouterr()
        assert run1.read_bytes() == run2.read_bytes(), name
        golden = DATA / name
        assert run1.read_bytes() == golden.read_bytes(), \
            f"{name} diverged from the committed golden trace"
    _announce("C8", True,
              "simulate is byte-deterministic and matches the 3 committed "
              "golden traces")


def test_c09_quorum_property_sweep():
    checked = 0
    for n in range(4, 1001):
        for t in range(1, (n - 1) // 3 + 1):
            params = QuorumParams(n, t)
            q = dissemination_quorum_size(params)
            assert check_dissemination_properties(params, q), (n, t, q)
            assert 2 * q - n >= t + 1 and q <= n - t, (n, t, q)
            checked += 1
    _announce("C9", checked > 100_000,
              f"dissemination quorum size satisfies consistency and "
              f"availability at all {checked} (n, t) points, n up to 1000")


def test_c10_alert_race():
    """Alerts must always beat recovery acknowledgments for the same id.

    With the race intact, a correct process that was asked for a recovery
    ack on an equivocated id learns of the conviction during the forced
    delay and never signs, so the strongest observable outcome is: alerts
    reach everyone, solicited recovery acks for the alerted id all get
    suppressed, and any ack that does appear postdates every alert arrival.
    """
    total_alerts = solicited = suppressed = late_acks = 0
    for seed in range(100):
        cfg = SimConfig(protocol="act", n=13, t=4, kappa=2, delta=2,
                        adversary="equivocate", messages=1, seed=seed,
                        latency_hi=8)
        world = build_world(cfg)
        world.run_to_quiescence()
        correct = set(range(13)) - world.faulty
        raisers, recv_t, recv_by, ack_send, requests = {}, {}, {}, {}, {}
        for line in world.trace:
            parts = line.split(" ", 8)
            tick, kind, src, dst = int(parts[0]), parts[1], parts[2], parts[3]
            proto, role, subject = parts[4], parts[5], parts[6]
            if kind == "alert":
                raisers.setdefault(subject, set()).add(int(src))
            elif kind == "recv" and role == "alert" and int(dst) in correct:
                recv_t.setdefault(subject, []).append(tick)
                recv_by.setdefault(subject, set()).add(int(dst))
            elif kind == "timer_set" and role == "delayed_ack" \
                    and int(src) in correct:
                requests.setdefault(subject, []).append(tick)
            elif kind == "send" and role == "ack" and proto == "3T" \
                    and int(src) in correct:
                ack_send.setdefault(subject, []).append(tick)
        for subject, who in raisers.items():
            total_alerts += len(who)
            reached = recv_by.get(subject, set()) | (who & correct)
            assert correct <= reached, (seed, subject, correct - reached)
            asked = requests.get(subject, [])
            acks = ack_send.get(subject, [])
            solicited += len(asked)
            suppressed += len(asked) - len(acks)
            late_acks += len(acks)
            if acks:
                assert max(recv_t[subject]) < min(acks), \
                    (seed, subject, max(recv_t[subject]), min(acks))
    _announce("C10", total_alerts > 0 and solicited > 0 and suppressed > 0,
              f"over 100 jittered runs: {total_alerts} alerts all reached "
              f"every correct process; of {solicited} solicited recovery "
              f"acks for alerted ids, {suppressed} were suppressed by the "
              f"arriving alert and {late_acks} were signed strictly after "
              f"every alert arrival")
