import math

from securecast.analysis import (AnalysisParams, failure_free_load,
                                 measured_load)
from securecast.protocols import DELIVER
from securecast.simnet import SimConfig, build_world


def run_load(protocol, messages, **kw):
    cfg = SimConfig(protocol=protocol, n=100, t=10, messages=messages,
                    senders="uniform", message_spacing=1, stability=False,
                    record_trace=False, seed=2024, **kw)
    world = build_world(cfg)
    report = world.run_to_quiescence()
    assert report.quiescent
    return measured_load(report)


def band(p, messages):
    # Busiest-of-100 fluctuation: mean + ~2.5 sigma, with slack for the
    # max statistic and small-sample lumpiness.
    return 4.0 * math.sqrt(p * (1 - p) / messages) + 2.0 / messages


def test_3t_load_converges_with_message_count():
    p = AnalysisParams(100, 10)
    target = failure_free_load("3t", p)
    errors = []
    for messages in (100, 1000, 4000):
        load = run_load("3t", messages)
        err = abs(load - target)
        assert err <= band(target, messages), (messages, load)
        errors.append(err)
    assert errors[-1] <= errors[0] + 0.01  # shrinks up to noise


def test_act_load_converges_with_message_count():
    p = AnalysisParams(100, 10, 3, 5)
    target = failure_free_load("act", p)
    errors = []
    for messages in (100, 1000, 4000):
        load = run_load("act", messages, kappa=3, delta=5)
        err = abs(load - target)
        assert err <= band(target, messages), (messages, load)
        errors.append(err)
    assert errors[-1] <= errors[0] + 0.01


def test_single_message_load_is_unity():
    # Per-message normalization: with one message the busiest witness was
    # accessed exactly once, so the figure is 1.0 by definition.
    assert run_load("3t", 1) == 1.0


# The abstract's cost claims: E is linear in n, 3T of the order of t, ACT
# effectively constant.  t = floor((n - 1) / 10) at every n.
COST_NS = (31, 100, 301, 1000)
KAPPA, DELTA = 3, 5


def witness_sends(protocol, n, silent):
    """Witness-plane sends per multicast id, one per recipient, in a world
    with stability off and, if silent, t silent faulty processes; the
    deliver fan-out (n for every protocol) is left out."""
    t = (n - 1) // 10
    cfg = SimConfig(protocol=protocol, n=n, t=t, messages=4, seed=7,
                    senders="uniform", stability=False, record_trace=False,
                    adversary="silent" if silent else "none",
                    **({"kappa": KAPPA, "delta": DELTA}
                       if protocol == "act" else {}))
    world = build_world(cfg)
    sent = {}
    channel_send = world._channel_send

    def counted(src, dsts, msg, now):
        if msg.role != DELIVER:
            sent[msg.subject] = sent.get(msg.subject, 0) + len(dsts)
        channel_send(src, dsts, msg, now)
    world._channel_send = counted
    report = world.run_to_quiescence()
    assert report.quiescent and report.conflicts == 0
    assert len(sent) == cfg.messages
    return t, list(sent.values())


def test_witness_plane_cost_per_multicast_fault_free():
    for n in COST_NS:
        t, e = witness_sends("e", n, silent=False)
        assert e == [2 * n] * 4, n
        _, three_t = witness_sends("3t", n, silent=False)
        assert three_t == [2 * (2 * t + 1)] * 4, n
        _, act = witness_sends("act", n, silent=False)
        assert act == [2 * KAPPA * (DELTA + 1)] * 4, n


def test_witness_plane_cost_per_multicast_with_t_silent_faulty():
    """3T widens to its 3t+1 range, and ACT falls back to 3T, only as far
    as the range allows."""
    widened = fell_back = 0
    for n in COST_NS:
        t, three_t = witness_sends("3t", n, silent=True)
        assert max(three_t) <= 2 * (3 * t + 1), (n, three_t)
        widened += max(three_t) > 2 * (2 * t + 1)
        _, act = witness_sends("act", n, silent=True)
        assert max(act) <= 2 * KAPPA * (DELTA + 1) + 2 * (3 * t + 1), \
            (n, act)
        fell_back += max(act) > 2 * KAPPA * (DELTA + 1)
    assert widened and fell_back
