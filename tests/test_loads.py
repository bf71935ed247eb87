import math

from securecast.analysis import (AnalysisParams, failure_free_load,
                                 measured_load)
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
