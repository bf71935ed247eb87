"""Randomised whole-run checks: any valid small configuration must leave a
trace that checks clean, with ACT conflicts counted rather than failed."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from securecast.core import MessageId
from securecast.simnet import SimConfig, build_world
from securecast.tracecheck import check_trace

ADVERSARIES = ("none", "silent", "crash", "equivocate", "collusive")


@st.composite
def configs(draw):
    protocol = draw(st.sampled_from(("e", "3t", "act")))
    n = draw(st.integers(4, 13))
    t = draw(st.integers(1, (n - 1) // 3))
    extra = {}
    adversaries = ADVERSARIES
    if protocol == "act":
        kappa = draw(st.integers(1, 3))
        delta = draw(st.integers(1, min(3 * t, (n - t) // kappa)))
        extra = dict(kappa=kappa, delta=delta,
                     slack_c=draw(st.integers(0, kappa)))
        adversaries += ("regime-split", "seq-burner")
    return SimConfig(
        protocol=protocol, n=n, t=t,
        adversary=draw(st.sampled_from(adversaries)),
        messages=draw(st.integers(1, 2)),
        p_drop=draw(st.sampled_from((0.0, 0.1, 0.3))),
        latency_hi=draw(st.integers(1, 8)),
        stability=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32)), **extra)


@settings(max_examples=1500, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(configs())
def test_random_runs_check_clean(cfg):
    world = build_world(cfg)
    report = world.run_to_quiescence()
    result = check_trace(world.trace_text())
    assert report.quiescent and result.quiescent
    violations = result.violations
    if not cfg.stability:
        # Re-forwarding is what repairs a faulty sender's partial broadcast,
        # so without it trace-check asserts Reliability only for ids whose
        # sender is correct; the world agrees that every correct sender's
        # message reached every correct process.
        engines = [e for e in world.engines if e is not None]
        for e in engines:
            for seq in range(1, e.own_seq + 1):
                mid = MessageId(e.me, seq)
                delivered = set().union(
                    *world.delivered_digests.get(mid, {}).values())
                assert all(o.me in delivered for o in engines), mid
    assert not violations, [str(v) for v in violations[:3]]
    assert result.conflicts == report.conflict_ids
    if cfg.protocol != "act":
        assert report.conflicts == 0
