import pytest

from securecast.simnet import SimConfig, build_world
from securecast.tracecheck import (TraceParseError, check_trace, parse_trace)


def trace_of(**kw):
    world = build_world(SimConfig(**kw))
    world.run_to_quiescence()
    return world.trace_text()


def test_clean_e_run_passes():
    text = trace_of(protocol="e", n=4, t=1, messages=2, seed=0)
    result = check_trace(text)
    assert result.ok and result.quiescent and result.conflicts == []


def test_clean_3t_run_passes_witness_rule():
    text = trace_of(protocol="3t", n=31, t=10, messages=2, seed=1)
    result = check_trace(text)
    assert result.ok


def test_duplicated_delivery_flags_integrity():
    text = trace_of(protocol="e", n=4, t=1, messages=1, seed=0)
    lines = text.splitlines()
    dup = next(l for l in lines if l.split(" ")[1] == "appdlv")
    corrupted = "\n".join(lines + [dup]) + "\n"
    result = check_trace(corrupted)
    assert not result.ok
    assert any(v.prop == "Integrity" and "twice" in v.detail
               for v in result.violations)


def test_foreign_delivery_flags_integrity():
    text = trace_of(protocol="e", n=4, t=1, messages=1, seed=0)
    lines = text.splitlines()
    dlv = next(l for l in lines if l.split(" ")[1] == "appdlv")
    parts = dlv.split(" ")
    parts[7] = "deadbeef"  # a digest the sender never multicast
    forged = dlv.replace(dlv, " ".join(parts))
    out = []
    for l in lines:
        out.append(forged if l == dlv else l)
    result = check_trace("\n".join(out) + "\n")
    assert any(v.prop == "Integrity" and "does not match" in v.detail
               for v in result.violations)


def test_thinned_ackset_flags_witness_rule():
    for cfg, keep in (
            (dict(protocol="3t", n=31, t=10, seed=2), 5),
            (dict(protocol="e", n=4, t=1, seed=0), 2),        # q = 3
            # kappa=2 with C=1: the engines deliver on one active witness's
            # ack, which the checker must accept from the meta slack.
            (dict(protocol="act", n=13, t=4, kappa=2, delta=3, slack_c=1,
                  seed=4), 0),
            (dict(protocol="act", n=31, t=10, kappa=3, delta=5, seed=2), 0)):
        text = trace_of(messages=1, **cfg)
        assert check_trace(text).ok, cfg
        out = []
        for l in text.splitlines():
            parts = l.split(" ", 8)
            if parts[1] == "appdlv" and parts[8].startswith("signers."):
                fields = []
                for f in parts[8].split(";"):
                    tag, signers = f.split("=")
                    fields.append(tag + "=" + ":".join(signers.split(":")[:keep]))
                parts[8] = ";".join(fields)
                l = " ".join(parts)
            out.append(l)
        result = check_trace("\n".join(out) + "\n")
        assert any(v.prop == "WitnessRule" for v in result.violations), cfg


def test_act_signers_count_only_toward_their_own_tag():
    """2t+1 range members that signed AV acks meet the 3T count but not the
    active rule; only 3T-tagged signers may satisfy the 3T alternative."""
    from securecast.quorum import w3t, w_active
    world = build_world(SimConfig(protocol="act", n=31, t=10, kappa=3,
                                  delta=5, messages=1, seed=2))
    world.run_to_quiescence()
    text = world.trace_text()
    assert check_trace(text).ok
    lines = text.splitlines()
    i = next(i for i, l in enumerate(lines) if l.split(" ")[1] == "appdlv")
    parts = lines[i].split(" ", 8)
    mid = parse_trace(text)[i].subject
    outside = sorted(w3t(mid, world.params, world.witness_seed)
                     - w_active(mid, 3, world.params, world.witness_seed))
    range_signers = ":".join(str(p) for p in outside[:21])
    for tag, flagged in (("AV", True), ("3T", False)):
        parts[8] = f"signers.{tag}={range_signers}"
        forged = lines[:i] + [" ".join(parts)] + lines[i + 1:]
        result = check_trace("\n".join(forged) + "\n")
        assert any(v.prop == "WitnessRule"
                   for v in result.violations) == flagged, tag


def test_conflicting_ack_by_correct_process_flagged():
    text = trace_of(protocol="e", n=4, t=1, messages=1, seed=0)
    lines = text.splitlines()
    ack = next(l for l in lines if l.split(" ")[5] == "ack"
               and l.split(" ")[1] == "send")
    parts = ack.split(" ")
    parts[7] = "beefbeef"
    result = check_trace("\n".join(lines + [" ".join(parts)]) + "\n")
    assert any(v.prop == "NoConflictingAcks" for v in result.violations)


def test_bogus_sm_notification_flagged():
    text = trace_of(protocol="e", n=4, t=1, messages=1, seed=0)
    lines = text.splitlines()
    sm = next(l for l in lines if l.split(" ")[1] == "stable")
    for field, value in ((6, "0:9"),   # a delivery that never happened
                         (2, "9")):    # a process that never delivered
        parts = sm.split(" ")
        parts[field] = value
        result = check_trace("\n".join(lines + [" ".join(parts)]) + "\n")
        assert any(v.prop == "SMIntegrity" for v in result.violations), field


def test_missing_delivery_in_quiescent_run_flags_reliability():
    text = trace_of(protocol="e", n=4, t=1, messages=1, seed=0)
    lines = [l for l in text.splitlines()]
    # Drop process 3's delivery record entirely.
    thinned = [l for l in lines
               if not (l.split(" ")[1] == "appdlv" and l.split(" ")[2] == "3")]
    result = check_trace("\n".join(thinned) + "\n")
    props = {v.prop for v in result.violations}
    assert "Reliability" in props
    assert "SMIntegrity" in props  # its notifications are now unbacked


def test_act_conflict_counted_but_not_fatal():
    from securecast.core import MessageId
    from securecast.quorum import w_active
    cfg = SimConfig(protocol="act", n=31, t=10, kappa=3, delta=5,
                    adversary="none", messages=1, seed=3, senders="faulty")
    probe = build_world(cfg)
    mid = MessageId(1, 1)
    wa = w_active(mid, 3, probe.params, probe.witness_seed)
    cfg = SimConfig(protocol="act", n=31, t=10, kappa=3, delta=5,
                    adversary="collusive", messages=1, seed=3,
                    faulty_set=tuple(sorted(set(wa) | {1})), senders="faulty")
    world = build_world(cfg)
    report = world.run_to_quiescence()
    assert report.conflicts == 1
    result = check_trace(world.trace_text())
    assert result.conflicts == [mid]
    assert result.ok  # probabilistic agreement permits it


def test_parse_errors():
    with pytest.raises(TraceParseError):
        parse_trace("not a trace\n")
    with pytest.raises(TraceParseError):
        parse_trace("0 send 1 2 E regular 0:1 abcd\n")  # eight fields
    with pytest.raises(TraceParseError):
        check_trace("1 send 1 2 E regular 0:1 abcd -\n")  # no meta record
    with pytest.raises(TraceParseError):  # meta record without kappa
        check_trace("0 meta - - E meta - - n=4;t=1;slack=0;witness_seed=1\n")
