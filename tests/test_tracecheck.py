import tracemalloc

import pytest

from securecast.simnet import SimConfig, build_world
from securecast.tracecheck import (TraceParseError, check_trace,
                                   check_trace_file, parse_trace)


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


def test_ack_against_own_delivery_flagged():
    # Process 0's ack line, repeated after its delivery: the same digest is
    # no violation, another digest is one; before any delivery the other
    # digest breaks only NoConflictingAcks.
    lines = _e_lines()
    ack = next(l for l in lines if l.split(" ")[1] == "send"
               and l.split(" ")[5] == "ack" and l.split(" ")[2] == "0")
    other = _with_field(ack, 7, "beefbeef")
    assert check_trace(_text(lines + [ack])).ok
    after = check_trace(_text(lines + [other]))
    assert [v.prop for v in after.violations] == [
        "NoConflictingAcks", "NoAckAgainstDelivery"]
    before = check_trace(_text(lines[:1] + [other] + lines[1:]))
    assert [v.prop for v in before.violations] == ["NoConflictingAcks"]


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


def test_stability_off_still_flags_a_missing_correct_delivery():
    text = trace_of(protocol="e", n=4, t=1, messages=1, seed=0,
                    stability=False)
    lines = text.splitlines()
    assert lines[0].endswith(";stability=off")
    dlv = [l.split(" ") for l in lines if l.split(" ")[1] == "appdlv"]
    sender = dlv[0][6].split(":")[0]
    victim = next(p[2] for p in dlv if p[2] != sender)
    thinned = [l for l in lines if l.split(" ")[1:3] != ["appdlv", victim]]
    result = check_trace("\n".join(thinned) + "\n")
    assert [v.prop for v in result.violations] == ["Reliability"]


def test_faulty_sender_spared_reliability_only_with_stability_off():
    text = trace_of(protocol="3t", n=7, t=2, adversary="collusive",
                    messages=3, seed=0, stability=False)
    assert check_trace(text).ok
    meta, rest = text.split("\n", 1)
    claimed_on = meta.replace(";stability=off", "") + "\n" + rest
    props = {v.prop for v in check_trace(claimed_on).violations}
    assert props == {"Reliability"}


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


FORGED_SIGNERS = """\
0 meta - - E meta - - n=4;t=1;kappa=0;slack=0;witness_seed=1
1 mcast 0 - E mcast 0:1 abcd -
2 appdlv 1 - - deliver 0:1 abcd signers.E={}
3 end - - - end - - quiescent=false
"""


def test_signer_ids_outside_the_run_fail_the_witness_rule():
    """A signer that is no process of the run counts toward no rule: its
    delivery is a WitnessRule violation naming it, even beside enough real
    signers."""
    for ids, named in (("7:8:9", "7:8:9"), ("0:1:2:9", "9"),
                       ("0:1:-1", "-1")):
        result = check_trace(FORGED_SIGNERS.format(ids))
        assert [(v.prop, v.lineno, v.detail) for v in result.violations] == [
            ("WitnessRule", 3, f"delivery of 0:1 backed by signers {named}, "
             f"which are no process of n=4")], ids
    assert check_trace(FORGED_SIGNERS.format("0:1:2")).ok
    # in a real trace, one forged signer id among the real ones
    lines = _e_lines()
    dlv = _first(lines, "appdlv")
    note = dlv.split(" ")[8]
    result = check_trace(_text([_with_field(l, 8, note + ":4") if l == dlv
                                else l for l in lines]))
    assert [(v.prop, v.detail) for v in result.violations] == [
        ("WitnessRule", "delivery of 2:1 backed by signers 4, which are no "
         "process of n=4")]


def test_non_integer_signer_id_is_a_parse_error_at_its_line():
    with pytest.raises(TraceParseError, match="^line 3: bad signer id"):
        check_trace(FORGED_SIGNERS.format("1:x"))


# -- exact results -------------------------------------------------------------
# Each corrupted trace below is checked as text, as a list of lines and as a
# file, and the whole CheckResult is pinned: every violation's (prop,
# lineno, detail), the conflicts and the quiescence flag; or the parse
# error's message.

def _e_lines():
    return trace_of(protocol="e", n=4, t=1, messages=1, seed=0).splitlines()


def _first(lines, kind, role=None):
    return next(l for l in lines if l.split(" ")[1] == kind
                and (role is None or l.split(" ")[5] == role))


def _with_field(line, index, value):
    parts = line.split(" ", 8)
    parts[index] = value
    return " ".join(parts)


def _text(lines):
    return "\n".join(lines) + "\n"


def _duplicated_appdlv():
    lines = _e_lines()
    return _text(lines + [_first(lines, "appdlv")])


def _foreign_digest():
    lines = _e_lines()
    dlv = _first(lines, "appdlv")
    return _text([_with_field(l, 7, "deadbeef") if l == dlv else l
                  for l in lines])


def _thinned(keep, **cfg):
    out = []
    for l in trace_of(messages=1, **cfg).splitlines():
        parts = l.split(" ", 8)
        if parts[1] == "appdlv" and parts[8].startswith("signers."):
            parts[8] = ";".join(
                tag + "=" + ":".join(signers.split(":")[:keep])
                for tag, signers in (f.split("=") for f in parts[8].split(";")))
        out.append(" ".join(parts))
    return _text(out)


def _conflicting_ack():
    lines = _e_lines()
    return _text(lines + [_with_field(_first(lines, "send", "ack"), 7,
                                      "beefbeef")])


def _bogus_stable(index, value):
    lines = _e_lines()
    return _text(lines + [_with_field(_first(lines, "stable"), index, value)])


def _dropped_delivery():
    return _text([l for l in _e_lines()
                  if not (l.split(" ")[1] == "appdlv"
                          and l.split(" ")[2] == "3")])


def _blank_lines():
    lines = _duplicated_appdlv().splitlines()
    return _text([""] + lines[:1] + ["", "   "] + lines[1:20] + [""]
                 + lines[20:] + ["", ""])


def _malformed_deep(text, lineno):
    lines = text.splitlines()
    lines[lineno - 1] = " ".join(lines[lineno - 1].split(" ")[:8])
    return _text(lines)


META_E = ("0 meta - - E meta - - n=4;t=1;kappa=0;slack=0;witness_seed=1;"
          "faulty=none")

CASES = {
    "clean": lambda: _text(_e_lines()),
    "duplicated-appdlv": _duplicated_appdlv,
    "foreign-digest": _foreign_digest,
    "thinned-3t": lambda: _thinned(5, protocol="3t", n=31, t=10, seed=2),
    "thinned-e": lambda: _thinned(2, protocol="e", n=4, t=1, seed=0),
    "thinned-act-slack": lambda: _thinned(
        0, protocol="act", n=13, t=4, kappa=2, delta=3, slack_c=1, seed=4),
    "thinned-act": lambda: _thinned(
        0, protocol="act", n=31, t=10, kappa=3, delta=5, seed=2),
    "conflicting-ack": _conflicting_ack,
    "bogus-stable-id": lambda: _bogus_stable(6, "0:9"),
    "bogus-stable-process": lambda: _bogus_stable(2, "9"),
    "dropped-delivery": _dropped_delivery,
    "blank-lines": _blank_lines,
    "crlf": lambda: _duplicated_appdlv().replace("\n", "\r\n"),
    "malformed-deep": lambda: _malformed_deep(_duplicated_appdlv(), 32),
    "bad-subject-deep": lambda: _text(
        [_with_field(l, 6, "3-1") if i == 33 else l
         for i, l in enumerate(_e_lines())]),
    "no-meta": lambda: _text(_e_lines()[1:]),
    "empty": lambda: "",
    "meta-only": lambda: META_E + "\n",
    "meta-only-blank-after": lambda: META_E + "\n\n\n",
    "bad-meta-then-malformed": lambda: _malformed_deep(
        _text([META_E.replace("kappa=0;", "")] + _e_lines()[1:]), 12),
    "no-meta-then-malformed": lambda: _malformed_deep(
        _text(_e_lines()[1:]), 12),
    "bad-meta": lambda: _text([META_E.replace("kappa=0;", "")]
                              + _e_lines()[1:]),
    "foreign-digest-trailing-blanks": lambda: _foreign_digest() + "\n \n\n",
}


def _witness(lines, subject, counts, proto):
    return [("WitnessRule", l, f"delivery of {subject} backed by {counts} "
             f"signers, which meet no {proto} ack rule") for l in lines]


# What the checker returned before it streamed, except where noted.  Line
# numbers were re-derived, details unchanged, when re-forward checks that
# find their id stable everywhere stopped writing timer lines; malformed-deep
# now breaks line 32 of the shorter trace (was 40).  Line numbers and the
# process named first were re-derived, rules unchanged, when channel draws
# became one keyed stream per send.
EXPECTED = {
    "clean": ([], [], True),
    "duplicated-appdlv": ([("Integrity", 36, "process 2 delivered 2:1 twice "
                            "(first at line 24)")], [], True),
    "foreign-digest": ([
        ("Integrity", 24, "delivery of 2:1 does not match any multicast by "
         "correct sender 2"),
        ("Agreement", 35, "correct processes delivered 2 different digests "
         "for 2:1")], [(2, 1)], True),
    "thinned-3t": (_witness(range(120, 181, 2), "30:1", "5 3T", "3T"),
                   [], True),
    "thinned-e": (_witness((24, 26, 28, 30), "2:1", "2 E", "E"), [], True),
    "thinned-act-slack": (_witness((47, 49, *range(53, 72, 2), 74), "10:1",
                                   "no", "AV"), [], True),
    "thinned-act": (_witness(range(108, 169, 2), "30:1", "no", "AV"),
                    [], True),
    # Changed: the injected ack follows process 0's delivery, so
    # NoAckAgainstDelivery, a later rule, flags it too.
    "conflicting-ack": ([("NoConflictingAcks", 36, "process 3 signed acks "
                          "for two digests of 2:1"),
                         ("NoAckAgainstDelivery", 36, "process 3 acked "
                          "digest beefbeef of 2:1 after delivering "
                          "another")], [], True),
    "bogus-stable-id": ([("SMIntegrity", 36, "stability record claims 2 "
                          "delivered 0:9 without a matching delivery")],
                        [], True),
    "bogus-stable-process": ([("SMIntegrity", 36, "stability record claims "
                               "9 delivered 2:1 without a matching "
                               "delivery")], [], True),
    "dropped-delivery": ([
        ("SMIntegrity", 33, "stability record claims 3 delivered 2:1 without "
         "a matching delivery"),
        ("Reliability", 34, "2:1 was delivered by some correct processes but "
         "not by [3]")], [], True),
    "blank-lines": ([("Integrity", 40, "process 2 delivered 2:1 twice "
                      "(first at line 28)")], [], True),
    "crlf": ([("Integrity", 36, "process 2 delivered 2:1 twice (first at "
               "line 24)")], [], True),
    "malformed-deep": "line 32: expected 9 fields, got 8",
    "bad-subject-deep":
        "line 34: not enough values to unpack (expected 2, got 1)",
    "no-meta": "trace must start with a meta record",
    "empty": "trace must start with a meta record",
    "meta-only": ([], [], False),
    "meta-only-blank-after": ([], [], False),
    "bad-meta": "line 1: bad meta record: KeyError('kappa')",
    "bad-meta-then-malformed": "line 12: expected 9 fields, got 8",
    # Changed: the checker stops at a first line that is not a meta record
    # instead of parsing the rest first ("line 12: expected 9 fields").
    "no-meta-then-malformed": "trace must start with a meta record",
    "foreign-digest-trailing-blanks": ([
        ("Integrity", 24, "delivery of 2:1 does not match any multicast by "
         "correct sender 2"),
        ("Agreement", 35, "correct processes delivered 2 different digests "
         "for 2:1")], [(2, 1)], True),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_exact_results_as_text_lines_and_file(name, tmp_path):
    text = CASES[name]()
    path = tmp_path / "case.trace"
    path.write_bytes(text.encode())
    for how, check in (("text", lambda: check_trace(text)),
                       ("lines", lambda: check_trace(text.splitlines())),
                       ("file", lambda: check_trace_file(str(path)))):
        try:
            result = check()
        except TraceParseError as exc:
            got = str(exc)
        else:
            got = ([(v.prop, v.lineno, v.detail) for v in result.violations],
                   [tuple(mid) for mid in result.conflicts],
                   result.quiescent)
        assert got == EXPECTED[name], how


def test_parse_trace_skips_blank_lines_but_counts_them():
    text = _blank_lines()
    records = parse_trace(text)
    assert len(records) == sum(1 for l in text.splitlines() if l.strip())
    assert [r.lineno for r in records[:3]] == [2, 5, 6]
    assert records[0].kind == "meta" and records[0].subject is None
    dlv = next(r for r in records if r.kind == "appdlv")
    assert (dlv.lineno, dlv.src, dlv.dst, tuple(dlv.subject)) == \
        (28, 2, None, (2, 1))


def test_check_trace_file_memory_does_not_grow_with_the_trace(tmp_path):
    """A real trace padded with valid recv/timer_fire lines before its end
    record: 350k more lines may not raise the checker's peak by 1 MB."""
    lines = trace_of(protocol="3t", n=31, t=10, messages=2,
                     seed=1).splitlines()
    filler = [l for l in lines if l.split(" ")[1] in ("recv", "timer_fire")]
    peaks = []
    for count in (50_000, 400_000):
        path = tmp_path / f"padded-{count}.trace"
        with open(path, "w") as fh:
            fh.write(_text(lines[:-1]))
            for start in range(0, count, len(filler)):
                fh.write(_text(filler[:count - start]))
            fh.write(_text(lines[-1:]))
        tracemalloc.start()
        try:
            result = check_trace_file(str(path))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert result.ok and result.quiescent, count
    assert peaks[1] - peaks[0] < 1 << 20, peaks
