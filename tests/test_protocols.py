from dataclasses import replace

import pytest

from securecast import protocols
from securecast.core import (PROTO_3T, PROTO_AV, PROTO_E, KeyChain, MessageId,
                             MulticastMessage, ProtocolKind, build_ack,
                             message_digest, sender_sig_data)
from securecast.protocols import (ACK, DELIVER, INFORM, REGULAR, VERIFY,
                                  Deliver, EvidencePair, Multicast,
                                  ProcessEngine, RaiseAlert, Send, SetTimer,
                                  Setting, Timeouts, WireMessage)
from securecast.quorum import (InvalidParamsError, QuorumParams, w3t,
                               w_active)

SEED = 11


def make_setting(kind=ProtocolKind.E, n=4, t=1, kappa=0, delta=0,
                 keychain=None, **kw):
    kc = keychain or KeyChain(n, b"unit", faulty=frozenset())
    return Setting(kind, QuorumParams(n, t), kc, SEED, SEED, kappa=kappa,
                   delta=delta, **kw)


def make_engine(me=0, **kw):
    """An engine on a setting of its own."""
    return ProcessEngine(me, make_setting(**kw))


def sends(actions):
    return [a for a in actions if isinstance(a, Send)]


def dests(actions):
    """The destinations of each Send in actions, in send order."""
    return [list(a.to) for a in sends(actions)]


def delivers_sent(actions):
    return [a for a in sends(actions) if a.msg.role == DELIVER]


def timers(actions):
    return [a for a in actions if isinstance(a, SetTimer)]


def regular_for(eng, sender_eng, payload=b"p"):
    """Drive sender_eng.wan_multicast and return (mid, digest, regular msg)."""
    actions = sender_eng.wan_multicast(payload)
    mid = MessageId(sender_eng.me, sender_eng.own_seq)
    reg = next(a.msg for a in sends(actions) if a.msg.role == REGULAR)
    return mid, sender_eng.pending[mid].digest, reg, actions


# -- initialization -----------------------------------------------------------


def test_init_delivery_vector_zero():
    # an empty vector until the first delivery, every sender reading 0;
    # then one slot per sender delivered, the first sender's slot 0
    kc = KeyChain(4, b"unit")
    eng = make_engine(me=2, n=4, t=1, keychain=kc)
    assert eng.delivery.typecode == "I" and eng.delivery.tolist() == []
    assert [eng.last_delivered(p) for p in range(4)] == [0, 0, 0, 0]
    assert eng.setting.sender_slots == {}
    sender = make_engine(me=0, n=4, t=1, keychain=kc)
    eng.handle(0, build_valid_deliver(kc, sender), now=3)
    assert eng.delivery.typecode == "I"
    assert eng.delivery.tolist() == [1]
    assert eng.setting.sender_slots == {0: 0}
    assert [eng.last_delivered(p) for p in range(4)] == [1, 0, 0, 0]


def test_init_act_requires_capacity():
    with pytest.raises(InvalidParamsError):
        make_engine(kind=ProtocolKind.ACT, n=10, t=3, kappa=4, delta=10)


def test_init_3t_requires_witness_range():
    with pytest.raises(InvalidParamsError):
        make_engine(kind=ProtocolKind.THREE_T, n=3, t=1)


# -- multicast ----------------------------------------------------------------


def test_e_multicast_contacts_everyone():
    eng = make_engine(n=4, t=1)
    actions = eng.wan_multicast(b"m")
    assert dests(actions) == [[0, 1, 2, 3]]
    assert all(a.msg.proto == PROTO_E and a.msg.role == REGULAR
               for a in sends(actions))


def test_3t_multicast_contacts_2t_plus_1_then_expands():
    eng = make_engine(kind=ProtocolKind.THREE_T, n=31, t=10)
    actions = eng.wan_multicast(b"m")
    mid = MessageId(0, 1)
    members = w3t(mid, eng.setting.params, SEED)
    [first] = dests(actions)
    assert first == sorted(first)
    assert len(first) == 21 and set(first) <= members
    assert len(timers(actions)) == 1
    # Expansion reaches exactly the remaining members of the range.
    more = eng.on_timer(("expand", mid), now=100)
    assert dests(more) == [sorted(members - set(first))]


def test_act_multicast_contacts_active_set_with_signature():
    eng = make_engine(kind=ProtocolKind.ACT, n=13, t=4, kappa=3, delta=3)
    actions = eng.wan_multicast(b"m")
    mid = MessageId(0, 1)
    wa = w_active(mid, 3, eng.setting.params, SEED)
    assert dests(actions) == [sorted(wa)]
    assert all(a.msg.sender_sig is not None for a in sends(actions))
    assert timers(actions) == [SetTimer(("recovery", mid),
                                        eng.setting.timeouts.act_active)]


# -- regulars and acks ---------------------------------------------------------


def test_first_regular_gets_signed_ack():
    kc = KeyChain(4, b"unit")
    sender = make_engine(me=1, keychain=kc)
    witness = make_engine(me=2, keychain=kc)
    mid, dig, reg, _ = regular_for(witness, sender)
    out = witness.handle(1, reg, now=1)
    assert len(sends(out)) == 1
    ack_msg = sends(out)[0].msg
    assert ack_msg.role == ACK and ack_msg.ack.signer == 2
    assert dests(out) == [[1]]


def test_conflicting_regular_gets_no_ack():
    kc = KeyChain(4, b"unit")
    sender = make_engine(me=1, keychain=kc)
    witness = make_engine(me=2, keychain=kc)
    mid, dig, reg, _ = regular_for(witness, sender)
    witness.handle(1, reg, now=1)
    evil = MulticastMessage(mid, b"other")
    reg2 = WireMessage(PROTO_E, REGULAR, mid, digest=message_digest(evil))
    assert witness.handle(1, reg2, now=2) == []
    assert mid in witness.conflicted


def test_duplicate_identical_regular_is_acked_again():
    kc = KeyChain(4, b"unit")
    sender = make_engine(me=1, keychain=kc)
    witness = make_engine(me=2, keychain=kc)
    _, _, reg, _ = regular_for(witness, sender)
    assert len(sends(witness.handle(1, reg, now=1))) == 1
    assert len(sends(witness.handle(1, reg, now=2))) == 1


def test_regular_from_non_sender_dropped():
    kc = KeyChain(4, b"unit")
    sender = make_engine(me=1, keychain=kc)
    witness = make_engine(me=2, keychain=kc)
    _, _, reg, _ = regular_for(witness, sender)
    assert witness.handle(3, reg, now=1) == []


def test_act_regular_probes_delta_peers():
    kc = KeyChain(31, b"unit")
    sender = make_engine(me=1, kind=ProtocolKind.ACT, n=31, t=10, kappa=3,
                         delta=5, keychain=kc)
    witness = make_engine(me=2, kind=ProtocolKind.ACT, n=31, t=10, kappa=3,
                          delta=5, keychain=kc)
    mid, dig, reg, _ = regular_for(witness, sender)
    out = witness.handle(1, reg, now=1)
    [informs] = [list(a.to) for a in sends(out) if a.msg.role == INFORM]
    assert len(set(informs)) == 5 and informs == sorted(informs)
    members = w3t(mid, witness.setting.params, SEED)
    assert all(p in members and p != 2 for p in informs)
    # No ack yet: all verifications outstanding.
    assert not any(a.msg.role == ACK for a in sends(out))


def test_act_regular_without_valid_signature_dropped():
    kc = KeyChain(31, b"unit")
    witness = make_engine(me=2, kind=ProtocolKind.ACT, n=31, t=10, kappa=3,
                          delta=5, keychain=kc)
    mid = MessageId(1, 1)
    m = MulticastMessage(mid, b"m")
    reg = WireMessage(PROTO_AV, REGULAR, mid, digest=message_digest(m))
    assert witness.handle(1, reg, now=1) == []
    bad_sig = kc.sign(3, sender_sig_data(mid, message_digest(m)))
    reg = WireMessage(PROTO_AV, REGULAR, mid, digest=message_digest(m),
                      sender_sig=bad_sig)
    assert witness.handle(1, reg, now=1) == []


def test_verify_threshold_releases_ack():
    kc = KeyChain(31, b"unit")
    sender = make_engine(me=1, kind=ProtocolKind.ACT, n=31, t=10, kappa=3,
                         delta=5, keychain=kc)
    witness = make_engine(me=2, kind=ProtocolKind.ACT, n=31, t=10, kappa=3,
                          delta=5, keychain=kc)
    mid, dig, reg, _ = regular_for(witness, sender)
    out = witness.handle(1, reg, now=1)
    [targets] = dests(out)
    ver = WireMessage(PROTO_AV, VERIFY, mid, digest=dig)
    for i, peer in enumerate(targets[:-1]):
        assert witness.handle(peer, ver, now=2 + i) == []
    final = witness.handle(targets[-1], ver, now=10)
    acks = [a for a in sends(final) if a.msg.role == ACK]
    assert len(acks) == 1 and list(acks[0].to) == [1]
    assert acks[0].msg.ack.proto == PROTO_AV
    assert acks[0].msg.ack.sender_sig == reg.sender_sig


def test_unsolicited_verify_dropped():
    kc = KeyChain(31, b"unit")
    sender = make_engine(me=1, kind=ProtocolKind.ACT, n=31, t=10, kappa=3,
                         delta=5, keychain=kc)
    witness = make_engine(me=2, kind=ProtocolKind.ACT, n=31, t=10, kappa=3,
                          delta=5, keychain=kc)
    mid, dig, reg, _ = regular_for(witness, sender)
    out = witness.handle(1, reg, now=1)
    [targets] = dests(out)
    outsider = next(p for p in range(31) if p not in targets and p != 2)
    ver = WireMessage(PROTO_AV, VERIFY, mid, digest=dig)
    assert witness.handle(outsider, ver, now=2) == []
    assert len(witness.probes[mid].got) == 0


def test_inform_fresh_returns_verify_and_is_idempotent():
    kc = KeyChain(31, b"unit")
    sender = make_engine(me=1, kind=ProtocolKind.ACT, n=31, t=10, kappa=3,
                         delta=5, keychain=kc)
    peer = make_engine(me=5, kind=ProtocolKind.ACT, n=31, t=10, kappa=3,
                       delta=5, keychain=kc)
    mid, dig, reg, _ = regular_for(peer, sender)
    inform = WireMessage(PROTO_AV, INFORM, mid, digest=dig,
                         sender_sig=reg.sender_sig)
    out1 = peer.handle(9, inform, now=1)
    out2 = peer.handle(9, inform, now=2)
    for out in (out1, out2):
        assert len(sends(out)) == 1
        assert sends(out)[0].msg.role == VERIFY and dests(out) == [[9]]


def test_conflicting_inform_with_proof_raises_alert():
    kc = KeyChain(31, b"unit")
    sender = make_engine(me=1, kind=ProtocolKind.ACT, n=31, t=10, kappa=3,
                         delta=5, keychain=kc)
    peer = make_engine(me=5, kind=ProtocolKind.ACT, n=31, t=10, kappa=3,
                       delta=5, keychain=kc)
    mid, dig, reg, _ = regular_for(peer, sender)
    peer.handle(9, WireMessage(PROTO_AV, INFORM, mid, digest=dig,
                               sender_sig=reg.sender_sig), now=1)
    other = MulticastMessage(mid, b"conflicting")
    dig2 = message_digest(other)
    sig2 = kc.sign(1, sender_sig_data(mid, dig2))
    out = peer.handle(8, WireMessage(PROTO_AV, INFORM, mid, digest=dig2,
                                     sender_sig=sig2), now=2)
    alerts = [a for a in out if isinstance(a, RaiseAlert)]
    assert len(alerts) == 1
    assert {alerts[0].evidence.digest_a, alerts[0].evidence.digest_b} == \
        {dig, dig2}
    assert 1 in peer.known_faulty


def test_ack_threshold_broadcasts_deliver_e():
    kc = KeyChain(4, b"unit")
    sender = make_engine(me=0, n=4, t=1, keychain=kc)
    sender.wan_multicast(b"m")
    mid = MessageId(0, 1)
    dig = sender.pending[mid].digest
    out = []
    for signer in (1, 2, 3):
        ack = build_ack(kc, PROTO_E, signer, mid, dig)
        msg = WireMessage(PROTO_E, ACK, mid, digest=dig, ack=ack)
        out = sender.handle(signer, msg, now=2)
        if signer < 3:
            assert out == []  # below the quorum of 3
    assert dests(out) == [[0, 1, 2, 3]]
    assert sends(out)[0].msg.role == DELIVER
    assert len(sends(out)[0].msg.acks) == 3


def test_ack_outside_3t_range_ignored():
    kc = KeyChain(100, b"unit")
    sender = make_engine(me=0, kind=ProtocolKind.THREE_T, n=100, t=10,
                         keychain=kc)
    sender.wan_multicast(b"m")
    mid = MessageId(0, 1)
    dig = sender.pending[mid].digest
    members = w3t(mid, sender.setting.params, SEED)
    outsider = next(p for p in range(100) if p not in members)
    ack = build_ack(kc, PROTO_3T, outsider, mid, dig)
    sender.handle(outsider, WireMessage(PROTO_3T, ACK, mid, digest=dig,
                                        ack=ack), now=1)
    assert len(sender.pending[mid].acks) == 0


def test_duplicate_and_relayed_acks_ignored():
    kc = KeyChain(4, b"unit")
    sender = make_engine(me=0, n=4, t=1, keychain=kc)
    sender.wan_multicast(b"m")
    mid = MessageId(0, 1)
    dig = sender.pending[mid].digest
    ack = build_ack(kc, PROTO_E, 1, mid, dig)
    msg = WireMessage(PROTO_E, ACK, mid, digest=dig, ack=ack)
    sender.handle(1, msg, now=1)
    sender.handle(1, msg, now=2)          # duplicate
    sender.handle(2, msg, now=3)          # relayed by a different process
    assert set(sender.pending[mid].acks) == {1}


def test_act_ack_threshold_is_whole_active_set():
    kc = KeyChain(31, b"unit")
    sender = make_engine(me=0, kind=ProtocolKind.ACT, n=31, t=10, kappa=3,
                         delta=5, keychain=kc)
    sender.wan_multicast(b"m")
    mid = MessageId(0, 1)
    pend = sender.pending[mid]
    wa = sorted(w_active(mid, 3, sender.setting.params, SEED))
    out = []
    for w in wa:
        ack = build_ack(kc, PROTO_AV, w, mid, pend.digest, pend.sender_sig)
        out = sender.handle(w, WireMessage(PROTO_AV, ACK, mid,
                                           digest=pend.digest, ack=ack), now=1)
    assert [list(a.to) for a in delivers_sent(out)] == [list(range(31))]


# -- recovery ------------------------------------------------------------------


def test_recovery_timeout_falls_back_to_3t():
    kc = KeyChain(31, b"unit")
    sender = make_engine(me=0, kind=ProtocolKind.ACT, n=31, t=10, kappa=3,
                         delta=5, keychain=kc)
    sender.wan_multicast(b"m")
    mid = MessageId(0, 1)
    pend = sender.pending[mid]
    wa = sorted(pend.rule.members)
    for w in wa[:2]:  # 2 of 3 acks only
        ack = build_ack(kc, PROTO_AV, w, mid, pend.digest, pend.sender_sig)
        sender.handle(w, WireMessage(PROTO_AV, ACK, mid, digest=pend.digest,
                                     ack=ack), now=1)
    out = sender.on_timer(("recovery", mid), now=50)
    # one Send to the whole range, unsigned, and no expand timer
    assert out == sends(out)
    [targets] = dests(out)
    assert targets == sorted(w3t(mid, sender.setting.params, SEED))
    assert len(targets) == 31
    assert [(a.msg.proto, a.msg.role, a.msg.sender_sig) for a in out] == [
        (PROTO_3T, REGULAR, None)]
    assert pend.rule.tag == PROTO_3T and pend.rule.count == 21
    assert pend.acks == {} and pend.contacted == frozenset(targets)
    # a second deadline does nothing
    assert sender.on_timer(("recovery", mid), now=60) == []


@pytest.mark.parametrize("kind, recovered", [
    (ProtocolKind.E, False), (ProtocolKind.ACT, False),
    (ProtocolKind.ACT, True)], ids=["e", "act-active", "act-recovery"])
def test_expand_timer_does_nothing_outside_3t(kind, recovered):
    """Only 3T widens: E's rule names no members to widen to, and ACT
    contacts its whole active set, then its whole recovery range."""
    act = dict(kappa=3, delta=5) if kind is ProtocolKind.ACT else {}
    sender = make_engine(me=0, kind=kind, n=31, t=10, **act)
    sender.wan_multicast(b"m")
    mid = MessageId(0, 1)
    if recovered:
        sender.on_timer(("recovery", mid), now=50)
    pend = sender.pending[mid]
    before = (pend.rule, pend.contacted)
    assert sender.on_timer(("expand", mid), now=100) == []
    assert (pend.rule, pend.contacted) == before and pend.acks == {}


def test_recovery_timeout_noop_after_completion():
    kc = KeyChain(31, b"unit")
    sender = make_engine(me=0, kind=ProtocolKind.ACT, n=31, t=10, kappa=3,
                         delta=5, keychain=kc)
    sender.wan_multicast(b"m")
    mid = MessageId(0, 1)
    pend = sender.pending[mid]
    for w in sorted(pend.rule.members):
        ack = build_ack(kc, PROTO_AV, w, mid, pend.digest, pend.sender_sig)
        sender.handle(w, WireMessage(PROTO_AV, ACK, mid, digest=pend.digest,
                                     ack=ack), now=1)
    assert sender.on_timer(("recovery", mid), now=50) == []


def test_recovery_timeout_noop_for_e():
    eng = make_engine(n=4, t=1)
    eng.wan_multicast(b"m")
    assert eng.on_timer(("recovery", MessageId(0, 1)), now=50) == []


def test_recovery_regime_accepts_3t_acks():
    kc = KeyChain(31, b"unit")
    sender = make_engine(me=0, kind=ProtocolKind.ACT, n=31, t=10, kappa=3,
                         delta=5, keychain=kc)
    sender.wan_multicast(b"m")
    mid = MessageId(0, 1)
    pend = sender.pending[mid]
    sender.on_timer(("recovery", mid), now=50)
    out = []
    for w in sorted(pend.rule.members)[:21]:
        ack = build_ack(kc, PROTO_3T, w, mid, pend.digest)
        out = sender.handle(w, WireMessage(PROTO_3T, ACK, mid,
                                           digest=pend.digest, ack=ack), now=51)
    assert [list(a.to) for a in delivers_sent(out)] == [list(range(31))]


def test_delayed_ack_honors_delay_and_conviction():
    kc = KeyChain(31, b"unit")
    sender = make_engine(me=1, kind=ProtocolKind.ACT, n=31, t=10, kappa=3,
                         delta=5, keychain=kc)
    mid, dig, _, _ = regular_for(make_engine(me=9, kind=ProtocolKind.ACT, n=31,
                                             t=10, kappa=3, delta=5,
                                             keychain=kc), sender)
    witness = make_engine(me=2, kind=ProtocolKind.ACT, n=31, t=10, kappa=3,
                          delta=5, keychain=kc)
    reg3t = WireMessage(PROTO_3T, REGULAR, mid, digest=dig)
    out = witness.handle(1, reg3t, now=5)
    assert sends(out) == []
    tmr = timers(out)[0]
    assert tmr.delay == witness.setting.timeouts.recovery_ack_delay
    # Undisturbed, the delayed ack fires.
    fired = witness.on_timer(tmr.timer_id, now=20)
    assert len(sends(fired)) == 1 and sends(fired)[0].msg.role == ACK
    # A conviction in the meantime suppresses it.
    witness2 = make_engine(me=3, kind=ProtocolKind.ACT, n=31, t=10, kappa=3,
                           delta=5, keychain=kc)
    out2 = witness2.handle(1, reg3t, now=5)
    witness2.known_faulty.add(1)
    assert witness2.on_timer(timers(out2)[0].timer_id, now=20) == []


# -- delivery ------------------------------------------------------------------


def build_valid_deliver(kc, sender_eng, payload=b"m"):
    sender_eng.wan_multicast(payload)
    mid = MessageId(sender_eng.me, sender_eng.own_seq)
    pend = sender_eng.pending[mid]
    signers = (range(pend.rule.count)
               if sender_eng.setting.kind is ProtocolKind.E else [])
    acks = tuple(build_ack(kc, PROTO_E, s, mid, pend.digest) for s in signers)
    return WireMessage(PROTO_E, DELIVER, mid, digest=pend.digest,
                       body=pend.message, acks=acks)


def test_deliver_in_order():
    kc = KeyChain(4, b"unit")
    sender = make_engine(me=0, n=4, t=1, keychain=kc)
    receiver = make_engine(me=2, n=4, t=1, keychain=kc)
    msg = build_valid_deliver(kc, sender)
    out = receiver.handle(0, msg, now=3)
    assert [a for a in out if isinstance(a, Deliver)]
    assert receiver.last_delivered(0) == 1


def test_deliver_out_of_order_held_back():
    kc = KeyChain(4, b"unit")
    sender = make_engine(me=0, n=4, t=1, keychain=kc)
    receiver = make_engine(me=2, n=4, t=1, keychain=kc)
    first = build_valid_deliver(kc, sender, b"m1")
    second = build_valid_deliver(kc, sender, b"m2")
    out = receiver.handle(0, second, now=3)
    assert not [a for a in out if isinstance(a, Deliver)]
    # nothing delivered from anyone
    assert receiver.delivery.tolist() == [] and receiver.last_delivered(0) == 0
    out = receiver.handle(0, first, now=4)
    delivered = [a.message.id.seq for a in out if isinstance(a, Deliver)]
    assert delivered == [1, 2]  # the gap fills and the holdback drains
    assert receiver.delivery.tolist() == [2]
    assert [receiver.last_delivered(p) for p in range(4)] == [2, 0, 0, 0]


def test_deliver_duplicate_suppressed():
    kc = KeyChain(4, b"unit")
    sender = make_engine(me=0, n=4, t=1, keychain=kc)
    receiver = make_engine(me=2, n=4, t=1, keychain=kc)
    msg = build_valid_deliver(kc, sender)
    receiver.handle(0, msg, now=3)
    assert receiver.handle(0, msg, now=4) == []


def test_deliver_below_quorum_dropped():
    kc = KeyChain(4, b"unit")
    sender = make_engine(me=0, n=4, t=1, keychain=kc)
    receiver = make_engine(me=2, n=4, t=1, keychain=kc)
    msg = build_valid_deliver(kc, sender)
    short = WireMessage(msg.proto, DELIVER, msg.subject, digest=msg.digest,
                        body=msg.body, acks=msg.acks[:2])
    assert receiver.handle(0, short, now=3) == []
    # nothing delivered from anyone
    assert receiver.delivery.tolist() == [] and receiver.last_delivered(0) == 0
    assert receiver.setting.sender_slots == {}


def test_deliver_keeps_the_message_for_reforward_and_respects_stability():
    kc = KeyChain(4, b"unit")
    sender = make_engine(me=0, n=4, t=1, keychain=kc)
    receiver = make_engine(me=2, n=4, t=1, keychain=kc)
    msg = build_valid_deliver(kc, sender)
    mid = msg.subject
    # A re-forward of an id not delivered here sends nothing.
    assert receiver.reforward(mid, {1, 2, 3}) == []
    # The delivery arms no timer: the world schedules the re-forward.
    out = receiver.handle(0, msg, now=3)
    assert out == [Deliver(msg.body, msg.acks, message_digest(msg.body))]
    assert receiver.delivered_record == {mid: msg}
    # The set is the world's own: read, never changed.  The receiver itself
    # may be listed; exactly one deliver goes out, never to the receiver,
    # and the id is forgotten.
    missing = {2, 3}
    out = receiver.reforward(mid, missing)
    assert missing == {2, 3}
    assert dests(out) == [[3]]
    assert sends(out)[0].msg.role == DELIVER
    assert sends(out)[0].msg is msg
    assert receiver.delivered_record == {}
    assert receiver.reforward(mid, {3}) == []
    assert receiver.on_timer(("reforward", mid), now=44) == []
    # No per-engine copy of the oracle's sets exists to keep.
    assert receiver.stability == {}
    with pytest.raises(TypeError):
        receiver.stability[mid] = missing


def test_stable_everywhere_reforward_releases_the_id():
    kc = KeyChain(4, b"unit")
    sender = make_engine(me=0, n=4, t=1, keychain=kc)
    receiver = make_engine(me=2, n=4, t=1, keychain=kc)
    first = build_valid_deliver(kc, sender, b"m1")
    second = build_valid_deliver(kc, sender, b"m2")
    receiver.handle(0, first, now=3)
    receiver.handle(0, second, now=4)
    a, b = first.subject, second.subject
    # An empty set (stable everywhere) sends nothing and releases the id.
    assert receiver.reforward(a, ()) == []
    assert set(receiver.delivered_record) == {b}
    # The timer of a released id sends nothing either.
    assert receiver.on_timer(("reforward", a), now=43) == []
    assert dests(receiver.reforward(b, {1, 3})) == [[1, 3]]
    assert receiver.delivered_record == {}


def test_reforward_without_a_notice_reaches_every_other_process():
    kc = KeyChain(4, b"unit")
    sender = make_engine(me=0, n=4, t=1, keychain=kc)
    receiver = make_engine(me=2, n=4, t=1, keychain=kc)
    msg = build_valid_deliver(kc, sender)
    receiver.handle(0, msg, now=3)
    out = receiver.on_timer(("reforward", msg.subject), now=43)
    assert dests(out) == [[0, 1, 3]]


def test_no_delivered_record_without_stability():
    kc = KeyChain(4, b"unit")
    sender = make_engine(me=0, n=4, t=1, keychain=kc)
    receiver = make_engine(me=2, n=4, t=1, keychain=kc,
                           timeouts=Timeouts.for_latency(5, stability=False))
    msg = build_valid_deliver(kc, sender)
    out = receiver.handle(0, msg, now=3)
    [dlv] = [a for a in out if isinstance(a, Deliver)]
    assert dlv.acks is msg.acks and not timers(out)
    assert receiver.delivered_record == {}


def test_alert_requires_two_valid_signatures():
    kc = KeyChain(31, b"unit")
    eng = make_engine(me=2, kind=ProtocolKind.ACT, n=31, t=10, kappa=3,
                      delta=5, keychain=kc)
    mid = MessageId(1, 1)
    da, db = message_digest(MulticastMessage(mid, b"a")), \
        message_digest(MulticastMessage(mid, b"b"))
    sa = kc.sign(1, sender_sig_data(mid, da))
    sb = kc.sign(1, sender_sig_data(mid, db))
    good = EvidencePair(mid, da, sa, db, sb)
    eng.handle(7, WireMessage(PROTO_AV, "alert", mid, evidence=good), now=1)
    assert eng.known_faulty == {1}
    # Bad evidence convicts nobody.
    eng2 = make_engine(me=3, kind=ProtocolKind.ACT, n=31, t=10, kappa=3,
                       delta=5, keychain=kc)
    forged = EvidencePair(mid, da, sa, db, sa)
    eng2.handle(7, WireMessage(PROTO_AV, "alert", mid, evidence=forged), now=1)
    same = EvidencePair(mid, da, sa, da, sa)
    eng2.handle(7, WireMessage(PROTO_AV, "alert", mid, evidence=same), now=1)
    assert eng2.known_faulty == set()


def test_alert_idempotent_and_shuns_traffic():
    kc = KeyChain(31, b"unit")
    eng = make_engine(me=2, kind=ProtocolKind.ACT, n=31, t=10, kappa=3,
                      delta=5, keychain=kc)
    mid = MessageId(1, 1)
    da, db = message_digest(MulticastMessage(mid, b"a")), \
        message_digest(MulticastMessage(mid, b"b"))
    ev = EvidencePair(mid, da, kc.sign(1, sender_sig_data(mid, da)),
                      db, kc.sign(1, sender_sig_data(mid, db)))
    alert = WireMessage(PROTO_AV, "alert", mid, evidence=ev)
    eng.handle(7, alert, now=1)
    eng.handle(8, alert, now=2)
    assert eng.known_faulty == {1}
    # All traffic from the convicted process is dropped.
    reg = WireMessage(PROTO_3T, REGULAR, MessageId(1, 2), digest=da)
    assert eng.handle(1, reg, now=3) == []


def test_delivered_message_counts_as_received_for_conflicts():
    # A process that learned m only from a deliver must refuse to back a
    # conflicting recovery request for the same id.
    kc = KeyChain(31, b"unit")
    sender = make_engine(me=0, kind=ProtocolKind.ACT, n=31, t=10, kappa=3,
                         delta=5, keychain=kc)
    receiver = make_engine(me=7, kind=ProtocolKind.ACT, n=31, t=10, kappa=3,
                           delta=5, keychain=kc)
    sender.wan_multicast(b"m")
    mid = MessageId(0, 1)
    pend = sender.pending[mid]
    acks = tuple(build_ack(kc, PROTO_AV, w, mid, pend.digest, pend.sender_sig)
                 for w in sorted(pend.rule.members))
    deliver = WireMessage(PROTO_AV, DELIVER, mid, digest=pend.digest,
                          body=pend.message, acks=acks)
    out = receiver.handle(0, deliver, now=3)
    assert [a for a in out if isinstance(a, Deliver)]
    conflicting = message_digest(MulticastMessage(mid, b"other"))
    reg = WireMessage(PROTO_3T, REGULAR, mid, digest=conflicting)
    assert receiver.handle(0, reg, now=4) == []
    assert mid in receiver.conflicted


def test_act_slack_accepts_short_active_set():
    kc = KeyChain(31, b"unit")
    sender = make_engine(me=0, kind=ProtocolKind.ACT, n=31, t=10, kappa=3,
                         delta=5, slack_c=1, keychain=kc)
    sender.wan_multicast(b"m")
    mid = MessageId(0, 1)
    pend = sender.pending[mid]
    assert pend.rule.count == len(pend.rule.members) - 1
    out = []
    for w in sorted(pend.rule.members)[:pend.rule.count]:
        ack = build_ack(kc, PROTO_AV, w, mid, pend.digest, pend.sender_sig)
        out = sender.handle(w, WireMessage(PROTO_AV, ACK, mid,
                                           digest=pend.digest, ack=ack), now=1)
    bcasts = delivers_sent(out)
    assert len(bcasts) == 1
    # A validator with the same slack accepts the short set; without slack
    # it insists on the whole active witness set.
    lenient = make_engine(me=5, kind=ProtocolKind.ACT, n=31, t=10, kappa=3,
                          delta=5, slack_c=1, keychain=kc)
    strict = make_engine(me=6, kind=ProtocolKind.ACT, n=31, t=10, kappa=3,
                         delta=5, slack_c=0, keychain=kc)
    dmsg = bcasts[0].msg
    assert [a for a in lenient.handle(0, dmsg, now=2) if isinstance(a, Deliver)]
    assert strict.handle(0, dmsg, now=2) == []


def test_holdback_capacity_bounded():
    kc = KeyChain(4, b"unit")
    sender = make_engine(me=0, n=4, t=1, keychain=kc)
    receiver = make_engine(me=2, n=4, t=1, keychain=kc)
    cap = protocols.HOLDBACK_CAP
    msgs = [build_valid_deliver(kc, sender, b"m%d" % i)
            for i in range(cap + 3)]
    for m in msgs[1:]:  # seqs 2..cap+3 arrive early
        receiver.handle(0, m, now=3)
    # the earliest cap are held, the rest dropped
    assert sorted(receiver.holdback[0]) == list(range(2, cap + 2))


def test_multicast_action_leads_every_protocol():
    """A multicast's first action names its id and digest, before any
    send or timer."""
    for kind, extra in ((ProtocolKind.E, {}), (ProtocolKind.THREE_T, {}),
                        (ProtocolKind.ACT, dict(kappa=3, delta=3))):
        eng = make_engine(me=2, kind=kind, n=13, t=4, **extra)
        for seq, payload in ((1, b"m"), (2, b"n")):
            out = eng.wan_multicast(payload)
            mid = MessageId(2, seq)
            dig = message_digest(MulticastMessage(mid, payload))
            assert out[0] == Multicast(mid, dig), kind
            assert not any(type(a) is Multicast for a in out[1:]), kind


def test_sender_releases_its_pending_entry_at_completion():
    """Once its ack set is complete the sender keeps no pending entry; a
    late ack and the 3T widening and ACT recovery timers then do nothing."""
    kc = KeyChain(31, b"unit")
    # 3T: complete on 2t+1 acks from the first contacts
    sender = make_engine(me=0, kind=ProtocolKind.THREE_T, n=31, t=10,
                         keychain=kc)
    sender.wan_multicast(b"m")
    mid = MessageId(0, 1)
    pend = sender.pending[mid]
    first = sorted(pend.contacted)
    late = sorted(pend.rule.members - pend.contacted)[0]
    out = []
    for w in first:
        ack = build_ack(kc, PROTO_3T, w, mid, pend.digest)
        out = sender.handle(w, WireMessage(PROTO_3T, ACK, mid,
                                           digest=pend.digest, ack=ack), now=1)
    [deliver] = delivers_sent(out)
    assert [type(a) for a in sender.handle(0, deliver.msg, now=2)] == [Deliver]
    assert mid not in sender.pending
    ack = build_ack(kc, PROTO_3T, late, mid, pend.digest)
    assert sender.handle(late, WireMessage(PROTO_3T, ACK, mid,
                                           digest=pend.digest, ack=ack),
                         now=3) == []
    assert sender.on_timer(("expand", mid), now=20) == []
    assert sender.on_timer(("recovery", mid), now=30) == []
    # ACT: complete on the active witnesses' acks
    sender = make_engine(me=0, kind=ProtocolKind.ACT, n=31, t=10, kappa=3,
                         delta=5, keychain=kc)
    sender.wan_multicast(b"m")
    pend = sender.pending[mid]
    for w in sorted(pend.rule.members):
        ack = build_ack(kc, PROTO_AV, w, mid, pend.digest, pend.sender_sig)
        msg = WireMessage(PROTO_AV, ACK, mid, digest=pend.digest, ack=ack)
        out = sender.handle(w, msg, now=1)
    [deliver] = delivers_sent(out)
    assert [type(a) for a in sender.handle(0, deliver.msg, now=2)] == [Deliver]
    assert sender.pending == {}
    assert sender.handle(w, msg, now=3) == []
    assert sender.on_timer(("recovery", mid), now=30) == []
    assert sender.on_timer(("expand", mid), now=30) == []


def test_a_faulty_engine_arms_its_own_reforward():
    """With stability on, an engine whose process is faulty (an adversary's
    shadow) follows its Deliver with its own re-forward timer, 8*hi later;
    a correct engine, or any engine with stability off, only delivers."""
    kc = KeyChain(4, b"unit", faulty=frozenset({2}))
    msg = build_valid_deliver(kc, make_engine(me=0, n=4, t=1, keychain=kc))
    dlv = Deliver(msg.body, msg.acks, message_digest(msg.body))
    hi = 3
    for stability in (True, False):
        setting = make_setting(n=4, t=1, keychain=kc,
                               timeouts=Timeouts.for_latency(hi, stability))
        shadow, correct = ProcessEngine(2, setting), ProcessEngine(3, setting)
        assert shadow.handle(0, msg, now=3) == (
            [dlv, SetTimer(("reforward", msg.subject), 8 * hi)] if stability
            else [dlv])
        assert correct.handle(0, msg, now=3) == [dlv]
        if stability:  # the timer re-forwards to every other process
            assert dests(shadow.on_timer(("reforward", msg.subject),
                                         now=30)) == [[0, 1, 3]]


# -- fan-outs -----------------------------------------------------------------


def test_every_fan_out_is_one_send_in_per_destination_order():
    """A multicast's regular, a 3T widening, a probe's informs, an ACT
    recovery, a deliver and a re-forward are each one Send, naming its
    destinations in the order one Send per destination went out; a
    re-forward with nobody left to reach sends nothing."""
    # E: the regular to all n, then the deliver to all n
    kc = KeyChain(7, b"unit")
    e = make_engine(me=3, n=7, t=2, keychain=kc)
    out = e.wan_multicast(b"m")
    mid = MessageId(3, 1)
    dig = e.pending[mid].digest
    assert out[0] == Multicast(mid, dig)
    assert out[1:] == sends(out) and dests(out) == [list(range(7))]
    for signer in range(e.pending[mid].rule.count):
        ack = build_ack(kc, PROTO_E, signer, mid, dig)
        out = e.handle(signer, WireMessage(PROTO_E, ACK, mid, digest=dig,
                                           ack=ack), now=2)
    assert out == sends(out) and dests(out) == [list(range(7))]
    assert out[0].msg.role == DELIVER
    # 3T: the first 2t+1 of the range, then the rest, each in pid order
    three_t = make_engine(kind=ProtocolKind.THREE_T, n=31, t=10)
    out = three_t.wan_multicast(b"m")
    mid = MessageId(0, 1)
    members = w3t(mid, three_t.setting.params, SEED)
    first = sorted(three_t.pending[mid].contacted)
    assert dests(out) == [first] and len(first) == 21
    assert dests(three_t.on_timer(("expand", mid), now=20)) == \
        [sorted(members - set(first))]
    # ACT: the kappa regulars, a witness's delta informs, the 3t+1
    # recovery regulars
    kc = KeyChain(31, b"unit")
    act = dict(kind=ProtocolKind.ACT, n=31, t=10, kappa=3, delta=5,
               keychain=kc)
    sender, witness = make_engine(me=1, **act), make_engine(me=2, **act)
    out = sender.wan_multicast(b"m")
    mid = MessageId(1, 1)
    assert dests(out) == [sorted(w_active(mid, 3, sender.setting.params, SEED))]
    out = witness.handle(1, sends(out)[0].msg, now=1)
    assert out == sends(out) and out[0].msg.role == INFORM
    assert dests(out) == [sorted(witness.probes[mid].targets)]
    assert len(out[0].to) == 5
    out = sender.on_timer(("recovery", mid), now=30)
    assert out == sends(out)
    assert dests(out) == [sorted(w3t(mid, sender.setting.params, SEED))]
    # a re-forward: the sorted missing set minus the re-forwarder
    sender = make_engine(me=0, n=4, t=1, keychain=KeyChain(4, b"unit"))
    receiver = make_engine(me=2, n=4, t=1, keychain=sender.setting.keychain)
    for payload in (b"m1", b"m2", b"m3"):
        receiver.handle(0, build_valid_deliver(sender.setting.keychain,
                                               sender,
                                               payload), now=3)
    assert dests(receiver.reforward(MessageId(0, 1), {3, 2, 1})) == [[1, 3]]
    assert receiver.reforward(MessageId(0, 2), {2}) == []
    assert receiver.reforward(MessageId(0, 3), ()) == []


# -- delivery verdicts ---------------------------------------------------------


@pytest.fixture
def judged(monkeypatch):
    """Counts the delivery predicate's calls from the engines."""
    calls = []
    real = protocols.accepts

    def counting(rules, signers_of):
        calls.append(1)
        return real(rules, signers_of)

    monkeypatch.setattr(protocols, "accepts", counting)
    return calls


def copy_of(msg):
    """An equal deliver that is a distinct object."""
    twin = WireMessage(msg.proto, msg.role, msg.subject, digest=msg.digest,
                       body=msg.body, acks=msg.acks)
    assert twin == msg and twin is not msg
    return twin


def test_duplicate_deliver_never_reaches_the_predicate(judged):
    kc = KeyChain(4, b"unit")
    sender = make_engine(me=0, n=4, t=1, keychain=kc)
    receiver = make_engine(me=2, n=4, t=1, keychain=kc)
    msg = build_valid_deliver(kc, sender)
    assert [a for a in receiver.handle(0, msg, now=3) if isinstance(a, Deliver)]
    assert len(judged) == 1
    # A distinct copy would carry no verdict; being a duplicate, it is
    # dropped before any check.
    assert receiver.handle(0, copy_of(msg), now=4) == []
    assert receiver.handle(0, msg, now=5) == []
    assert len(judged) == 1


def test_holdback_chain_released_in_order_with_same_actions(judged):
    kc = KeyChain(4, b"unit")
    sender = make_engine(me=0, n=4, t=1, keychain=kc)
    receiver = make_engine(me=2, n=4, t=1, keychain=kc)
    msgs = [build_valid_deliver(kc, sender, b"m%d" % i) for i in range(4)]
    for m in (msgs[3], msgs[1], msgs[2]):
        assert receiver.handle(0, m, now=3) == []
    assert sorted(receiver.holdback[0]) == [2, 3, 4]
    out = receiver.handle(0, msgs[0], now=4)
    assert out == [Deliver(m.body, m.acks, message_digest(m.body))
                   for m in msgs]
    assert receiver.last_delivered(0) == 4 and 0 not in receiver.holdback
    assert receiver.delivered_record == {m.subject: m for m in msgs}
    assert len(judged) == 4  # each held message was judged once, on arrival


def forged_delivers(kc):
    """Deliver messages whose acks do not meet the rule, one per way to
    fall short: too few E acks, AV acks from outside W_active (under ACT),
    and E acks over another digest."""
    e_sender = make_engine(me=0, n=31, t=10, keychain=kc)
    e_sender.wan_multicast(b"m")
    mid = MessageId(0, 1)
    pend = e_sender.pending[mid]
    few = tuple(build_ack(kc, PROTO_E, s, mid, pend.digest)
                for s in range(pend.rule.count - 1))
    other = message_digest(MulticastMessage(mid, b"other"))
    elsewhere = tuple(build_ack(kc, PROTO_E, s, mid, other)
                      for s in range(pend.rule.count))
    out = [(ProtocolKind.E, WireMessage(PROTO_E, DELIVER, mid,
                                        digest=pend.digest, body=pend.message,
                                        acks=acks))
           for acks in (few, elsewhere)]
    act_sender = make_engine(me=1, kind=ProtocolKind.ACT, n=31, t=10,
                             kappa=3, delta=5, keychain=kc)
    act_sender.wan_multicast(b"m")
    mid = MessageId(1, 1)
    pend = act_sender.pending[mid]
    outsiders = [p for p in range(31) if p not in pend.rule.members]
    acks = tuple(build_ack(kc, PROTO_AV, w, mid, pend.digest, pend.sender_sig)
                 for w in outsiders[:len(pend.rule.members)])
    out.append((ProtocolKind.ACT, WireMessage(
        PROTO_AV, DELIVER, mid, digest=pend.digest, body=pend.message,
        acks=acks)))
    return out


def test_forged_deliver_rejected_at_every_receiver(judged):
    kc = KeyChain(31, b"unit")
    for kind, forged in forged_delivers(kc):
        extra = dict(kappa=3, delta=5) if kind is ProtocolKind.ACT else {}
        # one world's setting: the deliver is judged once among its engines
        setting = make_setting(kind=kind, n=31, t=10, keychain=kc, **extra)
        group = [ProcessEngine(p, setting) for p in range(2, 31)]
        before = len(judged)
        for eng in group:
            for now in (3, 4):
                assert eng.handle(forged.subject.sender, forged, now) == []
            assert eng.delivery.tolist() == []
            assert forged.subject not in eng.recorded
        assert setting.sender_slots == {}
        assert len(judged) - before == 1, kind


def test_equal_but_distinct_deliver_is_judged_afresh(judged):
    kc = KeyChain(4, b"unit")
    sender = make_engine(me=0, n=4, t=1, keychain=kc)
    setting = make_setting(n=4, t=1, keychain=kc)
    a, b = (ProcessEngine(p, setting) for p in (2, 3))
    msg = build_valid_deliver(kc, sender)
    assert [x for x in a.handle(0, msg, now=3) if isinstance(x, Deliver)]
    assert len(judged) == 1
    assert [x for x in b.handle(0, copy_of(msg), now=3)
            if isinstance(x, Deliver)]
    assert len(judged) == 2


def test_shared_verdicts_never_cross_rules():
    # The slack case above, the strict setting derived from the lenient
    # one: the verdict of the lenient rule must not answer for the strict
    # one, since a deliver's cached verdict names the setting it was
    # judged under.
    kc = KeyChain(31, b"unit")
    sender = make_engine(me=0, kind=ProtocolKind.ACT, n=31, t=10, kappa=3,
                         delta=5, slack_c=1, keychain=kc)
    sender.wan_multicast(b"m")
    mid = MessageId(0, 1)
    pend = sender.pending[mid]
    acks = tuple(build_ack(kc, PROTO_AV, w, mid, pend.digest, pend.sender_sig)
                 for w in sorted(pend.rule.members)[:pend.rule.count])
    dmsg = WireMessage(PROTO_AV, DELIVER, mid, digest=pend.digest,
                       body=pend.message, acks=acks)
    lenient = ProcessEngine(5, make_setting(
        kind=ProtocolKind.ACT, n=31, t=10, kappa=3, delta=5, slack_c=1,
        keychain=kc))
    strict = ProcessEngine(6, replace(lenient.setting, slack_c=0))
    assert strict.setting is not lenient.setting
    assert [a for a in lenient.handle(0, dmsg, now=2) if isinstance(a, Deliver)]
    assert dmsg.judged[0] is lenient.setting and dmsg.judged[1] is not None
    assert strict.handle(0, dmsg, now=2) == []
    assert dmsg.judged == (strict.setting, None)
    assert lenient.handle(0, dmsg, now=3) == []  # duplicate
