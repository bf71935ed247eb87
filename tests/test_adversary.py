import pytest

from securecast import adversary
from securecast.core import (PROTO_3T, PROTO_AV, PROTO_E, KeyChain, MessageId,
                             ProtocolKind, valid_signers)
from securecast.protocols import DELIVER, Multicast, Send, Setting
from securecast.quorum import QuorumParams, accepts, w_active
from securecast.simnet import SimConfig, build_world, run_world


def run(protocol, n, t, adversary, seed, messages=1, **kw):
    cfg = SimConfig(protocol=protocol, n=n, t=t, adversary=adversary,
                    messages=messages, seed=seed, **kw)
    return run_world(cfg)


def assert_absolute_properties(report):
    """Integrity/Agreement aggregates visible from the run report."""
    assert report.quiescent
    assert report.conflicts == 0
    correct = set(range(report.n)) - report.faulty
    # Reliability: whoever delivered an id, every correct process did.
    for mid, slots in report.delivered_digests.items():
        delivered_by = set().union(*slots.values())
        assert delivered_by == correct, (mid, delivered_by)


def test_silent_adversary_preserves_everything():
    for proto, extra in (("e", {}), ("3t", {}),
                         ("act", {"kappa": 2, "delta": 3})):
        for seed in range(3):
            r = run(proto, 13, 4, "silent", seed, messages=2, **extra)
            assert_absolute_properties(r)
            # Every correct sender self-delivered.
            senders = {mid.sender for mid in r.delivered_digests}
            assert len(r.delivered_digests) == 2
            assert all(s not in r.faulty for s in senders)


def test_crash_adversary_preserves_everything():
    for proto, extra in (("e", {}), ("3t", {}),
                         ("act", {"kappa": 2, "delta": 3})):
        r = run(proto, 13, 4, "crash", 7, messages=2, crash_after=2, **extra)
        assert_absolute_properties(r)


def test_equivocating_sender_never_splits_3t():
    for seed in range(10):
        r = run("3t", 13, 4, "equivocate", seed)
        assert r.quiescent and r.conflicts == 0


def test_equivocating_sender_never_splits_e():
    for seed in range(10):
        r = run("e", 10, 3, "equivocate", seed)
        assert r.quiescent and r.conflicts == 0


def test_collusive_team_never_splits_e_or_3t():
    for proto in ("e", "3t"):
        for seed in range(10):
            r = run(proto, 13, 4, "collusive", seed)
            assert r.quiescent and r.conflicts == 0, (proto, seed)


def test_act_equivocation_triggers_alerts():
    alerts = 0
    for seed in range(6):
        r = run("act", 13, 4, "equivocate", seed, kappa=2, delta=3)
        assert r.quiescent
        alerts += r.alerts_raised
    assert alerts > 0


def test_collusive_case1_attack_succeeds_on_forced_set():
    # Direct construction: the faulty set is exactly the active witness set
    # of the attacked message, so both conflicting ack sets can be minted.
    cfg = SimConfig(protocol="act", n=31, t=10, kappa=3, delta=5,
                    adversary="none", messages=1, seed=3, senders="faulty")
    world = build_world(cfg)
    sender = 1
    mid = MessageId(sender, 1)
    wa = w_active(mid, 3, world.params, world.witness_seed)
    faulty = frozenset(set(wa) | {sender})
    assert len(faulty) <= 10
    cfg2 = SimConfig(protocol="act", n=31, t=10, kappa=3, delta=5,
                     adversary="collusive", messages=1, seed=3,
                     faulty_set=tuple(sorted(faulty)), senders="faulty")
    world2 = build_world(cfg2)
    report = world2.run_to_quiescence()
    assert report.attacked == 1
    assert report.attacked_conflicts == 1
    assert report.conflicts == 1


def test_regime_splitter_stays_below_bound():
    from securecast.analysis import AnalysisParams, overall_conflict_bound
    from securecast.simnet import run_trial_batch
    cfg = SimConfig(protocol="act", n=31, t=10, kappa=3, delta=5,
                    adversary="regime-split", messages=1, seed=1000,
                    record_trace=False, stability=False)
    attacked, conflicts = run_trial_batch(cfg, 400)
    assert attacked == 400
    bound = overall_conflict_bound(AnalysisParams(31, 10, 3, 5)).specific
    rate = conflicts / attacked
    sigma = (bound * (1 - bound) / attacked) ** 0.5
    assert rate <= bound + 3 * sigma
    assert conflicts > 0  # the attack does land sometimes


def test_regime_splitter_with_slack_meets_its_bound():
    # With C=1 the faulty active witnesses alone suffice whenever at most
    # one distinct correct one was drawn; the adversary must attack all of
    # those ids, and the slack-aware bound must still hold.
    from securecast.analysis import (AnalysisParams, overall_conflict_bound,
                                     p_faulty_meet_active)
    from securecast.simnet import run_trial_batch
    cfg = SimConfig(protocol="act", n=31, t=10, kappa=3, delta=5, slack_c=1,
                    adversary="regime-split", messages=1, seed=1000,
                    record_trace=False, stability=False)
    attacked, conflicts = run_trial_batch(cfg, 2000)
    assert attacked == 2000
    rate = conflicts / attacked
    bound = overall_conflict_bound(AnalysisParams(31, 10, 3, 5, 1)).specific
    floor = p_faulty_meet_active(31, 10 / 31, 3, 1)
    assert rate <= bound + 3 * (bound * (1 - bound) / attacked) ** 0.5
    assert rate >= floor - 3 * (floor * (1 - floor) / attacked) ** 0.5


def test_faulty_set_is_nonadaptive():
    # Same adversary seed, different witness seed: same faulty set.
    a = build_world(SimConfig(protocol="e", n=10, t=3, adversary="silent",
                              seed=5, witness_seed=1))
    b = build_world(SimConfig(protocol="e", n=10, t=3, adversary="silent",
                              seed=5, witness_seed=999))
    assert a.faulty == b.faulty
    c = build_world(SimConfig(protocol="e", n=10, t=3, adversary="silent",
                              seed=5, adversary_seed=42))
    assert c.faulty != a.faulty or c.adversary_seed != a.adversary_seed


def test_adversary_cannot_forge_in_any_run(monkeypatch):
    # Structural confinement: a full adversarial run never signs with a
    # correct process's key on behalf of anyone but that process.
    signs = []
    sign = KeyChain.sign

    def logged(self, signer, data, caller=None):
        signs.append((signer, signer if caller is None else caller))
        return sign(self, signer, data, caller)
    monkeypatch.setattr(KeyChain, "sign", logged)
    for adv in ("equivocate", "collusive"):
        cfg = SimConfig(protocol="act", n=13, t=4, kappa=2, delta=3,
                        adversary=adv, messages=1, seed=2)
        signs.clear()
        world = build_world(cfg)
        world.run_to_quiescence()
        assert signs
        for signer, caller in signs:
            if signer not in world.faulty:
                assert caller == signer


def test_seq_burner_attacks_only_favorable_ids():
    cfg = SimConfig(protocol="act", n=13, t=4, kappa=2, delta=3,
                    adversary="seq-burner", messages=12, seed=9,
                    message_spacing=60)
    world = build_world(cfg)
    report = world.run_to_quiescence()
    assert report.quiescent
    adv = world.adversary
    for mid in adv.attacked_ids:
        wa = w_active(mid, 2, world.params, world.witness_seed)
        assert wa <= world.faulty


def test_each_multicast_attack_is_chosen_by_the_faulty_active_witnesses():
    """On ACT ids whose faulty active witnesses alone meet the delivery
    rule, collusive, regime-split and seq-burner fabricate both ack sets
    (conflicting delivers, no regular); on every other id they do not, and
    equivocate never fabricates.  Each attack names both versions it
    multicasts before its first send."""
    faulty = frozenset({1, 4, 7, 9})
    setting = Setting(ProtocolKind.ACT, QuorumParams(13, 4),
                      KeyChain(13, b"unit", faulty=faulty), 5, 5, kappa=2,
                      delta=3, slack_c=1)
    ids = [MessageId(1, seq) for seq in range(1, 41)]
    suffice = [accepts(setting.rules(mid), lambda tag: faulty)
               for mid in ids]
    assert any(suffice) and not all(suffice)
    for strategy in adversary.ATTACK_STRATEGIES:
        adv = adversary.Adversary(strategy, setting, faulty)
        fabricated = []
        for mid in ids:
            out = adv._on_multicast(1, b"p", now=1)
            kinds = [type(a) for a in out]
            first_send = kinds.index(Send)
            assert Multicast in kinds[:first_send]
            assert Multicast not in kinds[first_send:]
            assert all(a.id == mid for a in out if type(a) is Multicast)
            fabricated.append(
                any(a.msg.role == DELIVER for a in out if type(a) is Send))
            # each version sent is named, and an attack names two
            named = [a.digest for a in out if type(a) is Multicast]
            assert {a.msg.digest for a in out if type(a) is Send} <= set(named)
            filler = strategy == "seq-burner" and not fabricated[-1]
            assert len(set(named)) == len(named) == (1 if filler else 2)
        assert adv.trial_ids == ids
        if strategy == "equivocate":
            assert not any(fabricated)
        else:
            assert fabricated == suffice, strategy


@pytest.mark.parametrize("strategy, proto, extra", [
    ("regime-split", "act", {"n": 31, "t": 10, "kappa": 3, "delta": 5}),
    ("collusive", "act", {"n": 13, "t": 4, "kappa": 2, "delta": 3}),
    ("collusive", "3t", {"n": 13, "t": 4})])
def test_incremental_signer_sets_match_full_validation(monkeypatch, strategy,
                                                       proto, extra):
    """After every collected ack, each checked side's per-tag signer sets
    equal valid_signers over its whole ack list, its delivered flag is the
    delivery rule over them, and every ack was validated exactly once."""
    fed = 0

    def counting(acks, tag, *rest):
        nonlocal fed
        fed += sum(1 for a in acks if a.proto == tag)
        return valid_signers(acks, tag, *rest)
    monkeypatch.setattr(adversary, "valid_signers", counting)
    collected = 0
    for seed in range(20):
        world = build_world(SimConfig(protocol=proto, adversary=strategy,
                                      messages=2, seed=seed,
                                      record_trace=False, stability=False,
                                      **extra))
        adv, keychain = world.adversary, world.keychain
        collect = adv._collect

        def checked_collect(ack):
            nonlocal collected
            out = collect(ack)
            collected += 1
            atk = adv.attacks[ack.subject]
            for side in (atk.a, atk.b):
                if side is None or not side.checked:
                    continue
                assert side.checked == len(side.acks)

                def full(tag):
                    return valid_signers(side.acks, tag, ack.subject,
                                         side.digest, keychain)
                for tag in (PROTO_E, PROTO_3T, PROTO_AV):
                    assert side.signers.get(tag, set()) == full(tag), tag
                assert side.delivered == accepts(
                    adv.setting.rules(ack.subject), full)
            return out
        adv._collect = checked_collect
        assert world.run_to_quiescence().quiescent
        assert fed == sum(side.checked for atk in adv.attacks.values()
                          for side in (atk.a, atk.b) if side is not None)
        fed = 0
    assert collected > 0
