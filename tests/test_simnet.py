import gc
import heapq
import random
import tracemalloc
import weakref
from array import array
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from securecast import protocols, quorum, simnet
from securecast.core import keyed_seed
from securecast.core import PROTO_AV, KeyChain, MessageId, ProtocolKind
from securecast.protocols import (ALERT_LATENCY_BOUND, DELIVER, INFORM,
                                  REGULAR, SM_NOTIFY, VERIFY, ProcessEngine,
                                  Send, Timeouts, WireMessage)
from securecast.quorum import QuorumParams
from securecast.simnet import (EV_MSG, EV_TIMER, RETRANSMIT_INTERVAL,
                               ConfigError, SimConfig, SimWorld, build_world,
                               run_world)


def test_build_world_minimal():
    world = build_world(SimConfig(protocol="e", n=4, t=1, messages=1, seed=0))
    assert len(world.engines) == 4
    assert all(e is not None for e in world.engines)


def test_derived_timers_pinned():
    assert Timeouts.for_latency(5) == Timeouts(30, 20, 15, 40)
    assert Timeouts.for_latency(5, stability=False) == Timeouts(30, 20, 15, None)
    world = build_world(SimConfig(protocol="3t", n=4, t=1, latency_hi=5))
    engine = ProcessEngine(0, ProtocolKind.THREE_T, QuorumParams(4, 1),
                           KeyChain(4, b"unit", faulty=frozenset()), 1, 1)
    assert engine.timeouts == world.timeouts == Timeouts.for_latency(5)
    assert world.stability_lag == 20


def test_derived_recovery_delay_exceeds_alert_bound():
    for hi in (1, 2, 5, 8, 50):
        for stability in (True, False):
            world = build_world(SimConfig(protocol="act", n=13, t=4, kappa=2,
                                          delta=3, latency_hi=hi,
                                          stability=stability))
            assert world.timeouts == Timeouts.for_latency(hi, stability)
            assert world.timeouts.recovery_ack_delay > ALERT_LATENCY_BOUND
            assert (world.timeouts.reforward is None) == (not stability)


def test_config_rejects_act_capacity_violation():
    with pytest.raises(ConfigError) as err:
        build_world(SimConfig(protocol="act", n=10, t=3, kappa=4, delta=10))
    assert "kappa" in str(err.value)


def test_config_rejects_small_n_for_t():
    with pytest.raises(ConfigError):
        build_world(SimConfig(protocol="3t", n=3, t=1))
    # An explicit faulty set must respect the same threshold and the ids.
    with pytest.raises(ConfigError) as err:
        build_world(SimConfig(protocol="e", n=7, t=2, adversary="silent",
                              faulty_set=(0, 1, 2)))
    assert err.value.field == "num_faulty"
    with pytest.raises(ConfigError) as err:
        build_world(SimConfig(protocol="e", n=7, t=2, adversary="silent",
                              faulty_set=(0, 99)))
    assert err.value.field == "faulty_set"
    world = build_world(SimConfig(protocol="e", n=7, t=2, adversary="silent",
                                  faulty_set=(0, 1)))
    assert world.faulty == {0, 1}
    assert world.run_to_quiescence().quiescent


def test_config_rejects_unknown_sender_mode():
    with pytest.raises(ConfigError) as err:
        build_world(SimConfig(protocol="e", n=4, t=1, senders="round_robin"))
    assert err.value.field == "senders"
    for mode in ("auto", "uniform", "faulty"):
        build_world(SimConfig(protocol="e", n=4, t=1, senders=mode))


def test_config_rejects_negative_crash_after():
    with pytest.raises(ConfigError) as err:
        SimConfig(protocol="e", n=4, t=1, adversary="crash",
                  crash_after=-1).validate()
    assert err.value.field == "crash_after"
    SimConfig(protocol="e", n=4, t=1, adversary="crash",
              crash_after=0).validate()


def test_identical_config_identical_trace():
    cfg = SimConfig(protocol="act", n=13, t=4, kappa=2, delta=3,
                    adversary="equivocate", messages=2, seed=123)
    t1 = _trace_of(cfg)
    t2 = _trace_of(cfg)
    assert t1 == t2


def _trace_of(cfg):
    world = build_world(cfg)
    world.run_to_quiescence()
    return world.trace_text()


def test_different_seed_different_trace():
    base = dict(protocol="e", n=4, t=1, messages=1)
    assert _trace_of(SimConfig(seed=1, **base)) != \
        _trace_of(SimConfig(seed=2, **base))


def test_fifo_per_channel():
    cfg = SimConfig(protocol="3t", n=13, t=4, messages=4, seed=5,
                    message_spacing=1, p_drop=0.1)
    world = build_world(cfg)
    world.run_to_quiescence()
    sends, recvs = {}, {}
    for line in world.trace:
        parts = line.split(" ", 8)
        kind, src, dst = parts[1], parts[2], parts[3]
        if kind not in ("send", "recv") or parts[8] in ("fast", "oracle"):
            continue
        key = (src, dst)
        sig = (parts[4], parts[5], parts[6], parts[7])
        (sends if kind == "send" else recvs).setdefault(key, []).append(sig)
    assert recvs
    for key, got in recvs.items():
        assert got == sends[key][:len(got)], f"channel {key} reordered"


def test_every_send_is_received_with_drops():
    cfg = SimConfig(protocol="e", n=7, t=2, messages=3, seed=8, p_drop=0.3)
    world = build_world(cfg)
    report = world.run_to_quiescence()
    assert report.quiescent
    n_send = sum(1 for l in world.trace if l.split(" ", 2)[1] == "send")
    n_recv = sum(1 for l in world.trace if l.split(" ", 2)[1] == "recv")
    n_drop = sum(1 for l in world.trace if l.split(" ", 2)[1] == "drop")
    assert n_drop > 0
    assert n_send == n_recv  # conservation: retransmission hides no loss


def test_faultless_runs_deliver_everywhere():
    for proto, extra in (("e", {}), ("3t", {}),
                         ("act", {"kappa": 2, "delta": 2})):
        r = run_world(SimConfig(protocol=proto, n=7, t=2, messages=2, seed=3,
                                **extra))
        assert r.quiescent and r.conflicts == 0
        assert r.total_deliveries() == 7 * 2


def test_non_quiescence_reported_not_raised():
    cfg = SimConfig(protocol="e", n=7, t=2, messages=2, seed=3)
    world = build_world(cfg)
    report = world.run_to_quiescence(max_ticks=3)
    assert not report.quiescent
    assert report.elapsed <= 3


def test_stability_oracle_only_reports_real_deliveries():
    cfg = SimConfig(protocol="e", n=4, t=1, messages=1, seed=0)
    world = build_world(cfg)
    world.run_to_quiescence()
    lag = world.stability_lag
    delivered, reported = {}, []
    for line in world.trace:
        parts = line.split(" ", 8)
        if parts[1] == "appdlv":
            delivered[(parts[2], parts[6])] = int(parts[0])
        if parts[1] == "stable":
            key = (parts[2], parts[6])
            assert key in delivered
            assert int(parts[0]) == delivered[key] + lag
            reported.append(key)
    # Every correct delivery is reported exactly once.
    assert sorted(reported) == sorted(delivered)


def engines_of(world):
    return [e for e in world.engines if e is not None]


def watch_reforwards(world):
    """Record every re-forward a correct engine is asked for: (tick, pid,
    id, the missing set it was passed, the processes it sent to)."""
    calls = []
    for eng in engines_of(world):
        def reforward(mid, missing, _eng=eng, _orig=eng.reforward):
            passed = None if missing is None else frozenset(missing)
            out = _orig(mid, missing)
            calls.append((world.clock, _eng.me, mid, passed,
                          [a.to for a in out if type(a) is Send]))
            return out
        eng.reforward = reforward
    return calls


def check_reforwards(world, calls):
    """Check every re-forward of a finished traced world against its trace
    alone: one call per correct delivery, at delivery + 8hi; its missing
    set is exactly the correct processes with no stable record of the id
    before that tick, so never the caller; it sends only to that set minus
    itself, never to a faulty process; and no engine keeps anything.
    Returns the number of re-forwards with a non-empty missing set."""
    correct = set(world.correct)
    delivered, stable_at = {}, {}
    for line in world.trace:
        parts = line.split(" ", 8)
        if parts[1] in ("appdlv", "stable"):
            key = (int(parts[2]), parts[6])
            if parts[1] == "stable":
                stable_at[key] = int(parts[0])
            elif key[0] in correct:
                delivered[key] = int(parts[0])
    wait = world.timeouts.reforward
    assert wait == 8 * world.config.latency_hi
    assert sorted((t, p, str(mid)) for t, p, mid, _, _ in calls) == sorted(
        (t + wait, p, mid) for (p, mid), t in delivered.items())
    live = 0
    for tick, p, mid, missing, targets in calls:
        assert missing == {q for q in correct
                           if stable_at.get((q, str(mid)), tick) >= tick}
        assert p not in missing
        assert set(targets) <= missing - {p}
        assert not set(targets) & world.faulty
        live += bool(missing)
    for eng in engines_of(world):
        assert eng.stability == {} and eng.delivered_record == {}
    return live


def test_stability_notifications_reach_everyone():
    """Fault-free, every correct engine hears the oracle once per delivery,
    by then with the id stable everywhere: nothing is re-forwarded."""
    cfg = SimConfig(protocol="e", n=4, t=1, messages=1, seed=0)
    world = build_world(cfg)
    calls = watch_reforwards(world)
    world.run_to_quiescence()
    [mid] = world.delivered_digests
    assert sorted(p for _, p, m, _, _ in calls if m == mid) == list(range(4))
    assert all(missing == frozenset() and targets == []
               for _, _, _, missing, targets in calls)
    assert check_reforwards(world, calls) == 0
    assert not any(" timer_fire " in l for l in world.trace)


def test_stability_oracle_drives_each_reforward_with_drops():
    """Every correct re-forward runs at exactly delivery + 8hi and targets
    exactly the correct processes the oracle still lists as missing; an
    id stable everywhere by then costs no event, no send and no trace
    line.  A faulty deliverer's re-forward stays a timer set at its
    delivery."""
    live = released = faulty_timers = 0
    for proto, extra in (("e", {}), ("3t", {}),
                         ("act", {"kappa": 2, "delta": 2})):
        for seed in (11, 12, 13):
            cfg = SimConfig(protocol=proto, n=10, t=3, adversary="crash",
                            messages=3, seed=seed, p_drop=0.3, **extra)
            world = build_world(cfg)
            wait = world.timeouts.reforward
            correct = set(world.correct)
            pushed = []
            push = world._push

            def watched_push(time, item, _push=push):
                pushed.append((world.clock, time, item))
                _push(time, item)
            world._push = watched_push
            calls = watch_reforwards(world)
            timed = []
            for eng in engines_of(world):
                def on_timer(tid, now, _orig=eng.on_timer):
                    timed.append(tid[0])
                    return _orig(tid, now)
                eng.on_timer = on_timer
            report = world.run_to_quiescence()
            assert report.quiescent, (proto, seed)
            now_live = check_reforwards(world, calls)
            # each sends to its whole missing set, and only a live one
            # writes a trace line
            assert all(targets == sorted(missing)
                       for _, _, _, missing, targets in calls)
            assert "reforward" not in timed

            marks, set_at = {}, {}
            for line in world.trace:
                parts = line.split(" ", 8)
                tick, kind, src = int(parts[0]), parts[1], parts[2]
                if kind == "appdlv" and int(src) not in correct:
                    set_at[(int(src), parts[6])] = tick
                elif kind in ("timer_set", "timer_fire") \
                        and parts[5] == "reforward":
                    marks.setdefault(kind, []).append(
                        (tick, int(src), parts[6]))
            correct_fires = sorted(m for m in marks.get("timer_fire", [])
                                   if m[1] in correct)
            assert correct_fires == sorted(
                (t, p, str(mid)) for t, p, mid, missing, _ in calls
                if missing)
            assert not [m for m in marks.get("timer_set", [])
                        if m[1] in correct]
            assert not [item for _, _, item in pushed
                        if item[0] == EV_TIMER and item[1] in correct
                        and item[2][0] == "reforward"]
            # a faulty deliverer's re-forward: a timer armed at delivery
            faulty_sets = sorted(m for m in marks.get("timer_set", []))
            assert faulty_sets == sorted((t, p, mid) for (p, mid), t
                                         in set_at.items())
            assert sorted((t + wait, p, mid) for t, p, mid in faulty_sets) \
                == sorted(m for m in marks.get("timer_fire", [])
                          if m[1] not in correct)
            live += now_live
            released += len(calls) - now_live
            faulty_timers += len(faulty_sets)
    assert live and released and faulty_timers, (live, released,
                                                 faulty_timers)


def test_world_calls_one_reforward_per_due_delivery_per_reforward_tick():
    """The oracle hands nothing to the engines at maturity ticks.  At each
    re-forward tick, every engine with a delivery due then is asked to
    re-forward each id due then, once; there is one wake-up per distinct
    maturity and re-forward tick, and no oracle message is queued or
    traced as a send or receive."""
    cfg = SimConfig(protocol="3t", n=13, t=4, adversary="silent", messages=4,
                    seed=5, p_drop=0.2)
    world = build_world(cfg)
    calls = watch_reforwards(world)
    pushed = []
    push = world._push

    def watched_push(time, item):
        pushed.append(item)
        push(time, item)
    world._push = watched_push
    world.run_to_quiescence()
    correct = 13 - len(world.faulty)
    due: dict[int, dict[int, set]] = {}
    maturity, stable = set(), 0
    for line in world.trace:
        parts = line.split(" ", 8)
        if parts[1] == "stable":
            maturity.add(int(parts[0]))
            stable += 1
        elif parts[1] == "appdlv":
            tick = int(parts[0]) + world.timeouts.reforward
            due.setdefault(tick, {}).setdefault(int(parts[2]), set()).add(
                parts[6])
    assert stable == sum(len(ids) for by_p in due.values()
                         for ids in by_p.values()) == correct * 4
    assert len(maturity) < stable  # deliveries share maturity ticks
    for p in world.correct:
        asked = sorted((t, str(mid)) for t, q, mid, _, _ in calls if q == p)
        assert asked == sorted((t, mid) for t, by_p in due.items()
                               for mid in by_p.get(p, ())), p
    check_reforwards(world, calls)
    wakeups = [item[0] for item in pushed
               if item[0] in (simnet.EV_ORACLE, simnet.EV_REFORWARD)]
    assert wakeups.count(simnet.EV_ORACLE) == len(maturity)
    assert wakeups.count(simnet.EV_REFORWARD) == len(due)
    assert any(item[0] == EV_MSG for item in pushed)
    assert not any(item[0] == EV_MSG and item[3].role == SM_NOTIFY
                   for item in pushed)
    assert not any(" sm_notify " in l and l.split(" ", 2)[1] != "stable"
                   for l in world.trace)


@pytest.mark.parametrize("proto, extra", [
    ("e", {}), ("3t", {}), ("act", {"kappa": 2, "delta": 2})])
def test_reforward_reaches_only_unreported_correct_processes(proto, extra):
    sent = 0
    for seed in range(8):
        cfg = SimConfig(protocol=proto, n=10, t=3, adversary="crash",
                        messages=3, seed=seed, p_drop=0.3, **extra)
        world = build_world(cfg)
        calls = watch_reforwards(world)
        report = world.run_to_quiescence()
        assert report.quiescent and report.conflicts == 0
        check_reforwards(world, calls)
        sent += sum(len(targets) for *_, targets in calls)
    assert sent > 0  # the check above was exercised


@pytest.mark.parametrize("stability", [True, False])
def test_engine_stability_state_released_after_quiescence(stability):
    for proto, extra in (("e", {}), ("3t", {}),
                         ("act", {"kappa": 2, "delta": 2})):
        cfg = SimConfig(protocol=proto, n=10, t=3, adversary="crash",
                        messages=4, seed=5, p_drop=0.3, stability=stability,
                        **extra)
        world = build_world(cfg)
        engines = engines_of(world)
        while world.queue:
            world.step()
            if not stability:
                assert not any(e.delivered_record for e in engines), proto
        assert sum(world.deliveries.values()) >= len(engines) * 4
        for e in engines:
            assert e.stability == {} and e.delivered_record == {}, proto
        assert world._unstable == {}


@pytest.mark.parametrize("hi", [1, 2, 5, 8])
def test_reforward_fires_after_own_delivery_is_reported(hi):
    """The re-forward (8 * latency_hi after a delivery) outlasts the
    oracle's lag (4 * latency_hi), so the missing set a correct engine is
    handed never names the engine itself.  At 50% loss some ids are still
    missing somewhere at the re-forward tick, so the check is exercised at
    every latency_hi."""
    checked = {0.2: 0, 0.5: 0}
    for p_drop in checked:
        for lo in sorted({1, hi}):
            for proto, extra in (("e", {}), ("3t", {}),
                                 ("act", {"kappa": 2, "delta": 2})):
                cfg = SimConfig(protocol=proto, n=10, t=3, adversary="crash",
                                messages=3, seed=hi, p_drop=p_drop,
                                latency_lo=lo, latency_hi=hi,
                                record_trace=False, **extra)
                world = build_world(cfg)
                delivered = {}
                record = world._record_delivery

                def record_delivery(pid, dlv, now, _record=record,
                                    _seen=delivered):
                    _seen[(pid, dlv.message.id)] = now
                    _record(pid, dlv, now)
                world._record_delivery = record_delivery
                calls = watch_reforwards(world)
                assert world.run_to_quiescence().quiescent
                assert sorted((t, p, mid) for t, p, mid, _, _ in calls) == \
                    sorted((t + 8 * hi, p, mid) for (p, mid), t
                           in delivered.items() if p in world.correct)
                for _, p, mid, missing, targets in calls:
                    assert missing is not None, (proto, lo, mid)
                    assert p not in missing and p not in targets
                    checked[p_drop] += bool(missing)
                assert all(e.delivered_record == {}
                           for e in engines_of(world))
    assert checked[0.5] > 0, checked


def test_default_mode_costs_at_most_3n_events_per_message():
    """Default mode stays O(n) per message, on the benchmark's
    traced-3t-n100 config with the trace off: the events the world
    dispatches, oracle wake-ups and timers included, are at most 3n per
    multicast message."""
    cfg = SimConfig(protocol="3t", n=100, t=10, adversary="crash",
                    p_drop=0.1, messages=10, seed=4294967296,
                    record_trace=False)
    world = build_world(cfg)
    events = 0
    step = world.step

    def counted():
        nonlocal events
        events += 1
        step()
    world.step = counted
    report = world.run_to_quiescence()
    assert report.quiescent and report.conflicts == 0
    assert report.messages_multicast == 10
    assert events <= 3 * cfg.n * report.messages_multicast, events


def _events_per_message(cfg):
    world = build_world(cfg)
    events = 0
    step = world.step

    def counted():
        nonlocal events
        events += 1
        step()
    world.step = counted
    report = world.run_to_quiescence()
    assert report.quiescent and report.conflicts == 0
    assert report.messages_multicast == cfg.messages
    return events / cfg.messages


def test_default_mode_costs_within_5_percent_of_stability_off():
    """With no faults every re-forward check finds its id stable
    everywhere, so default mode adds only the oracle's and the re-forward
    check's per-tick wake-ups: fault-free ACT at n=100 costs at most 1.05x
    the events per message of the same run with stability off."""
    cfg = SimConfig(protocol="act", n=100, t=10, kappa=3, delta=5,
                    messages=100, seed=1, record_trace=False)
    on = _events_per_message(cfg)
    off = _events_per_message(replace(cfg, stability=False))
    assert on <= 1.05 * off, (on, off)


def test_act_n1000_with_stability_delivers_everywhere():
    cfg = SimConfig(protocol="act", n=1000, t=100, kappa=4, delta=10,
                    adversary="silent", num_faulty=10, messages=10, seed=1,
                    record_trace=False)
    world = build_world(cfg)
    report = world.run_to_quiescence()
    assert report.quiescent and report.conflicts == 0
    assert len(world.correct) == 990
    assert len(report.delivered_digests) == 10
    for slots in report.delivered_digests.values():
        [pids] = slots.values()
        assert pids == set(world.correct)
    assert all(e.stability == {} and e.delivered_record == {}
               for e in engines_of(world))


def test_disabled_stability_produces_no_oracle_traffic():
    cfg = SimConfig(protocol="e", n=4, t=1, messages=1, seed=0,
                    stability=False)
    world = build_world(cfg)
    report = world.run_to_quiescence()
    assert report.quiescent and report.total_deliveries() == 4
    assert not any(" sm_notify " in l for l in world.trace)


def test_alert_race_is_structural():
    """Any alert raised at T reaches every correct process within the alert
    latency bound, and every recovery ack requested at or after T fires
    strictly later."""
    for seed in range(8):
        cfg = SimConfig(protocol="act", n=13, t=4, kappa=2, delta=3,
                        adversary="equivocate", messages=1, seed=seed,
                        latency_hi=8)
        world = build_world(cfg)
        world.run_to_quiescence()
        bound = ALERT_LATENCY_BOUND
        delay = world.timeouts.recovery_ack_delay
        assert bound < delay
        raised = []
        for line in world.trace:
            parts = line.split(" ", 8)
            if parts[1] == "alert":
                raised.append(int(parts[0]))
            if parts[1] == "recv" and parts[8] == "fast":
                t_raise = max(r for r in raised if r <= int(parts[0]))
                assert int(parts[0]) <= t_raise + bound


def test_access_counts_cover_witness_and_peer_roles():
    cfg = SimConfig(protocol="act", n=13, t=4, kappa=2, delta=3, messages=1,
                    seed=4)
    world = build_world(cfg)
    world.run_to_quiescence()
    regulars = sum(c.get("regular", 0) for c in world.access_counts.values())
    informs = sum(c.get("inform", 0) for c in world.access_counts.values())
    assert regulars == 2           # kappa witnesses contacted
    assert informs == 2 * 3        # each correct witness probes delta peers


def test_run_report_fields():
    r = run_world(SimConfig(protocol="3t", n=7, t=2, messages=1, seed=1))
    assert r.protocol == "3t" and r.n == 7 and r.t == 2
    assert r.messages_multicast == 1
    assert r.attacked == 0 and r.alerts_raised == 0
    assert r.elapsed > 0


def test_trace_disabled_raises_on_export(tmp_path):
    world = build_world(SimConfig(protocol="e", n=4, t=1, record_trace=False))
    world.run_to_quiescence()
    with pytest.raises(ConfigError):
        world.trace_text()
    with pytest.raises(ConfigError):
        world.write_trace(str(tmp_path / "none.trace"))
    assert not (tmp_path / "none.trace").exists()


def test_write_trace_writes_trace_text_in_chunks(monkeypatch, tmp_path):
    world = build_world(SimConfig(protocol="3t", n=13, t=4, messages=2,
                                  seed=3, adversary="crash", p_drop=0.1))
    world.run_to_quiescence()
    text = world.trace_text().encode()
    lines = len(world.trace)
    for chunk in (1, 7, lines - 1, lines, lines + 1, simnet._WRITE_CHUNK):
        monkeypatch.setattr(simnet, "_WRITE_CHUNK", chunk)
        path = tmp_path / f"chunk-{chunk}.trace"
        world.write_trace(str(path))
        assert path.read_bytes() == text, chunk


def test_signers_note_built_once_per_delivered_ack_set(monkeypatch):
    calls = []
    real = simnet.valid_signers

    def counted(acks, tag, *rest):
        calls.append(tag)
        return real(acks, tag, *rest)
    monkeypatch.setattr(simnet, "valid_signers", counted)
    cfg = SimConfig(protocol="3t", n=31, t=10, messages=3, seed=1,
                    adversary="crash", p_drop=0.1)
    world = build_world(cfg)
    world.run_to_quiescence()
    notes = [line.split(" ", 8)[8] for line in world.trace
             if line.split(" ", 2)[1] == "appdlv"]
    assert len(world._notes) == len(calls) < len(notes)
    assert {note for _, note in world._notes.values()} == set(notes) - {"-"}
    off = build_world(replace(cfg, record_trace=False))
    off.run_to_quiescence()
    assert not hasattr(off, "_notes") and len(calls) == len(world._notes)


def test_lossy_adversarial_runs_keep_their_guarantees():
    # 25% per-attempt loss with retransmission under every adversary.
    # E and 3T keep absolute agreement; ACT conflicts are permitted (and
    # counted) but the absolute run properties must still check out.
    from securecast.tracecheck import check_trace
    for proto, extra in (("e", {}), ("3t", {}),
                         ("act", {"kappa": 2, "delta": 2})):
        for adv in ("silent", "crash", "equivocate", "collusive"):
            cfg = SimConfig(protocol=proto, n=10, t=3, adversary=adv,
                            messages=2, seed=67, p_drop=0.25, **extra)
            world = build_world(cfg)
            report = world.run_to_quiescence()
            result = check_trace(world.trace_text())
            assert report.quiescent and result.ok, (proto, adv)
            if proto in ("e", "3t"):
                assert report.conflicts == 0, (proto, adv)


def test_channel_draws_are_keyed_seeds_and_drive_every_send():
    cfg = SimConfig(protocol="3t", n=13, t=4, adversary="crash", messages=4,
                    seed=21, message_spacing=1, p_drop=0.2)
    world = build_world(cfg)
    assert world.run_to_quiescence().quiescent
    for src, dst, k in ((0, 1, 0), (12, 3, 9), (5, 5, 2**40)):
        assert world._chan_draw(src, dst, k) == \
            keyed_seed(world.world_seed, b"chan", src, dst, k)
    # Replay every channel from its draws alone: latency from the next
    # draw, one more draw per transmission attempt, then the FIFO clamp.
    c = world.config
    span = c.latency_hi - c.latency_lo + 1
    cut = c.p_drop * 2.0 ** 64
    draws, last, expect, got = {}, {}, {}, {}
    for line in world.trace:
        tick, kind, src, dst, *_, note = line.split(" ", 8)
        if kind not in ("send", "recv") or note in ("fast", "oracle"):
            continue
        key = (int(src), int(dst))
        if kind == "recv":
            got.setdefault(key, []).append(int(tick))
            continue
        k = draws.get(key, 0)
        arrival = int(tick) + c.latency_lo + world._chan_draw(*key, k) % span
        k += 1
        while world._chan_draw(*key, k) < cut:
            k += 1
            arrival += RETRANSMIT_INTERVAL
        k += 1
        arrival = max(arrival, last.get(key, 0))
        last[key], draws[key] = arrival, k
        expect.setdefault(key, []).append(arrival)
    assert got == expect
    # Each source's row holds exactly those draw counts and last arrivals.
    for src, row in enumerate(world._chan_rows):
        dsts = [d for (s, d) in draws if s == src]
        if not dsts:
            assert row is None
            continue
        assert list(row) == [draws.get((src, d), 0) for d in range(c.n)] + \
            [last.get((src, d), 0) for d in range(c.n)]


def test_channel_latency_uniform_and_loss_rate_matches_p_drop():
    from scipy import stats
    cfg = SimConfig(protocol="e", n=101, t=1, messages=0, seed=5, p_drop=0.3,
                    latency_lo=2, latency_hi=7)
    world = build_world(cfg)
    msg = WireMessage("E", REGULAR, None)
    for src in range(cfg.n):  # 10,201 first sends, so no FIFO clamp
        world._channel_send(src, range(cfg.n), msg, 0)
    drops = {}
    for line in world.trace:
        _, kind, src, dst, _ = line.split(" ", 4)
        if kind == "drop":
            key = (int(src), int(dst))
            drops[key] = drops.get(key, 0) + 1
    counts = [0] * 6
    for arrival, (_, dst, src, _, _) in world.queue:
        latency = arrival - RETRANSMIT_INTERVAL * drops.get((src, dst), 0)
        counts[latency - cfg.latency_lo] += 1
    assert sum(counts) == cfg.n ** 2
    _, pvalue = stats.chisquare(counts)
    assert pvalue > 0.01, counts
    lost = sum(drops.values())
    attempts = lost + cfg.n ** 2
    sigma = (cfg.p_drop * (1 - cfg.p_drop) / attempts) ** 0.5
    assert abs(lost / attempts - cfg.p_drop) <= 3 * sigma


def test_alert_draws_are_keyed_seeds_and_drive_every_alert():
    """Alert k from src to dst arrives 1 + keyed_seed(world_seed, b"alert",
    src, dst, k) % ALERT_LATENCY_BOUND ticks after it is sent, and a world
    that raises no alert draws nothing for the plane."""
    sent = 0
    for seed in range(6):
        world = build_world(SimConfig(protocol="act", n=13, t=4, kappa=2,
                                      delta=3, adversary="equivocate",
                                      messages=2, seed=seed))
        assert world.run_to_quiescence().quiescent
        draws, expect, got = {}, {}, {}
        for line in world.trace:
            tick, kind, src, dst, *_, note = line.split(" ", 8)
            if note != "fast":
                continue
            key = (int(src), int(dst))
            if kind == "recv":
                got.setdefault(key, []).append(int(tick))
                continue
            k = draws.get(key, 0)
            draws[key] = k + 1
            expect.setdefault(key, []).append(int(tick) + 1 + keyed_seed(
                world.world_seed, b"alert", *key, k) % ALERT_LATENCY_BOUND)
        assert {k: sorted(v) for k, v in got.items()} == \
            {k: sorted(v) for k, v in expect.items()}
        assert world._alert_draws == {s * 13 + d: k
                                      for (s, d), k in draws.items()}
        sent += sum(draws.values())
    assert sent > 0
    quiet = build_world(SimConfig(protocol="act", n=13, t=4, kappa=2,
                                  delta=3, messages=2, seed=0))
    assert quiet.run_to_quiescence().alerts_raised == 0
    assert quiet._alert_draws == {}


def test_world_holds_no_per_channel_or_unused_engine_streams():
    world = build_world(SimConfig(protocol="3t", n=31, t=10, adversary="crash",
                                  messages=3, seed=2, p_drop=0.1))
    assert world.run_to_quiescence().quiescent
    # A source's channels are one row of 2n unsigned ints, an alert
    # channel one int; the world holds no stream of its own.
    rows = [row for row in world._chan_rows if row is not None]
    assert rows and len(world._chan_rows) == world.config.n
    assert all(type(row) is array and row.typecode == "I"
               and len(row) == 2 * world.config.n for row in rows)
    fields = vars(world).values()
    assert not any(isinstance(v, random.Random) for v in fields)
    assert not any(isinstance(v, random.Random)
                   for d in fields if isinstance(d, dict) for v in d.values())
    # A 3T engine samples only to pick its first contacts as a sender.
    shadows = list(world.adversary._shadows.values())
    assert shadows
    for eng in [e for e in world.engines if e is not None] + shadows:
        assert (eng._rng is not None) == (eng.own_seq > 0), eng.me
    e_world = build_world(SimConfig(protocol="e", n=7, t=2, messages=3,
                                    seed=2))
    e_world.run_to_quiescence()
    assert all(eng._rng is None for eng in e_world.engines)


def test_channel_state_is_one_row_per_source_whatever_the_run_length():
    sizes, draws = [], []
    for messages in (50, 200):
        world = build_world(SimConfig(protocol="3t", n=31, t=10,
                                      adversary="crash", p_drop=0.1,
                                      messages=messages, seed=5,
                                      record_trace=False))
        assert world.run_to_quiescence().quiescent
        n = world.config.n
        assert len(world._chan_rows) == n
        rows = [row for row in world._chan_rows if row is not None]
        assert all(len(row) == 2 * n and row.itemsize == 4 for row in rows)
        sizes.append(sum(len(row) * row.itemsize for row in rows))
        draws.append(sum(sum(row[:n]) for row in rows))
    # four times the traffic on channel state of the same size
    assert sizes[0] == sizes[1] <= 8 * n * n
    assert draws[1] > 3 * draws[0]


def test_engines_share_one_record_per_deliver():
    world = build_world(SimConfig(protocol="act", n=31, t=10, kappa=3,
                                  delta=5, messages=2, seed=4))
    report = world.run_to_quiescence()
    assert report.quiescent and len(report.delivered_digests) == 2
    # processes that heard of an id before its deliver recorded it then
    heard: dict[str, set[int]] = {}
    for line in world.trace:
        _, kind, _, dst, _, role, subject, _ = line.split(" ", 7)
        if kind == "recv" and role in (REGULAR, INFORM):
            heard.setdefault(subject, set()).add(int(dst))
    engines = engines_of(world)
    memo = [rec for _, rec in engines[0]._verdicts.values()]
    for mid in report.delivered_digests:
        late = [e for e in engines
                if e.me != mid.sender and e.me not in heard[str(mid)]]
        assert len(late) > world.config.n // 3
        shared = late[0].recorded[mid]
        assert shared.sender_sig is None
        assert any(rec is shared for rec in memo)
        assert all(e.recorded[mid] is shared for e in late)
    # A signature learned after delivery replaces that engine's record only.
    eng, peer = late[0], late[1]
    sig = world.engines[mid.sender].recorded[mid].sender_sig
    inform = WireMessage(PROTO_AV, INFORM, mid, digest=shared.digest,
                         sender_sig=sig)
    out = eng.handle(peer.me, inform, world.clock + 1)
    assert [a.msg.role for a in out] == [VERIFY]
    assert eng.recorded[mid] == (shared.digest, sig)
    assert all(e.recorded[mid] is shared for e in late[1:])
    assert shared.sender_sig is None


def test_delivered_pids_are_the_worlds_n_int_objects():
    # Above 256 every int is its own object.  Whichever fan-out delivered a
    # message (a correct sender's broadcast, or the adversary's when the
    # faulty set holds a whole active witness set), the world records one
    # of its n process ids.
    n, t, kappa, ws = 300, 10, 3, 99
    params = QuorumParams(n, t)
    faulty = {0}.union(*(quorum.w_active(MessageId(0, seq), kappa, params, ws)
                         for seq in (1, 2)))
    for shape in (dict(adversary="none"),
                  dict(adversary="regime-split", faulty_set=tuple(faulty),
                       messages=2 * len(faulty))):
        cfg = dict(protocol="act", n=n, t=t, kappa=kappa, delta=5,
                   messages=3, seed=7, witness_seed=ws, record_trace=False,
                   stability=False)
        world = build_world(SimConfig(**{**cfg, **shape}))
        report = world.run_to_quiescence()
        pids = [p for slot in report.delivered_digests.values()
                for group in slot.values() for p in group]
        assert len(pids) > 1.5 * n, shape
        assert len({id(p) for p in pids + list(report.deliveries)}) <= n


@pytest.mark.parametrize("stability", [True, False])
def test_retained_bytes_per_message_are_pinned(stability):
    # A quiesced fault-free ACT n=100 world keeps ~20.2 KB per message, most
    # of it per-id engine state that is never released; a delivery record
    # per engine pushes it past the pin.
    def retained(messages):
        cfg = SimConfig(protocol="act", n=100, t=10, kappa=3, delta=5,
                        messages=messages, seed=3, stability=stability,
                        record_trace=False)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            world = build_world(cfg)
            assert world.run_to_quiescence().quiescent
            return tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

    per_message = (retained(300) - retained(100)) / 200
    assert per_message <= 24_000


@pytest.mark.parametrize("proto, adversary, extra", [
    ("e", "equivocate", {}), ("3t", "crash", {}),
    ("act", "regime-split", {"kappa": 3, "delta": 5}),
    ("act", "seq-burner", {"kappa": 2, "delta": 3})])
def test_finished_world_freed_without_the_cycle_collector(proto, adversary,
                                                          extra):
    n, t = (31, 10) if adversary == "regime-split" else (13, 4)
    world = build_world(SimConfig(protocol=proto, n=n, t=t, messages=3,
                                  adversary=adversary, seed=5, **extra))
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert world.run_to_quiescence().quiescent
        refs = [weakref.ref(world), weakref.ref(engines_of(world)[0])]
        refs += [weakref.ref(e) for e in world.adversary._shadows.values()]
        if adversary != "regime-split":
            assert len(refs) > 2  # shadow engines were built
        del world
        assert all(r() is None for r in refs)
    finally:
        if enabled:
            gc.enable()


MC_N31 = SimConfig(protocol="act", n=31, t=10, kappa=3, delta=5,
                   adversary="regime-split", messages=1, seed=1 << 32,
                   record_trace=False, stability=False)


def test_monte_carlo_worlds_leave_nothing_behind():
    # Only the bounded witness caches outlive a world, so once a warm-up
    # longer than those caches has filled them, memory stays flat.
    warm, measured = 300, 1500
    assert warm > quorum.WITNESS_CACHE_SIZE
    tracemalloc.start()
    try:
        for i in range(warm):
            run_world(replace(MC_N31, seed=MC_N31.seed + i))
        before = tracemalloc.get_traced_memory()[0]
        for i in range(warm, warm + measured):
            run_world(replace(MC_N31, seed=MC_N31.seed + i))
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert growth / measured < 100


@pytest.mark.parametrize("cfg, worlds, macs", [
    (SimConfig(protocol="act", n=100, t=10, kappa=3, delta=5,
               adversary="silent", messages=5, seed=3, record_trace=False),
     1, 221),
    (replace(MC_N31, seed=5 << 32), 200, 7798)])
def test_hmac_work_per_world_is_pinned(monkeypatch, cfg, worlds, macs):
    # Each (signer, signed bytes) is HMACed at most once per world; a cache
    # cut that makes a world redo that work changes these counts.
    calls = []
    mac = KeyChain._mac
    monkeypatch.setattr(KeyChain, "_mac",
                        lambda self, p, data: calls.append(1) or mac(
                            self, p, data))
    for i in range(worlds):
        run_world(replace(cfg, seed=cfg.seed + i))
    assert len(calls) == macs


@pytest.mark.parametrize("proto, adversary, extra", [
    ("e", "none", {}), ("3t", "none", {}),
    ("act", "none", {"kappa": 2, "delta": 3}),
    ("e", "equivocate", {}), ("3t", "crash", {}),
    ("act", "collusive", {"kappa": 2, "delta": 3})])
def test_each_deliver_object_is_judged_once_per_world(monkeypatch, proto,
                                                       adversary, extra):
    calls = []
    real = protocols.accepts
    monkeypatch.setattr(protocols, "accepts",
                        lambda rules, signers_of: calls.append(1) or real(
                            rules, signers_of))
    seen: dict = {}   # id -> deliver, kept alive so ids stay distinct
    receptions = []
    handle = ProcessEngine.handle

    def watching(self, src, msg, now):
        if msg.role == DELIVER:
            seen[id(msg)] = msg
            receptions.append(1)
        return handle(self, src, msg, now)

    monkeypatch.setattr(ProcessEngine, "handle", watching)
    # uniform senders, so that the engines, shadow engines included,
    # see deliver traffic under every adversary
    cfg = SimConfig(protocol=proto, n=13, t=4, messages=4, seed=3,
                    adversary=adversary, senders="uniform", p_drop=0.2,
                    record_trace=False, **extra)
    report = build_world(cfg).run_to_quiescence()
    assert report.quiescent
    assert 0 < len(calls) <= len(seen) < len(receptions)
    if adversary == "none":
        # one broadcast per multicast, judged by one receiver for all
        assert len(calls) == len(seen) == report.messages_multicast


def _fired(world):
    """(tick, label) of each timer_fire line, in dispatch order."""
    out = []
    for line in world.trace:
        parts = line.split(" ")
        if parts[1] == "timer_fire":
            out.append((int(parts[0]), int(parts[6])))
    return out


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(ops=st.lists(st.one_of(st.integers(0, 6), st.none()), max_size=80),
       cut=st.integers(0, 12))
def test_tick_queue_matches_a_heap_reference(ops, cut):
    """Random interleavings of pushes (delay from the current tick, 0
    included) and steps dispatch in the order of a heapq of (time,
    counter); len(world.queue) matches the heap after every operation and
    its iteration before and after the run; run_to_quiescence stops at
    the same max_ticks cut-off.  Each event is a timer of the faulty
    process 3, which with no adversary only writes its timer_fire line."""
    world = build_world(SimConfig(protocol="e", n=4, t=1, messages=0,
                                  faulty_set=(3,)))
    ref, expected = [], []
    for label, op in enumerate(ops):
        if op is not None:
            time = world.clock + op
            world._push(time, (EV_TIMER, 3, ("q", label)))
            heapq.heappush(ref, (time, label))
        elif ref:
            world.step()
            expected.append(heapq.heappop(ref))
            assert world.clock == expected[-1][0]
        assert len(world.queue) == len(ref)
    assert [(t, tid[1]) for t, (_, _, tid) in world.queue] == sorted(ref)
    max_ticks = world.clock + cut
    while ref and ref[0][0] <= max_ticks:
        expected.append(heapq.heappop(ref))
    report = world.run_to_quiescence(max_ticks)
    assert _fired(world) == expected
    assert len(world.queue) == len(ref) and report.quiescent == (not ref)
    assert [(t, tid[1]) for t, (_, _, tid) in world.queue] == sorted(ref)


# E, 3T and ACT, with and without an adversary, loss and stability
_SHAPES = [
    dict(protocol="e", n=7, t=2),
    dict(protocol="e", n=7, t=2, adversary="equivocate", p_drop=0.2),
    dict(protocol="3t", n=13, t=4, adversary="crash", p_drop=0.2),
    dict(protocol="3t", n=13, t=4, adversary="collusive", stability=False),
    dict(protocol="act", n=13, t=4, kappa=2, delta=3, p_drop=0.1),
    dict(protocol="act", n=13, t=4, kappa=2, delta=3, adversary="equivocate",
         stability=False),
    dict(protocol="act", n=31, t=10, kappa=3, delta=5,
         adversary="regime-split", p_drop=0.1),
    dict(protocol="act", n=13, t=4, kappa=2, delta=3,
         adversary="seq-burner", p_drop=0.2),
]


@pytest.mark.parametrize("shape", _SHAPES)
def test_trace_on_and_off_give_equal_reports(shape):
    cfg = SimConfig(messages=4, seed=11, **shape)
    on = build_world(cfg)
    off = build_world(SimConfig(messages=4, seed=11, record_trace=False,
                                **shape))
    assert off.trace is None
    report = on.run_to_quiescence()
    assert report.quiescent and report.messages_multicast == 4
    assert off.run_to_quiescence() == report
    assert off._chan_rows == on._chan_rows


def test_trace_off_world_never_enters_log(monkeypatch):
    calls = []
    log = SimWorld._log

    def counted(self, *args):
        calls.append(self.trace is None)
        return log(self, *args)
    monkeypatch.setattr(SimWorld, "_log", counted)
    alerts = 0
    for shape in _SHAPES:
        report = build_world(SimConfig(messages=4, seed=11,
                                       record_trace=False,
                                       **shape)).run_to_quiescence()
        assert report.quiescent
        alerts += report.alerts_raised
    assert calls == [] and alerts > 0
    build_world(SimConfig(messages=1, **_SHAPES[1])).run_to_quiescence()
    assert calls and not any(calls)
