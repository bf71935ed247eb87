"""The three multicast protocol engines as event-driven state machines.

A ProcessEngine owns one process's protocol state.  Every handler consumes
a single input (a wire message, a timer, or a local multicast request) and
returns the list of actions it wants performed: sends, application-level
deliveries, timer requests, and alerts.  All nondeterminism comes from the
engine's own keyed RNG stream, built on first use, so a run is a pure
function of configuration and seeds.

Protocol summary:

* E: the sender asks every process for a signed ack and delivers once a
  dissemination quorum q = ceil((n+t+1)/2) has answered.
* 3T: a designated 3t+1 witness range per message id; 2t+1 acks from the
  range validate delivery.  The sender contacts a random 2t+1 subset first
  and widens to the whole range on timeout, which is what keeps the
  failure-free load at (2t+1)/n instead of (3t+1)/n.
* ACT: a kappa-process active witness set validates in the no-failure
  regime; each correct active witness probes delta random peers in the
  3t+1 range and only acks after all of them verify.  On timeout the
  sender falls back to the 3T rule over the same range.  Recovery acks are
  delayed so that any pending equivocation alert wins the race.

With the stability oracle on, a process that delivers a message keeps it
and re-forwards it once, Timeouts.reforward after the delivery, to every
correct process the oracle has not yet reported as having delivered it.
The engine arms no timer for this: at that tick a SimWorld calls
reforward(id, missing) with the oracle's set of correct processes still
missing the id, and the engine sends to them and forgets the id; an empty
set (stable everywhere) only forgets it.  Without the oracle nothing
re-forwards and nothing is kept.

Every process checks a broadcast deliver's ack set against the delivery
rule before it delivers.  The verdict is a pure function of the message,
its acks and the rule (protocol kind, n, t, witness seed, kappa, slack and
key chain), so engines that share a verdict memo judge each deliver object
once: a SimWorld gives one memo to all of its engines and to the
adversary's shadow engines, and a standalone engine keeps its own.  The
memo is split by rule, so engines whose rules differ never share a
verdict.  A receiver that has already delivered the id drops the deliver
without judging it.  A valid verdict is an immutable _Recorded, and every
engine that delivers on the deliver records that one object.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Collection, NamedTuple, Optional, Union

from .core import (PROTO_3T, PROTO_AV, PROTO_E, PROTO_TAG, Ack, KeyChain,
                   MessageId, MulticastMessage, ProtocolKind, Signature,
                   ack_valid, build_ack, keyed_seed, message_digest,
                   sender_sig_data, valid_signers)
from .quorum import (AckRule, QuorumParams, accepts, ack_rules,
                     check_act_params, sample_peers, sample_witness_subset,
                     w3t)
# Only reached through ack_rules here; bound anyway because the benchmark
# tracer (bench/tracer.py) patches w_active in every module that imports it.
from .quorum import w_active  # noqa: F401

# Wire message roles.
REGULAR = "regular"
ACK = "ack"
DELIVER = "deliver"
INFORM = "inform"
VERIFY = "verify"
ALERT = "alert"
SM_NOTIFY = "sm_notify"         # the trace role of the oracle's stable records


class EvidencePair(NamedTuple):
    """Two conflicting sender signatures over the same message id: an
    unforgeable proof of equivocation."""
    subject: MessageId
    digest_a: bytes
    sig_a: Signature
    digest_b: bytes
    sig_b: Signature


@dataclass(frozen=True, slots=True)
class WireMessage:
    proto: str                  # E / 3T / AV tag
    role: str
    subject: MessageId
    digest: Optional[bytes] = None
    body: Optional[MulticastMessage] = None
    acks: Optional[tuple[Ack, ...]] = None
    ack: Optional[Ack] = None
    sender_sig: Optional[Signature] = None
    evidence: Optional[EvidencePair] = None


# Actions are named tuples, cheap to build: a world dispatches on their
# type (type(act) is Send), never on equality, since equal fields make
# equal tuples across action types.

class Send(NamedTuple):
    to: int
    msg: WireMessage


class Broadcast(NamedTuple):
    msg: WireMessage


class Deliver(NamedTuple):
    message: MulticastMessage
    acks: tuple[Ack, ...]        # the validated ack set it was delivered on
    digest: bytes                # message_digest(message), as validated


class SetTimer(NamedTuple):
    timer_id: tuple
    delay: int


class RaiseAlert(NamedTuple):
    evidence: EvidencePair


Action = Union[Send, Broadcast, Deliver, SetTimer, RaiseAlert]


# Hard latency bound of the out-of-band alert plane, in ticks.
ALERT_LATENCY_BOUND = 3

# Deliveries held per sender while waiting for an earlier sequence number.
HOLDBACK_CAP = 64


@dataclass(frozen=True)
class Timeouts:
    act_active: int               # active regime deadline before recovery
    t3_expand: int                # 3T widens its contact set after this
    recovery_ack_delay: int       # exceeds ALERT_LATENCY_BOUND
    reforward: Optional[int]      # None disables re-forwarding entirely

    @classmethod
    def for_latency(cls, hi: int, stability: bool = True) -> "Timeouts":
        """Every protocol timer from the network's latency bound hi.  A
        recovery ack is held 2*hi + ALERT_LATENCY_BOUND + 2 ticks, longer
        than any alert takes, so a pending alert always wins the race.
        The re-forward runs 8*hi after a delivery, twice the oracle's 4*hi
        maturity lag, so the oracle has always reported the engine's own
        delivery by then; the world calls it with the oracle's missing set,
        and it is off without the stability oracle."""
        return cls(6 * hi, 4 * hi, 2 * hi + ALERT_LATENCY_BOUND + 2,
                   8 * hi if stability else None)


class _Recorded(NamedTuple):
    """What an engine has received for an id; immutable, because engines
    share the one their verdict memo holds."""
    digest: bytes
    sender_sig: Optional[Signature] = None


@dataclass
class _Pending:
    message: MulticastMessage
    digest: bytes
    regime: str                 # "e" | "3t" | "active" | "recovery"
    rule: AckRule               # the acks this regime collects
    acks: dict = field(default_factory=dict)   # signer -> Ack
    contacted: frozenset[int] = frozenset()
    sender_sig: Optional[Signature] = None
    completed: bool = False


@dataclass
class _Probe:
    digest: bytes
    sender_sig: Signature
    targets: tuple[int, ...]
    got: set[int] = field(default_factory=set)
    acked: bool = False


class ProcessEngine:
    """One correct process's protocol state machine."""

    # Always empty; kept only for bench/tracer.py's state count to read.
    stability = MappingProxyType({})

    def __init__(self, me: int, kind: ProtocolKind, params: QuorumParams,
                 keychain: KeyChain, witness_seed: int, stream_seed: int,
                 kappa: int = 0, delta: int = 0, slack_c: int = 0,
                 timeouts: Timeouts = Timeouts.for_latency(5),
                 verdicts: Optional[dict] = None):
        if kind is ProtocolKind.ACT:
            check_act_params(params.n, params.t, kappa, delta, slack_c)
        self.me = me
        self.kind = kind
        self.params = params
        self.kappa = kappa
        self.delta = delta
        self.slack_c = slack_c
        self.keychain = keychain
        self.witness_seed = witness_seed
        self.stream_seed = stream_seed
        self._rng: Optional[random.Random] = None
        self.timeouts = timeouts
        # the wire tags this engine accepts; ACT recovery traffic is 3T
        self._protos = frozenset((PROTO_TAG[kind], PROTO_3T)
                                 if kind is ProtocolKind.ACT
                                 else (PROTO_TAG[kind],))
        # id(deliver) -> (deliver, _Recorded(digest) if it meets the rule
        # else None), shared with every engine given the same verdicts under
        # this rule; each entry keeps its message alive, so an id is never
        # reused
        self._verdicts: dict[int, tuple[WireMessage, Optional[_Recorded]]] = (
            {} if verdicts is None else verdicts.setdefault(
                (kind, params, witness_seed, kappa, slack_c, keychain), {}))

        self.own_seq = 0
        self.delivery: dict[int, int] = {}        # sender -> last delivered seq
        self.recorded: dict[MessageId, _Recorded] = {}
        self.conflicted: set[MessageId] = set()
        self.pending: dict[MessageId, _Pending] = {}
        self.probes: dict[MessageId, _Probe] = {}
        self.holdback: dict[int, dict[int, WireMessage]] = {}
        self.known_faulty: set[int] = set()
        # id -> the deliver to re-forward, kept only with stability on and
        # only until the re-forward
        self.delivered_record: dict[MessageId, WireMessage] = {}

    # -- helpers ----------------------------------------------------------

    @property
    def rng(self) -> random.Random:
        """The engine's stream, keyed by (stream_seed, me) and built on its
        first sample: E engines and most ACT engines never sample, and a
        seeded Mersenne Twister costs ~2.5 KB and ~10 us."""
        if self._rng is None:
            self._rng = random.Random(
                keyed_seed(self.stream_seed, b"proc", self.me))
        return self._rng

    def _rules(self, mid: MessageId, kind: Optional[ProtocolKind] = None):
        return ack_rules(kind or self.kind, mid, self.params,
                         self.witness_seed, self.kappa, self.slack_c)

    def _ack_to(self, proto: str, dst: int, mid: MessageId, dig: bytes,
                sender_sig: Optional[Signature] = None) -> Send:
        ack = build_ack(self.keychain, proto, self.me, mid, dig, sender_sig)
        return Send(dst, WireMessage(proto, ACK, mid, digest=dig, ack=ack,
                                     sender_sig=sender_sig))

    def _record_or_conflict(self, mid: MessageId, dig: bytes,
                            sender_sig: Optional[Signature]):
        """Returns (ok, actions). ok=False means a conflicting digest was
        already recorded; with two sender signatures in hand that is
        provable equivocation and an alert goes out."""
        rec = self.recorded.get(mid)
        if rec is None:
            self.recorded[mid] = _Recorded(dig, sender_sig)
            return True, []
        if rec.digest == dig:
            if rec.sender_sig is None and sender_sig is not None:
                # the record may be shared: replace it, never mutate it
                self.recorded[mid] = _Recorded(dig, sender_sig)
            return True, []
        self.conflicted.add(mid)
        if sender_sig is not None and rec.sender_sig is not None:
            ev = EvidencePair(mid, rec.digest, rec.sender_sig, dig, sender_sig)
            self.known_faulty.add(mid.sender)
            return False, [RaiseAlert(ev)]
        return False, []

    # -- sending ----------------------------------------------------------

    def wan_multicast(self, payload: bytes) -> list[Action]:
        """Initiate a multicast of the next message in sequence."""
        self.own_seq += 1
        mid = MessageId(self.me, self.own_seq)
        m = MulticastMessage(mid, payload)
        dig = message_digest(m)
        rule = next(self._rules(mid))
        actions: list[Action] = []

        if self.kind is ProtocolKind.E:
            self.recorded.setdefault(mid, _Recorded(dig))
            self.pending[mid] = _Pending(m, dig, "e", rule)
            msg = WireMessage(PROTO_E, REGULAR, mid, digest=dig)
            actions += [Send(p, msg) for p in range(self.params.n)]

        elif self.kind is ProtocolKind.THREE_T:
            self.recorded.setdefault(mid, _Recorded(dig))
            first = frozenset(sample_witness_subset(
                self.rng, rule.members, rule.count))
            self.pending[mid] = _Pending(m, dig, "3t", rule, contacted=first)
            msg = WireMessage(PROTO_3T, REGULAR, mid, digest=dig)
            actions += [Send(p, msg) for p in sorted(first)]
            actions.append(SetTimer(("expand", mid), self.timeouts.t3_expand))

        else:
            sig = self.keychain.sign(self.me, sender_sig_data(mid, dig))
            self.recorded.setdefault(mid, _Recorded(dig, sig))
            self.pending[mid] = _Pending(m, dig, "active", rule, sender_sig=sig)
            msg = WireMessage(PROTO_AV, REGULAR, mid, digest=dig, sender_sig=sig)
            actions += [Send(p, msg) for p in sorted(rule.members)]
            actions.append(SetTimer(("recovery", mid), self.timeouts.act_active))

        return actions

    # -- receiving --------------------------------------------------------

    def handle(self, src: int, msg: WireMessage, now: int) -> list[Action]:
        if src in self.known_faulty:
            return []
        role = msg.role
        if role == DELIVER:     # the O(n) fan-out, most receptions
            return self.on_deliver(src, msg, now)
        if role == REGULAR:
            return self.on_regular(src, msg, now)
        if role == ACK:
            return self.on_ack(src, msg, now)
        if role == INFORM:
            return self.on_inform(src, msg, now)
        if role == VERIFY:
            return self.on_verify(src, msg, now)
        if role == ALERT:
            return self.on_alert(src, msg, now)
        return []

    def on_regular(self, src: int, msg: WireMessage, now: int) -> list[Action]:
        mid = msg.subject
        if msg.proto not in self._protos or msg.digest is None:
            return []
        if src != mid.sender or mid.sender in self.known_faulty:
            return []
        if msg.proto == PROTO_AV:
            if msg.sender_sig is None or not self.keychain.verify(
                    mid.sender, sender_sig_data(mid, msg.digest), msg.sender_sig):
                return []
        ok, actions = self._record_or_conflict(
            mid, msg.digest, msg.sender_sig if msg.proto == PROTO_AV else None)
        if not ok:
            return actions

        if self.kind is ProtocolKind.E:
            return [self._ack_to(PROTO_E, src, mid, msg.digest)]

        if self.kind is ProtocolKind.THREE_T:
            return [self._ack_to(PROTO_3T, src, mid, msg.digest)]

        # ACT
        if msg.proto == PROTO_3T:
            # Recovery-regime request: hold the ack long enough for any
            # pending equivocation alert to land first.
            return [SetTimer(("delayed_ack", mid, msg.digest, src),
                             self.timeouts.recovery_ack_delay)]

        probe = self.probes.get(mid)
        if probe is not None:
            if probe.acked and probe.digest == msg.digest:
                return [self._ack_to(PROTO_AV, src, mid, msg.digest,
                                     probe.sender_sig)]
            return []  # probe already in flight
        targets = sample_peers(
            self.rng, w3t(mid, self.params, self.witness_seed), self.me,
            self.delta)
        self.probes[mid] = _Probe(msg.digest, msg.sender_sig, targets)
        inform = WireMessage(PROTO_AV, INFORM, mid, digest=msg.digest,
                             sender_sig=msg.sender_sig)
        return [Send(p, inform) for p in sorted(targets)] + actions

    def on_inform(self, src: int, msg: WireMessage, now: int) -> list[Action]:
        if self.kind is not ProtocolKind.ACT or msg.proto != PROTO_AV:
            return []
        mid = msg.subject
        if msg.digest is None or mid.sender in self.known_faulty:
            return []
        if msg.sender_sig is None or not self.keychain.verify(
                mid.sender, sender_sig_data(mid, msg.digest), msg.sender_sig):
            return []
        ok, actions = self._record_or_conflict(mid, msg.digest, msg.sender_sig)
        if not ok:
            return actions
        verify = WireMessage(PROTO_AV, VERIFY, mid, digest=msg.digest)
        return [Send(src, verify)]

    def on_verify(self, src: int, msg: WireMessage, now: int) -> list[Action]:
        if self.kind is not ProtocolKind.ACT:
            return []
        mid = msg.subject
        probe = self.probes.get(mid)
        if probe is None or src not in probe.targets or msg.digest != probe.digest:
            return []
        probe.got.add(src)
        if probe.acked or len(probe.got) < len(probe.targets):
            return []
        if mid.sender in self.known_faulty or mid in self.conflicted:
            return []
        probe.acked = True
        # The ack deliberately carries nothing about which peers were probed.
        return [self._ack_to(PROTO_AV, mid.sender, mid, probe.digest,
                             probe.sender_sig)]

    def on_ack(self, src: int, msg: WireMessage, now: int) -> list[Action]:
        ack = msg.ack
        if ack is None:
            return []
        mid = ack.subject
        if mid.sender != self.me:
            return []
        pend = self.pending.get(mid)
        if pend is None or pend.completed:
            return []
        if ack.signer != src or ack.signer in pend.acks:
            return []
        tag, members, count = pend.rule
        if ack.digest != pend.digest or ack.proto != tag:
            return []
        if members is not None and ack.signer not in members:
            return []
        if tag == PROTO_AV and ack.sender_sig != pend.sender_sig:
            return []
        if not ack_valid(ack, self.keychain):
            return []
        pend.acks[ack.signer] = ack
        if len(pend.acks) < count:  # acks holds eligible signers only
            return []
        pend.completed = True
        acks = tuple(pend.acks[s] for s in sorted(pend.acks))
        deliver = WireMessage(PROTO_TAG[self.kind], DELIVER, mid,
                              digest=pend.digest, body=pend.message, acks=acks)
        return [Broadcast(deliver)]

    # -- delivery ---------------------------------------------------------

    def _verdict(self, msg: WireMessage) -> Optional[_Recorded]:
        """The record of the body's digest if the deliver's acks meet the
        delivery rule, else None; judged once per deliver object among the
        engines that share this engine's verdicts, which all get the same
        record."""
        hit = self._verdicts.get(id(msg))
        if hit is not None:
            return hit[1]
        rec = None
        acks = msg.acks
        if acks is not None:
            mid = msg.body.id
            d = message_digest(msg.body)
            keychain = self.keychain
            if accepts(self._rules(mid), lambda tag: valid_signers(
                    acks, tag, mid, d, keychain)):
                rec = _Recorded(d)
        self._verdicts[id(msg)] = (msg, rec)
        return rec

    def on_deliver(self, src: int, msg: WireMessage, now: int) -> list[Action]:
        m = msg.body
        if m is None or msg.proto not in self._protos:
            return []
        mid = m.id
        last = self.delivery.get(mid.sender, 0)
        if mid.seq <= last:
            return []  # duplicate, suppressed whatever its acks
        rec = self._verdict(msg)
        if rec is None:
            return []
        if mid.seq > last + 1:
            slot = self.holdback.setdefault(mid.sender, {})
            if mid.seq not in slot and len(slot) < HOLDBACK_CAP:
                slot[mid.seq] = msg
            return []
        actions = self._do_deliver(msg, rec)
        queue = self.holdback.get(mid.sender)
        if queue:
            # held messages were judged valid before they were held
            seq = mid.seq + 1
            while (cur := queue.pop(seq, None)) is not None:
                actions += self._do_deliver(cur, self._verdict(cur))
                seq += 1
        return actions

    def _do_deliver(self, msg: WireMessage, rec: _Recorded) -> list[Action]:
        m = msg.body
        mid = m.id
        self.delivery[mid.sender] = mid.seq
        # A delivered message counts as received for conflict detection:
        # no ack or verification is ever signed against it afterwards.  The
        # record is the verdict memo's, one object for every engine that
        # delivers on this deliver.
        if mid not in self.recorded:
            self.recorded[mid] = rec
        if self.timeouts.reforward is not None:
            self.delivered_record[mid] = msg
        return [Deliver(m, msg.acks, rec.digest)]

    # -- alerts and re-forwards -------------------------------------------

    def on_alert(self, src: int, msg: WireMessage, now: int) -> list[Action]:
        ev = msg.evidence
        if ev is None or ev.digest_a == ev.digest_b:
            return []
        mid = ev.subject
        if not self.keychain.verify(mid.sender, sender_sig_data(mid, ev.digest_a),
                                    ev.sig_a):
            return []
        if not self.keychain.verify(mid.sender, sender_sig_data(mid, ev.digest_b),
                                    ev.sig_b):
            return []
        self.known_faulty.add(mid.sender)
        self.conflicted.add(mid)
        return []

    def reforward(self, mid: MessageId, missing: Optional[Collection[int]]
                  ) -> list[Action]:
        """Send the delivered message to the processes in missing, never to
        itself, and forget it; an empty missing set only forgets it.  A
        SimWorld calls this for a correct engine at its re-forward tick
        with the oracle's set of correct processes still missing the id.
        missing=None targets every other process: an adversary's shadow
        engine hears no oracle, and its re-forward is a timer the world
        arms at its delivery."""
        msg = self.delivered_record.pop(mid, None)
        if msg is None:
            return []
        targets = range(self.params.n) if missing is None else sorted(missing)
        return [Send(p, msg) for p in targets if p != self.me]

    # -- timers -----------------------------------------------------------

    def on_timer(self, timer_id: tuple, now: int) -> list[Action]:
        kind = timer_id[0]
        if kind == "recovery":
            return self.on_recovery_timeout(timer_id[1], now)
        if kind == "expand":
            return self._on_expand(timer_id[1])
        if kind == "delayed_ack":
            return self._on_delayed_ack(timer_id[1], timer_id[2], timer_id[3])
        if kind == "reforward":
            return self.reforward(timer_id[1], None)
        return []

    def on_recovery_timeout(self, mid: MessageId, now: int) -> list[Action]:
        """Active regime deadline: fall back to the 3T rule over the full
        witness range.  Active-regime acks are discarded; the regimes do
        not mix."""
        pend = self.pending.get(mid)
        if pend is None or pend.completed or pend.regime != "active":
            return []
        pend.regime = "recovery"
        pend.acks.clear()
        pend.rule = next(self._rules(mid, ProtocolKind.THREE_T))
        pend.contacted = pend.rule.members
        msg = WireMessage(PROTO_3T, REGULAR, mid, digest=pend.digest)
        return [Send(p, msg) for p in sorted(pend.contacted)]

    def _on_expand(self, mid: MessageId) -> list[Action]:
        pend = self.pending.get(mid)
        if pend is None or pend.completed or pend.regime != "3t":
            return []
        rest = pend.rule.members - pend.contacted
        if not rest:
            return []
        pend.contacted = pend.rule.members
        msg = WireMessage(PROTO_3T, REGULAR, mid, digest=pend.digest)
        return [Send(p, msg) for p in sorted(rest)]

    def _on_delayed_ack(self, mid: MessageId, dig: bytes, dst: int) -> list[Action]:
        if mid.sender in self.known_faulty or mid in self.conflicted:
            return []
        rec = self.recorded.get(mid)
        if rec is None or rec.digest != dig:
            return []
        return [self._ack_to(PROTO_3T, dst, mid, dig)]
