"""The three multicast protocol engines as event-driven state machines.

A ProcessEngine owns one process's protocol state.  Every handler consumes
a single input (a wire message, a timer, or a local multicast request) and
returns the list of actions it wants performed: multicasts, sends,
application-level deliveries, timer requests, and alerts; a process
reaches its world through nothing else.  A Send names its destinations in
send order, at least one, so a fan-out (a multicast's regular, a widening,
a probe's informs, a deliver, a re-forward) is one Send.  A multicast's
first action is a Multicast naming the id and digest.  All
nondeterminism comes from the engine's own keyed RNG stream, built on
first use, so a run is a pure function of configuration and seeds.

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

A sender's regulars all come from its pending id's current AckRule.  E's
names no members, so E asks every process; 3T asks a random count of its
members and widens to the rest on timeout; ACT asks its whole active set,
and at its deadline switches to the 3T rule and asks the whole 3t+1 range
at once.  Asking 2t+1 first would save nothing there: the range almost
always holds a faulty process and a recovery ack is held 2hi+5 ticks, so
in 685 measured fallbacks such a contact always widened, signed as many
acks and completed 14 to 17 ticks later (README, "Simulation model").

With the stability oracle on, a process that delivers a message keeps it
and re-forwards it once, Timeouts.reforward after the delivery, to every
correct process the oracle has not yet reported as having delivered it.
A correct engine arms no timer for this: at that tick a SimWorld calls
reforward(id, missing) with the oracle's set of correct processes still
missing the id, and the engine sends to them and forgets the id; an empty
set (stable everywhere) only forgets it.  An engine of a faulty process
(an adversary's shadow engine) hears no oracle: its Deliver comes with a
SetTimer(("reforward", id)), which re-forwards to every other process.
Without the oracle nothing re-forwards and nothing is kept.

An engine takes one Setting, the world's shared part: the protocol kind,
n and t, the key chain, the seeds, kappa, delta, the slack and the timers.
A SimWorld builds one and gives it to all of its engines and to the
adversary, whose shadow engines take it too.  Every process checks a
deliver's ack set against the delivery rule before it delivers.  The
verdict is a pure function of the message, its acks and the setting, so
the engines of one world judge each deliver object once: the first to
judge it caches the verdict on the deliver itself, with the setting it
was judged under, and the verdict lives exactly as long as the deliver.
An engine whose setting is not the cached one judges afresh, so engines
whose rules differ never share a verdict.  A receiver that has already
delivered the id drops the deliver without judging it.  A valid verdict
is a Deliver action, built once: every engine that delivers on the
deliver returns that one Deliver, and nothing else unless it releases held
messages.  So a deliver fan-out costs each recipient only its own work:
on_deliver looks up the sender's slot once, reads the cached verdict, and
hands both to _do_deliver, which writes the slot and closes the id; the
holdback is touched only when something is held.  A SimWorld relies on the
shared Deliver to record each such delivery in O(1) (see simnet).

Delivery closes an id.  A correct process vouches for at most one value
per id (Bracha's one-value-per-instance rule), so once it has delivered an
id it signs no ack, verify or delayed ack for it again, for any digest.
_do_deliver drops the id's record and probe; on_regular and on_inform
refuse every id at or below the sender's slot in the delivery vector, a
delayed ack or a verify then finds no record or probe and is refused, and
the sender's own pending entry went when it completed.  So a late
conflicting regular or inform raises no alert from a process that has
delivered: only one that arrives before the delivery does, while the
record still holds the first sender signature.  Alerts other processes
raise are still heard.  Apart from the delivery vector, a correct engine
keeps nothing for an id it has delivered but the deliver it will
re-forward, and that only until the re-forward.

An engine's delivery vector is an array of unsigned ints over sender
slots.  The Setting maps each sender to its slot, given at the sender's
first delivery anywhere in the world, so the slots are dense over the
senders delivered so far.  An engine's vector reaches only as far as the
highest slot it has delivered from, so it grows with the senders it
delivers, not with n; reading a sender that has no slot, or none in this
vector yet, gives 0 and allocates nothing.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field
from itertools import repeat
from types import MappingProxyType
from typing import (Collection, Iterator, NamedTuple, Optional, Sequence,
                    Union)

from .core import (PROTO_3T, PROTO_AV, PROTO_TAG, Ack, KeyChain, MessageId,
                   MulticastMessage, ProtocolKind, Signature, ack_valid,
                   build_ack, keyed_seed, message_digest, sender_signed,
                   sign_sender, valid_signers)
from .quorum import (AckRule, QuorumParams, accepts, ack_rules,
                     check_act_params, sample_peers, sample_witness_subset,
                     w3t, w_active)

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


# Not frozen: one is built per Send, and a frozen dataclass sets each field
# through object.__setattr__, three times the cost.  Nothing hashes one.
@dataclass(slots=True)
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
    # a deliver's (setting, verdict), set by ProcessEngine._verdict on its
    # first judgement; not part of the message's value
    judged: Optional[tuple[Setting, Optional[Deliver]]] = field(
        default=None, init=False, compare=False, repr=False)


# Actions are named tuples, cheap to build: a world dispatches on their
# type (type(act) is Send), never on equality, since equal fields make
# equal tuples across action types.

class Send(NamedTuple):
    to: Sequence[int]           # the destinations in send order, never empty
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


class Multicast(NamedTuple):     # ahead of the version's first Send
    id: MessageId
    digest: bytes


Action = Union[Multicast, Send, Deliver, SetTimer, RaiseAlert]


# Hard latency bound of the out-of-band alert plane, in ticks.
ALERT_LATENCY_BOUND = 3

# Deliveries held per sender while waiting for an earlier sequence number.
HOLDBACK_CAP = 64

# The delivery vector slot an unseen sender reads: past every vector's end.
_NO_SLOT = 1 << 62


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
    """What an engine has received for an id it has not delivered."""
    digest: bytes
    sender_sig: Optional[Signature] = None


@dataclass
class _Pending:
    message: MulticastMessage
    digest: bytes
    rule: AckRule               # the acks being collected, and from whom
    acks: dict = field(default_factory=dict)   # signer -> Ack
    contacted: frozenset[int] = frozenset()    # sent the rule's regular
    sender_sig: Optional[Signature] = None


@dataclass
class _Probe:
    digest: bytes
    sender_sig: Signature
    targets: tuple[int, ...]
    got: set[int] = field(default_factory=set)
    acked: bool = False


@dataclass(frozen=True, eq=False)
class Setting:
    """What the engines of one world share (see the module docstring),
    with ACT's parameter domain checked once, here.  Compared by identity:
    engines share verdicts only by sharing the setting, and
    dataclasses.replace makes a new one that shares none."""
    kind: ProtocolKind
    params: QuorumParams
    keychain: KeyChain
    witness_seed: int
    stream_seed: int
    kappa: int = 0
    delta: int = 0
    slack_c: int = 0
    timeouts: Timeouts = Timeouts.for_latency(5)
    # the wire tags engines accept; ACT recovery traffic is 3T
    protos: frozenset[str] = field(init=False, repr=False)
    # sender -> its slot in every engine's delivery vector, assigned in
    # order of the sender's first delivery by any engine
    sender_slots: dict[int, int] = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind is ProtocolKind.ACT:
            check_act_params(self.params.n, self.params.t, self.kappa,
                             self.delta, self.slack_c)
        object.__setattr__(self, "protos", frozenset(
            (PROTO_TAG[self.kind], PROTO_3T) if self.kind is ProtocolKind.ACT
            else (PROTO_TAG[self.kind],)))
        object.__setattr__(self, "sender_slots", {})

    def rules(self, mid: MessageId, kind: Optional[ProtocolKind] = None
              ) -> Iterator[AckRule]:
        return ack_rules(kind or self.kind, mid, self.params,
                         self.witness_seed, self.kappa, self.slack_c)

    def w3t(self, mid: MessageId) -> frozenset[int]:
        return w3t(mid, self.params, self.witness_seed)

    def w_active(self, mid: MessageId) -> frozenset[int]:
        return w_active(mid, self.kappa, self.params, self.witness_seed)


class ProcessEngine:
    """One correct process's protocol state machine."""

    # Always empty; kept only for bench/tracer.py's state count to read.
    stability = MappingProxyType({})

    def __init__(self, me: int, setting: Setting):
        self.me = me
        self.setting = setting
        self._rng: Optional[random.Random] = None

        self.own_seq = 0
        # [setting.sender_slots[sender]] -> last delivered seq, as far as
        # the highest slot delivered from; read it through last_delivered
        self.delivery = array("I")
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
                keyed_seed(self.setting.stream_seed, b"proc", self.me))
        return self._rng

    def last_delivered(self, sender: int) -> int:
        """The last seq delivered from sender, 0 before its first."""
        slot = self.setting.sender_slots.get(sender, _NO_SLOT)
        delivery = self.delivery
        return delivery[slot] if slot < len(delivery) else 0

    def _ack_to(self, proto: str, dst: int, mid: MessageId, dig: bytes,
                sender_sig: Optional[Signature] = None) -> Send:
        ack = build_ack(self.setting.keychain, proto, self.me, mid, dig, sender_sig)
        return Send((dst,), WireMessage(proto, ACK, mid, digest=dig, ack=ack,
                                        sender_sig=sender_sig))

    def _contact(self, pend: _Pending, to: Collection[int]) -> Send:
        """The current rule's regular for pend, to the processes in to in
        pid order; they count as contacted from now on."""
        pend.contacted = pend.contacted.union(to)
        tag = pend.rule.tag
        msg = WireMessage(tag, REGULAR, pend.message.id, digest=pend.digest,
                          sender_sig=pend.sender_sig if tag == PROTO_AV
                          else None)
        return Send(sorted(to), msg)

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
        setting = self.setting
        rule = next(setting.rules(mid))
        tag, members, count = rule
        sig = (sign_sender(setting.keychain, mid, dig) if tag == PROTO_AV
               else None)
        self.recorded.setdefault(mid, _Recorded(dig, sig))
        pend = self.pending[mid] = _Pending(m, dig, rule, sender_sig=sig)
        mcast = Multicast(mid, dig)
        if members is None:     # E: every process, nothing to widen
            return [mcast, self._contact(pend, range(setting.params.n))]
        if tag == PROTO_AV:     # ACT: the active set, 3T after a deadline
            return [mcast, self._contact(pend, members),
                    SetTimer(("recovery", mid), setting.timeouts.act_active)]
        # 3T: count of the range, the rest after a timeout
        first = sample_witness_subset(self.rng, members, count)
        return [mcast, self._contact(pend, first),
                SetTimer(("expand", mid), setting.timeouts.t3_expand)]

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
        setting = self.setting
        if msg.proto not in setting.protos or msg.digest is None:
            return []
        if src != mid.sender or mid.sender in self.known_faulty:
            return []
        if mid.seq <= self.last_delivered(mid.sender):
            return []   # closed: delivered, its record dropped
        if msg.proto == PROTO_AV and not sender_signed(
                setting.keychain, mid, msg.digest, msg.sender_sig):
            return []
        ok, actions = self._record_or_conflict(
            mid, msg.digest, msg.sender_sig if msg.proto == PROTO_AV else None)
        if not ok:
            return actions

        if setting.kind is not ProtocolKind.ACT:
            return [self._ack_to(msg.proto, src, mid, msg.digest)]
        if msg.proto == PROTO_3T:
            # Recovery-regime request: hold the ack long enough for any
            # pending equivocation alert to land first.
            return [SetTimer(("delayed_ack", mid, msg.digest, src),
                             setting.timeouts.recovery_ack_delay)]

        probe = self.probes.get(mid)
        if probe is not None:
            if probe.acked and probe.digest == msg.digest:
                return [self._ack_to(PROTO_AV, src, mid, msg.digest,
                                     probe.sender_sig)]
            return []  # probe already in flight
        targets = sample_peers(self.rng, setting.w3t(mid), self.me,
                               setting.delta)
        self.probes[mid] = _Probe(msg.digest, msg.sender_sig, targets)
        inform = WireMessage(PROTO_AV, INFORM, mid, digest=msg.digest,
                             sender_sig=msg.sender_sig)
        return [Send(sorted(targets), inform)]

    def on_inform(self, src: int, msg: WireMessage, now: int) -> list[Action]:
        if self.setting.kind is not ProtocolKind.ACT or msg.proto != PROTO_AV:
            return []
        mid = msg.subject
        if msg.digest is None or mid.sender in self.known_faulty:
            return []
        if mid.seq <= self.last_delivered(mid.sender):
            return []   # closed: delivered, its record dropped
        if not sender_signed(self.setting.keychain, mid, msg.digest,
                             msg.sender_sig):
            return []
        ok, actions = self._record_or_conflict(mid, msg.digest, msg.sender_sig)
        if not ok:
            return actions
        verify = WireMessage(PROTO_AV, VERIFY, mid, digest=msg.digest)
        return [Send((src,), verify)]

    def on_verify(self, src: int, msg: WireMessage, now: int) -> list[Action]:
        if self.setting.kind is not ProtocolKind.ACT:
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
        if pend is None:
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
        if not ack_valid(ack, self.setting.keychain):
            return []
        pend.acks[ack.signer] = ack
        if len(pend.acks) < count:  # acks holds eligible signers only
            return []
        del self.pending[mid]   # complete: late acks and timers find nothing
        acks = tuple(pend.acks[s] for s in sorted(pend.acks))
        deliver = WireMessage(PROTO_TAG[self.setting.kind], DELIVER, mid,
                              digest=pend.digest, body=pend.message, acks=acks)
        return [Send(range(self.setting.params.n), deliver)]

    # -- delivery ---------------------------------------------------------

    def _verdict(self, msg: WireMessage) -> Optional[Deliver]:
        """The Deliver action if the deliver's acks meet the delivery rule,
        else None; judged once per deliver object among the engines that
        share this engine's setting, which all get the same Deliver."""
        setting = self.setting
        hit = msg.judged
        if hit is not None and hit[0] is setting:
            return hit[1]
        verdict = None
        acks = msg.acks
        if acks is not None:
            m = msg.body
            mid = m.id
            d = message_digest(m)
            keychain = setting.keychain
            if accepts(setting.rules(mid), lambda tag: valid_signers(
                    acks, tag, mid, d, keychain)):
                verdict = Deliver(m, acks, d)
        msg.judged = (setting, verdict)
        return verdict

    def on_deliver(self, src: int, msg: WireMessage, now: int) -> list[Action]:
        m = msg.body
        setting = self.setting
        if m is None or msg.proto not in setting.protos:
            return []
        mid = m.id
        sender, seq = mid
        # last_delivered(sender), with the slot kept for _do_deliver
        slot = setting.sender_slots.get(sender)
        delivery = self.delivery
        last = (delivery[slot] if slot is not None and slot < len(delivery)
                else 0)
        if seq <= last:
            return []  # duplicate, suppressed whatever its acks
        hit = msg.judged     # _verdict's memo, read here
        verdict = (hit[1] if hit is not None and hit[0] is setting
                   else self._verdict(msg))
        if verdict is None:
            return []
        holdback = self.holdback
        if seq > last + 1:
            held = holdback.get(sender)
            if held is None:
                held = holdback[sender] = {}
            if seq not in held and len(held) < HOLDBACK_CAP:
                held[seq] = msg
            return []
        actions = self._do_deliver(msg, verdict, slot)
        if holdback and (held := holdback.get(sender)) is not None:
            # held messages were judged valid before they were held
            slot = setting.sender_slots[sender]
            seq += 1
            while (cur := held.pop(seq, None)) is not None:
                actions += self._do_deliver(cur, self._verdict(cur), slot)
                seq += 1
            if not held:
                del holdback[sender]
        return actions

    def _do_deliver(self, msg: WireMessage, dlv: Deliver,
                    slot: Optional[int]) -> list[Action]:
        """Deliver on a valid deliver from the sender in slot, None if no
        engine has delivered from it yet.  dlv is its verdict, one object
        for every engine that delivers on this deliver."""
        mid = dlv.message.id
        setting = self.setting
        if slot is None:
            slots = setting.sender_slots
            slot = slots[mid.sender] = len(slots)
        # A delivered seq is always the sender's last delivered one plus 1,
        # so it counts this engine's deliveries from that sender: 2**32 - 1
        # of them are more than any world runs, and the array raises
        # OverflowError rather than wrap.
        delivery = self.delivery
        if slot < len(delivery):
            delivery[slot] = mid.seq
        else:
            if slot > len(delivery):  # senders this engine has not delivered
                delivery.extend(repeat(0, slot - len(delivery)))
            delivery.append(mid.seq)
        # Delivery closes the id: its record and probe go, and on_regular
        # and on_inform refuse it from now on, so no ack, verify or delayed
        # ack is ever signed for it again, for this digest or another.
        self.recorded.pop(mid, None)
        self.probes.pop(mid, None)
        delay = setting.timeouts.reforward
        if delay is not None:
            self.delivered_record[mid] = msg
            if self.me in setting.keychain.faulty:
                # a shadow engine hears no oracle: it re-forwards on a timer
                return [dlv, SetTimer(("reforward", mid), delay)]
        return [dlv]

    # -- alerts and re-forwards -------------------------------------------

    def on_alert(self, src: int, msg: WireMessage, now: int) -> list[Action]:
        ev = msg.evidence
        if ev is None or ev.digest_a == ev.digest_b:
            return []
        mid = ev.subject
        keychain = self.setting.keychain
        if not (sender_signed(keychain, mid, ev.digest_a, ev.sig_a)
                and sender_signed(keychain, mid, ev.digest_b, ev.sig_b)):
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
        engine hears no oracle, and its re-forward is the timer its own
        delivery arms."""
        msg = self.delivered_record.pop(mid, None)
        if msg is None:
            return []
        targets = range(self.setting.params.n) if missing is None else sorted(missing)
        to = [p for p in targets if p != self.me]
        return [Send(to, msg)] if to else []

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
        """Active regime deadline: fall back to the 3T rule, asking the
        whole 3t+1 range at once (see the module docstring).  Active-regime
        acks are discarded; the regimes do not mix."""
        pend = self.pending.get(mid)
        if pend is None or pend.rule.tag != PROTO_AV:
            return []
        pend.rule = next(self.setting.rules(mid, ProtocolKind.THREE_T))
        pend.acks.clear()
        pend.contacted = frozenset()
        return self._on_expand(mid)

    def _on_expand(self, mid: MessageId) -> list[Action]:
        """Widen to the rule's members not yet contacted; E's rule has no
        members to widen to, and ACT's active set is contacted whole."""
        pend = self.pending.get(mid)
        if pend is None or pend.rule.members is None:
            return []
        rest = pend.rule.members - pend.contacted
        return [self._contact(pend, rest)] if rest else []

    def _on_delayed_ack(self, mid: MessageId, dig: bytes, dst: int) -> list[Action]:
        if mid.sender in self.known_faulty or mid in self.conflicted:
            return []
        rec = self.recorded.get(mid)
        if rec is None or rec.digest != dig:
            return []
        return [self._ack_to(PROTO_3T, dst, mid, dig)]
