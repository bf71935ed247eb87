"""Byzantine strategies controlling up to t processes, fixed at world
construction time (the adversary is non-adaptive: the faulty set is chosen
before the witness seed is drawn).

A strategy receives every event addressed to a faulty process and answers
with protocol-syntax-valid actions.  It can sign only with faulty
processes' keys; attempting anything else raises ForgeryAttemptError from
the key chain, which is the structural version of "keys of correct
processes cannot be broken".

Strategies:

* silent        - faulty processes never respond.
* crash         - faulty processes behave honestly for a fixed number of
                  events, then go silent.
* equivocate    - a faulty sender multicasts two conflicting messages; the
                  other faulty processes act honestly.
* collusive     - the whole faulty team cooperates: witnesses acknowledge
                  anything (conflicts included) and verify every probe; a
                  faulty ACT sender attacks ids whose faulty active
                  witnesses alone meet the delivery rule by fabricating
                  both ack sets.
* regime-split  - the cross-regime attack on ACT: one message runs the
                  active regime, a conflicting one runs recovery against a
                  2t+1 set disjoint from the active witnesses.
* seq-burner    - experimental: multicasts filler traffic to advance its
                  sequence number until it reaches an id whose faulty
                  active witnesses alone meet the delivery rule, then
                  attacks it.

A strategy reaches the world only through the actions it returns, as a
correct engine does: one Multicast per version it multicasts (both of a
two-version attack before any Send), then its sends.  _on_multicast alone
picks the attack on a multicast.

The adversary reads the delivery rule, the witness sets and the keys from
the world's Setting.  Its shadow engines, the honest part of crash,
equivocate and seq-burner, are ProcessEngines on that one setting too;
they return their own Multicast, and with stability on each of their
deliveries arms their own re-forward timer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .core import (ADVERSARY, PROTO_3T, PROTO_AV, PROTO_TAG, Ack, MessageId,
                   MulticastMessage, ProtocolKind, build_ack, message_digest,
                   sign_sender, valid_signers)
from .protocols import (ACK, DELIVER, INFORM, REGULAR, VERIFY, Multicast,
                        ProcessEngine, Send, Setting, WireMessage)
# w3t and w_active are reached through Setting; bound anyway because the
# benchmark tracer (bench/tracer.py) patches them in every module.
from .quorum import accepts, w3t, w_active  # noqa: F401

# The strategies that attack agreement; silent and crash only withhold.
ATTACK_STRATEGIES = ("equivocate", "collusive", "regime-split", "seq-burner")
STRATEGIES = ("silent", "crash") + ATTACK_STRATEGIES


@dataclass
class _Side:
    message: MulticastMessage
    digest: bytes
    sender_sig: Optional[object]
    acks: list = field(default_factory=list)
    delivered: bool = False
    # per wire tag, the valid signers among acks[:checked]
    signers: dict[str, set[int]] = field(default_factory=dict)
    checked: int = 0


@dataclass
class _Attack:
    a: _Side
    b: Optional[_Side]


class Adversary:
    """Strategy dispatcher for all faulty processes in one world."""

    def __init__(self, strategy: str, setting: Setting,
                 faulty: frozenset[int], crash_after: int = 3):
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown adversary strategy {strategy!r}")
        self.strategy = strategy
        self.setting = setting
        self.faulty = faulty
        self.crash_after = crash_after
        self._events_handled: dict[int, int] = {p: 0 for p in faulty}
        self._shadows: dict[int, ProcessEngine] = {}
        self._seq: dict[int, int] = {p: 0 for p in faulty}
        self.attacks: dict[MessageId, _Attack] = {}
        # ids an attack was made on, and every id the faulty senders
        # multicast under an attack strategy: the Monte Carlo trials, since
        # the conflict bound is per message.  The two differ only for
        # seq-burner, whose fillers are trials but not attacks.
        self.attacked_ids: list[MessageId] = []
        self.trial_ids: list[MessageId] = []

    # -- plumbing ----------------------------------------------------------

    def _shadow(self, pid: int) -> ProcessEngine:
        eng = self._shadows.get(pid)
        if eng is None:
            eng = ProcessEngine(pid, self.setting)
            self._shadows[pid] = eng
        return eng

    def _ack(self, proto: str, signer: int, mid: MessageId, dig: bytes,
             sender_sig=None) -> Ack:
        return build_ack(self.setting.keychain, proto, signer, mid, dig,
                         sender_sig, caller=ADVERSARY)

    def _sign_sender(self, mid: MessageId, dig: bytes):
        return sign_sender(self.setting.keychain, mid, dig, caller=ADVERSARY)

    def _faulty_suffice(self, mid: MessageId) -> bool:
        """The faulty team alone can sign an ack set that meets the
        delivery rule for mid: for ACT, W_active ∩ F meets the active
        count; E's q and the 3T rule's 2t+1 both exceed t signers."""
        return accepts(self.setting.rules(mid), lambda tag: self.faulty)

    def act(self, pid: int, event: tuple, now: int) -> list:
        """Entry point: one event addressed to faulty process pid."""
        kind = event[0]
        if self.strategy == "silent":
            return []
        if self.strategy == "crash":
            self._events_handled[pid] += 1
            if self._events_handled[pid] > self.crash_after:
                return []
            return self._honest(pid, event, now)
        if kind == "multicast":
            return self._on_multicast(pid, event[1], now)
        if kind == "message":
            return self._on_message(pid, event[1], event[2], now)
        if kind == "timer":
            return self._honest(pid, event, now) \
                if self.strategy in ("equivocate", "seq-burner") else []
        return []

    def _honest(self, pid: int, event: tuple, now: int) -> list:
        eng = self._shadow(pid)
        kind = event[0]
        if kind == "multicast":
            return eng.wan_multicast(event[1])
        if kind == "message":
            return eng.handle(event[1], event[2], now)
        if kind == "timer":
            return eng.on_timer(event[1], now)
        return []

    # -- multicast-time attacks ---------------------------------------------

    def _on_multicast(self, pid: int, payload: bytes, now: int) -> list:
        """Choose the attack on this multicast: where the faulty active
        witnesses alone meet the delivery rule, collusive, regime-split and
        seq-burner fabricate both ack sets; otherwise regime-split splits
        the regimes, seq-burner burns the id with an honest filler, and the
        rest equivocate."""
        self._seq[pid] += 1
        mid = MessageId(pid, self._seq[pid])
        self.trial_ids.append(mid)
        strategy = self.strategy
        if (strategy in ("collusive", "regime-split", "seq-burner")
                and self._faulty_suffice(mid)):
            return self._fabricate_case1(pid, mid, payload)
        if strategy == "regime-split":
            return self._regime_split(pid, mid, payload)
        if strategy == "seq-burner":
            # the shadow's counter follows the ids attacked outside of it
            eng = self._shadow(pid)
            eng.own_seq = mid.seq - 1
            return eng.wan_multicast(payload)
        return self._equivocate(pid, mid, payload)

    def _two_messages(self, mid: MessageId, payload: bytes
                      ) -> tuple[_Side, _Side, list]:
        """Two conflicting messages for mid, and the attack's reply so far:
        one Multicast per message, ahead of any Send.  mid counts as
        attacked."""
        ma = MulticastMessage(mid, payload + b"/a")
        mb = MulticastMessage(mid, payload + b"/b")
        a = _Side(ma, message_digest(ma), None)
        b = _Side(mb, message_digest(mb), None)
        self.attacked_ids.append(mid)
        return a, b, [Multicast(mid, a.digest), Multicast(mid, b.digest)]

    def _equivocate(self, pid: int, mid: MessageId, payload: bytes) -> list:
        """Send two conflicting regulars of the sender's first rule to every
        process it names (all n for E), alternating which one goes first
        per destination; the sender acks both itself where the rule lets
        it.  Under ACT, race a recovery attempt against the alerts too."""
        setting = self.setting
        a, b, out = self._two_messages(mid, payload)
        tag, members, _ = next(setting.rules(mid))
        if tag == PROTO_AV:
            a.sender_sig = self._sign_sender(mid, a.digest)
            b.sender_sig = self._sign_sender(mid, b.digest)
        elif members is None or pid in members:
            a.acks.append(self._ack(tag, pid, mid, a.digest))
            b.acks.append(self._ack(tag, pid, mid, b.digest))
        ra, rb = (WireMessage(tag, REGULAR, mid, digest=side.digest,
                              sender_sig=side.sender_sig) for side in (a, b))
        for i, dst in enumerate(range(setting.params.n) if members is None
                                else sorted(members)):
            first, second = (ra, rb) if i % 2 == 0 else (rb, ra)
            out += [Send((dst,), first), Send((dst,), second)]
        self.attacks[mid] = _Attack(a, b)
        if tag == PROTO_AV:
            # one version per half of the range, racing the delayed
            # recovery acks against the alerts
            ta, tb = (WireMessage(PROTO_3T, REGULAR, mid, digest=side.digest)
                      for side in (a, b))
            out += [Send((dst,), ta if i % 2 == 0 else tb)
                    for i, dst in enumerate(sorted(setting.w3t(mid)))]
        return out

    def _fabricate_case1(self, pid: int, mid: MessageId,
                         payload: bytes) -> list:
        """The faulty active witnesses meet the delivery rule on their own:
        both ack sets can be minted outright and conflicting delivers
        pushed to disjoint halves."""
        a, b, out = self._two_messages(mid, payload)
        signers = sorted(self.setting.w_active(mid) & self.faulty)
        for side in (a, b):
            side.sender_sig = self._sign_sender(mid, side.digest)
            side.acks = [self._ack(PROTO_AV, w, mid, side.digest, side.sender_sig)
                         for w in signers]
            side.delivered = True
        da = WireMessage(PROTO_AV, DELIVER, mid, digest=a.digest,
                         body=a.message, acks=tuple(a.acks))
        db = WireMessage(PROTO_AV, DELIVER, mid, digest=b.digest,
                         body=b.message, acks=tuple(b.acks))
        out += [Send((dst,), da if dst % 2 == 0 else db)
                for dst in range(self.setting.params.n)]
        return out

    def _regime_split(self, pid: int, mid: MessageId, payload: bytes) -> list:
        """Active regime for one message, recovery regime for a conflicting
        one, against a 2t+1 set disjoint from the active witnesses."""
        assert self.setting.kind is ProtocolKind.ACT
        a, b, out = self._two_messages(mid, payload)
        (_, wa, _), (_, w3, need) = self.setting.rules(mid)

        a.sender_sig = self._sign_sender(mid, a.digest)
        a.acks = [self._ack(PROTO_AV, w, mid, a.digest, a.sender_sig)
                  for w in sorted(wa & self.faulty)]
        out.append(Send(sorted(wa), WireMessage(PROTO_AV, REGULAR, mid,
                                                digest=a.digest,
                                                sender_sig=a.sender_sig)))

        pool = w3 - wa
        if len(pool) >= need:
            s_faulty = sorted(pool & self.faulty)
            s_correct = sorted(pool - self.faulty)
            s = frozenset((s_faulty + s_correct)[:need])
            b.acks = [self._ack(PROTO_3T, w, mid, b.digest)
                      for w in sorted(s & self.faulty)]
            correct = sorted(s - self.faulty)
            if correct:
                out.append(Send(correct, WireMessage(PROTO_3T, REGULAR, mid,
                                                     digest=b.digest)))
            self.attacks[mid] = _Attack(a, b)
        else:
            self.attacks[mid] = _Attack(a, None)
        return out

    # -- message handling ----------------------------------------------------

    def _on_message(self, pid: int, src: int, msg: WireMessage,
                    now: int) -> list:
        if msg.role == ACK and msg.ack is not None \
                and msg.ack.subject in self.attacks:
            return self._collect(msg.ack)
        if self.strategy in ("equivocate", "seq-burner"):
            return self._honest(pid, ("message", src, msg), now)
        # Collusive team witness behavior: acknowledge and verify anything.
        if msg.role == REGULAR and msg.digest is not None:
            proto = msg.proto
            ack = self._ack(proto, pid, msg.subject, msg.digest,
                            msg.sender_sig if proto == PROTO_AV else None)
            return [Send((src,), WireMessage(proto, ACK, msg.subject,
                                             digest=msg.digest, ack=ack))]
        if msg.role == INFORM and msg.digest is not None:
            return [Send((src,), WireMessage(PROTO_AV, VERIFY, msg.subject,
                                             digest=msg.digest))]
        return []

    def _collect(self, ack: Ack) -> list:
        atk = self.attacks[ack.subject]
        out = []
        for side, even in ((atk.a, True), (atk.b, False)):
            if side is None or side.delivered or ack.digest != side.digest:
                continue
            side.acks.append(ack)
            if self._deliverable(ack.subject, side):
                side.delivered = True
                out += self._deliver_split(ack.subject, side, even)
        return out

    def _deliverable(self, mid: MessageId, side: _Side) -> bool:
        """Validate only the acks appended since the last check, so an
        attack costs one check per ack, not one per ack per ack."""
        new = side.acks[side.checked:]
        side.checked = len(side.acks)
        for tag in {a.proto for a in new}:
            side.signers.setdefault(tag, set()).update(valid_signers(
                new, tag, mid, side.digest, self.setting.keychain))
        return accepts(self.setting.rules(mid),
                       lambda tag: side.signers.get(tag, ()))

    def _deliver_split(self, mid: MessageId, side: _Side, even: bool) -> list:
        msg = WireMessage(PROTO_TAG[self.setting.kind], DELIVER, mid,
                          digest=side.digest, body=side.message,
                          acks=tuple(side.acks))
        n = self.setting.params.n
        if self.attacks[mid].b is None:
            return [Send(range(n), msg)]
        # two sides: each delivers to its own half, even or odd pids
        return [Send(range(0 if even else 1, n, 2), msg)]

