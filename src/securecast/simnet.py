"""Deterministic discrete-event network simulator.

One world is a pure function of its configuration and seeds: every source
of randomness is keyed by the world seed, the event queue breaks ties by
insertion order, and per-pair channels are FIFO with probabilistic loss plus
automatic retransmission, so delivery probability approaches one as time
passes.

Channel randomness is counter based: a channel (src, dst) holds only the
number of draws it has made, and its draw k is the u64
keyed_seed(world_seed, b"chan", src, dst, k).  A send takes one draw for
its latency, lo + u % (hi - lo + 1), then, when p_drop > 0, one more per
transmission attempt, each a loss while u / 2**64 < p_drop.  The draw
counts of one source are one row of n unsigned 32-bit ints, built on its
first send, so they take at most 4n^2 bytes (4 MB at n=1000), however
long a world runs.  Each channel is FIFO: a send never arrives before the
channel's last arrival.  Those last arrival ticks sit in one world-level
dict keyed src * n + dst, which needs a channel only while its last
arrival could still clamp a new send, that is while it lies beyond the
earliest arrival now + latency_lo of a send made now.  A send records its
arrival only when it lies beyond that, and the dict is pruned of the
channels that no longer do whenever it doubles, so it follows the
messages in flight, not the channels ever used.  The alert
plane is counter based the same way, under the label b"alert": an alert
from src to dst takes one draw u of that pair and arrives 1 + u %
ALERT_LATENCY_BOUND ticks later, so a world that raises no alert draws
nothing for it.  Processes use Mersenne Twister streams seeded the same
keyed way, each built only when the process first samples.  The oracle
draws nothing.

Events run in (time, insertion) order from a TickQueue: one FIFO bucket
per tick plus a heap of the distinct ticks, so a queue item costs a list
append and a list pop, and the heap sees each tick once.  A Send names its
destinations, and on either plane one loop draws each destination's
arrival, clamps it and files the destination under its arrival tick; then
one message item per distinct tick is pushed, listing that tick's
recipients in send order.  The items of one send are pushed with nothing
in between, each at least a tick ahead, so each lands exactly where its
recipients' own items would, and SimWorld.step, which pops one item and
dispatches it to each recipient in turn, runs every reception in the same
order as one item per recipient would.

SimWorld.step resolves what an item's recipients share once per item: the
role, the trace and stability flags and, with the trace on, the recv
line's fields.  A deliver's recipients share more: every correct one that
delivers on it returns the verdict's one Deliver and nothing else, so its
PidSet in delivered_digests, the tick's stability batch and the appdlv
fields are found at the first such recipient.  Each recipient then costs
its own ProcessEngine.handle call plus its own count, bit, batch entry and
trace lines.  Any other reply, a faulty recipient's above all, goes
through SimWorld._apply.  This is the one receive path, trace on or off,
stability on or off.  With the trace off no trace line is formatted.

A lost transmission is retried RETRANSMIT_INTERVAL ticks later.  Alerts
travel on a separate out-of-band plane with no loss and a hard latency
bound, ALERT_LATENCY_BOUND.  Every protocol timer is derived from
latency_hi (Timeouts.for_latency), the recovery ack delay among them, so it
always exceeds that bound: the race the ACT protocol relies on.

The stability mechanism is a trusted oracle that knows the correct set.
The correct deliveries of one tick form one batch, and the first of them
schedules the batch's two wake-ups.  The batch matures 4 * latency_hi
ticks later: the oracle writes one "stable" trace record per delivery and
hands nothing to the engines.  Per message id it keeps the correct
processes whose delivery has not yet matured, and forgets the id once
that set is empty.

The oracle is consulted where it is needed: at the batch's re-forward
tick, Timeouts.reforward (8 * latency_hi) after its deliveries.  Then the
world calls ProcessEngine.reforward(id, missing) of each deliverer,
missing being the correct processes the oracle still has missing the id
(empty: stable everywhere, which only releases the id), and drops the
batch.  A re-forward wake-up is pushed 4 * latency_hi ticks before the
maturity wake-up of the same tick, so it runs first: the set an engine
sees is the newest the oracle had reported.  A re-forward with a
non-empty set writes one timer_fire line; an id stable everywhere costs no
event, no send and no trace line.  A faulty process's delivery is not
reported; its shadow engine arms its own re-forward timer, which the
adversary handles.  Only real deliveries are ever reported.

A process, correct or faulty, reaches the world only through the actions
it returns, which SimWorld._apply performs in order.  A Multicast action
writes the mcast trace line, noted "adv" for a faulty process, ahead of
the version's sends; the world reads no engine or adversary state.
"""

from __future__ import annotations

import random
import struct
from array import array
from collections.abc import MutableSet
from dataclasses import dataclass, replace
from hashlib import sha256
from heapq import heappop, heappush
from typing import Iterator, Optional

from .adversary import ATTACK_STRATEGIES, STRATEGIES, Adversary
from .core import (PROTO_TAG, KeyChain, MessageId, ProtocolKind, _enc, _u64,
                   digest64, keyed_prefix, keyed_seed, u64_fields,
                   valid_signers)
# Unused here since Deliver carries its digest; bound anyway because the
# benchmark tracer (bench/tracer.py) patches message_digest in this module.
from .core import message_digest  # noqa: F401
from .protocols import (ALERT, ALERT_LATENCY_BOUND, INFORM, REGULAR,
                        SM_NOTIFY, Deliver, Multicast, ProcessEngine,
                        RaiseAlert, Send, SetTimer, Setting, Timeouts,
                        WireMessage)
from .quorum import InvalidParamsError, QuorumParams, check_act_params

EV_MSG = 0
EV_TIMER = 1
EV_MCAST = 2
EV_ORACLE = 3
EV_REFORWARD = 4

# Ticks between a lost transmission and its retry.
RETRANSMIT_INTERVAL = 8

# The largest latency_hi a world accepts, far past the 10**6 ticks
# run_to_quiescence runs by default.
MAX_LATENCY = 1 << 24

# The size below which SimWorld._in_flight is never pruned.
_IN_FLIGHT_MIN = 256

# Who multicasts: "faulty" senders only, "uniform" draws among the correct
# processes, "auto" picks faulty under an attack strategy, else uniform.
SENDER_MODES = ("auto", "uniform", "faulty")

# Trace lines write_trace joins into one write.
_WRITE_CHUNK = 4096

# (src, dst, draw index) in keyed_seed's encoding, after the channel prefix
_CHAN_FIELDS = u64_fields(3)
# the same fields, split: src once per send, then (dst, index) per draw
_CHAN_SRC = u64_fields(1)
_CHAN_DST_K = u64_fields(2)
# a SHA-256 digest's first 8 bytes as an unsigned int, as digest64 reads it
_U64 = struct.Struct(">Q").unpack_from


def _fields(proto, role, subject, dig, note) -> str:
    """The last five fields of a trace line."""
    return " ".join((proto or "-", role or "-",
                     "-" if subject is None else str(subject),
                     dig[:4].hex() if dig else "-", note or "-"))


class TickQueue:
    """Pending items in (time, insertion) order: one FIFO bucket per tick
    and a heap of the distinct ticks.

    The bucket of the tick being dispatched is taken out of the dict and
    reversed, so a pop is a list pop.  An item pushed at that same tick
    opens a fresh bucket, which is drained after the current one, as
    insertion order requires.  A push never goes before the tick of the
    last pop: a simulation does not schedule into the past.  len() is the
    number of pending items; a message item may name many recipients.
    """

    __slots__ = ("_buckets", "_ticks", "_head", "_head_time", "_size")

    def __init__(self):
        self._buckets: dict[int, list] = {}
        self._ticks: list[int] = []       # heap of the keys of _buckets
        self._head: list = []             # the current tick's rest, last first
        self._head_time = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def push(self, time: int, item: tuple):
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [item]
            heappush(self._ticks, time)
        else:
            bucket.append(item)
        self._size += 1

    def pop(self) -> tuple[int, tuple]:
        """The next (time, item); the queue must not be empty."""
        head = self._head
        if not head:
            self._head_time = time = heappop(self._ticks)
            head = self._head = self._buckets.pop(time)
            head.reverse()
        self._size -= 1
        return self._head_time, head.pop()

    def next_time(self) -> Optional[int]:
        """The time of the next event, or None when the queue is empty."""
        if self._head:
            return self._head_time
        return self._ticks[0] if self._ticks else None

    def __iter__(self) -> Iterator[tuple[int, tuple]]:
        """The pending (time, item) pairs in dispatch order, not popped."""
        for item in reversed(self._head):
            yield self._head_time, item
        for time in sorted(self._ticks):
            for item in self._buckets[time]:
                yield time, item


class ConfigError(ValueError):
    def __init__(self, fld: str, msg: str):
        self.field = fld
        super().__init__(f"{fld}: {msg}")


@dataclass
class SimConfig:
    protocol: str                     # e | 3t | act
    n: int
    t: int
    kappa: int = 0
    delta: int = 0
    slack_c: int = 0
    messages: int = 1
    adversary: str = "none"
    crash_after: int = 3
    num_faulty: Optional[int] = None  # defaults: t if adversary set, else 0
    faulty_set: Optional[tuple[int, ...]] = None
    senders: str = "auto"             # auto | uniform | faulty
    seed: int = 0
    witness_seed: Optional[int] = None
    adversary_seed: Optional[int] = None
    p_drop: float = 0.0
    latency_lo: int = 1
    latency_hi: int = 5               # every protocol timer derives from it
    stability: bool = True
    message_spacing: int = 3
    record_trace: bool = True

    def validate(self):
        if self.protocol not in ("e", "3t", "act"):
            raise ConfigError("protocol", f"unknown protocol {self.protocol!r}")
        try:
            QuorumParams(self.n, self.t)
        except InvalidParamsError as exc:
            raise ConfigError("t", str(exc)) from exc
        if self.protocol == "act":
            try:
                check_act_params(self.n, self.t, self.kappa, self.delta,
                                 self.slack_c)
            except InvalidParamsError as exc:
                raise ConfigError(exc.field, str(exc)) from exc
        if self.adversary not in ("none",) + STRATEGIES:
            raise ConfigError("adversary", f"unknown strategy {self.adversary!r}")
        if self.adversary in ("regime-split", "seq-burner") and self.protocol != "act":
            raise ConfigError("adversary",
                              f"{self.adversary} applies to the act protocol only")
        if not 0.0 <= self.p_drop < 1.0:
            raise ConfigError("p_drop", "drop probability must be in [0, 1)")
        if self.latency_lo < 1:
            raise ConfigError("latency_lo", "need 1 <= latency_lo <= latency_hi")
        if self.latency_hi < self.latency_lo:
            raise ConfigError("latency_hi", f"need latency_hi >= latency_lo "
                              f"= {self.latency_lo}, got {self.latency_hi}")
        if self.latency_hi > MAX_LATENCY:
            raise ConfigError("latency_hi", f"must be <= {MAX_LATENCY}, "
                              f"got {self.latency_hi}")
        if self.senders not in SENDER_MODES:
            raise ConfigError("senders", f"unknown sender mode {self.senders!r}")
        if self.crash_after < 0:
            raise ConfigError("crash_after",
                              f"must be >= 0, got {self.crash_after}")
        if self.num_faulty is not None and self.num_faulty < 0:
            raise ConfigError("num_faulty", f"must be >= 0, got {self.num_faulty}")
        nf = self.effective_num_faulty()
        if nf > self.t:
            raise ConfigError("num_faulty", f"{nf} faulty exceeds t={self.t}")
        if self.faulty_set is not None:
            if any(not 0 <= p < self.n for p in self.faulty_set):
                raise ConfigError("faulty_set", "process id out of range")
        if self.adversary in ATTACK_STRATEGIES and nf < 1:
            raise ConfigError("num_faulty",
                              f"{self.adversary} needs at least one faulty process")
        if self.messages < 0:
            raise ConfigError("messages", "message count must be >= 0")
        if self.message_spacing < 0:
            # a multicast would go before the tick of the one ahead of it
            raise ConfigError("message_spacing",
                              f"must be >= 0, got {self.message_spacing}")

    def effective_num_faulty(self) -> int:
        if self.faulty_set is not None:
            return len(set(self.faulty_set))
        if self.num_faulty is not None:
            return self.num_faulty
        return self.t if self.adversary != "none" else 0

    def derived_seed(self, label: bytes) -> int:
        return keyed_seed(self.seed, label)


class PidSet(MutableSet):
    """A set of process ids in range(n): n bits and a count, where a
    builtin set of n ints takes ~32 n bytes.  It iterates in ascending
    order, and compares equal to a builtin set of the same ids.
    SimWorld._record_delivery sets a bit and the count in place."""

    __slots__ = ("_bits", "_count")

    def __init__(self, n: int):
        self._bits = bytearray((n + 7) >> 3)
        self._count = 0

    @classmethod
    def _from_iterable(cls, it) -> set:
        # the results of &, |, - and ^ are builtin sets: they have no n
        return set(it)

    def __len__(self) -> int:
        return self._count

    def __contains__(self, p) -> bool:
        return (isinstance(p, int) and 0 <= p < len(self._bits) << 3
                and bool(self._bits[p >> 3] >> (p & 7) & 1))

    def __iter__(self) -> Iterator[int]:
        for i, byte in enumerate(self._bits):
            while byte:
                low = byte & -byte
                yield (i << 3) + low.bit_length() - 1
                byte ^= low

    def add(self, p: int):
        bits = self._bits
        if not 0 <= p < len(bits) << 3:
            raise ValueError(f"no process {p} among {len(bits) << 3}")
        mask = 1 << (p & 7)
        if not bits[p >> 3] & mask:
            bits[p >> 3] |= mask
            self._count += 1

    def discard(self, p: int):
        if p in self:
            self._bits[p >> 3] ^= 1 << (p & 7)
            self._count -= 1

    def __sizeof__(self) -> int:
        return object.__sizeof__(self) + self._bits.__sizeof__()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)})"


@dataclass
class RunReport:
    protocol: str
    n: int
    t: int
    faulty: frozenset[int]
    deliveries: dict[int, int]
    # id -> digest -> the correct processes that delivered it
    delivered_digests: dict[MessageId, dict[bytes, PidSet]]
    conflict_ids: list[MessageId]
    alerts_raised: int
    access_counts: dict[int, dict[str, int]]
    messages_multicast: int
    attacked: int               # Monte Carlo trials: Adversary.trial_ids
    attacked_conflicts: int     # trials that ended in a conflict
    elapsed: int
    quiescent: bool

    @property
    def conflicts(self) -> int:
        return len(self.conflict_ids)

    def total_deliveries(self) -> int:
        return sum(self.deliveries.values())


class SimWorld:
    """One simulated execution. Strictly single threaded."""

    def __init__(self, config: SimConfig):
        config.validate()
        self.config = cfg = config
        self.clock = 0
        self.queue = TickQueue()
        # the single enqueue point: every event goes through world._push
        self._push = self.queue.push
        self.trace: Optional[list[str]] = [] if cfg.record_trace else None
        if cfg.record_trace:
            # (id(acks), id, digest) -> (acks, signers note); see _signers_note
            self._notes: dict[tuple, tuple[tuple, Optional[str]]] = {}

        self.witness_seed = (cfg.witness_seed if cfg.witness_seed is not None
                             else cfg.derived_seed(b"witness"))
        self.adversary_seed = (cfg.adversary_seed if cfg.adversary_seed is not None
                               else cfg.derived_seed(b"adversary"))
        self.world_seed = cfg.derived_seed(b"world")
        secret = sha256(_enc(b"secret", _u64(self.world_seed))).digest()

        # The faulty set is a function of the adversary seed alone: chosen
        # before the witness seed is ever consulted (non-adaptive).
        if cfg.faulty_set is not None:
            self.faulty = frozenset(cfg.faulty_set)
        else:
            nf = cfg.effective_num_faulty()
            rng = random.Random(keyed_seed(self.adversary_seed, b"faultyset"))
            self.faulty = frozenset(rng.sample(range(cfg.n), nf)) if nf else frozenset()

        self.keychain = KeyChain(cfg.n, secret, faulty=self.faulty)
        self.params = QuorumParams(cfg.n, cfg.t)
        self.kind = ProtocolKind(cfg.protocol)
        self.timeouts = Timeouts.for_latency(cfg.latency_hi, cfg.stability)
        self._stability = cfg.stability
        # ticks from a correct delivery to the oracle's report of it
        self.stability_lag = 4 * cfg.latency_hi

        # One setting for every engine and shadow engine; it holds the world's
        # parts, not the world, so a finished world is freed by refcounting.
        self.setting = setting = Setting(
            self.kind, self.params, self.keychain, self.witness_seed,
            self.world_seed, cfg.kappa, cfg.delta, cfg.slack_c,
            self.timeouts)
        self.engines: list[Optional[ProcessEngine]] = [
            None if p in self.faulty else ProcessEngine(p, setting)
            for p in range(cfg.n)
        ]
        self.adversary: Optional[Adversary] = None
        if self.faulty and cfg.adversary != "none":
            self.adversary = Adversary(cfg.adversary, setting, self.faulty,
                                       cfg.crash_after)

        # per source, None until its first send, then one row: draws made
        # on channel (src, dst) at [dst]
        self._chan_rows: list[Optional[array]] = [None] * cfg.n
        # per channel, keyed src * n + dst: its last arrival tick, while it
        # may still clamp a send; pruned at _in_flight_cap entries
        self._in_flight: dict[int, int] = {}
        self._in_flight_cap = _IN_FLIGHT_MIN
        self._chan_prefix = keyed_prefix(self.world_seed, b"chan")
        self._latency_span = cfg.latency_hi - cfg.latency_lo + 1
        self._drop_cut = cfg.p_drop * 2.0 ** 64  # a draw below it is a loss
        # per alert channel, keyed src * n + dst: draws made
        self._alert_draws: dict[int, int] = {}

        # Aggregates, maintained whether or not the trace is kept.
        self.deliveries: dict[int, int] = {}
        self.delivered_digests: dict[MessageId, dict[bytes, PidSet]] = {}
        self.alerts_raised = 0
        self.access_counts: dict[int, dict[str, int]] = {}
        self.messages_multicast = 0
        # delivery tick -> the (deliverer, id) pairs of its correct
        # deliveries: read at their maturity, dropped at their re-forward
        self._delivered: dict[int, list[tuple[int, MessageId]]] = {}
        # id -> correct processes whose delivery has not matured yet;
        # dropped once empty
        self._unstable: dict[MessageId, set[int]] = {}
        self.correct = tuple(p for p in range(cfg.n) if p not in self.faulty)

        self._schedule_workload()
        if self.trace is not None:
            self._log(0, "meta", None, None, PROTO_TAG[self.kind], "meta",
                      None, None, self._meta_note())

    # -- construction -------------------------------------------------------

    def _schedule_workload(self):
        cfg = self.config
        mode = cfg.senders
        if mode == "auto":
            mode = "faulty" if cfg.adversary in ATTACK_STRATEGIES else "uniform"
        rng = random.Random(keyed_seed(self.world_seed, b"workload"))
        correct = self.correct
        flist = sorted(self.faulty)
        for i in range(cfg.messages):
            if mode == "faulty" and flist:
                sender = flist[i % len(flist)]
            else:
                sender = correct[rng.randrange(len(correct))]
            payload = b"m" + str(i).encode()
            self._push(1 + i * cfg.message_spacing, (EV_MCAST, sender, payload))

    def _meta_note(self) -> str:
        cfg = self.config
        faulty = ":".join(str(p) for p in sorted(self.faulty)) or "none"
        return (f"n={cfg.n};t={cfg.t};kappa={cfg.kappa};delta={cfg.delta};"
                f"slack={cfg.slack_c};seed={cfg.seed};"
                f"witness_seed={self.witness_seed};"
                f"adversary_seed={self.adversary_seed};"
                f"pdrop={cfg.p_drop};adversary={cfg.adversary};faulty={faulty}"
                + ("" if cfg.stability else ";stability=off"))

    # -- event machinery -----------------------------------------------------

    def _log(self, tick, kind, src, dst, proto, role, subject, dig, note):
        """Append one trace line; called only when the trace is kept."""
        self.trace.append(" ".join((
            str(tick), kind,
            "-" if src is None else str(src),
            "-" if dst is None else str(dst),
            _fields(proto, role, subject, dig, note))))

    def _chan_draw(self, src: int, dst: int, k: int) -> int:
        """Draw k of channel (src, dst), equal to keyed_seed(world_seed,
        b"chan", src, dst, k) with the (seed, label) bytes encoded once."""
        return digest64(self._chan_prefix
                        + _CHAN_FIELDS.pack(8, src, 8, dst, 8, k))

    def _channel_send(self, src: int, dsts, msg: WireMessage, now: int):
        """Send msg from src to each process in dsts, in order, over the
        lossy FIFO channels, and push one message item per distinct
        arrival tick, naming that tick's destinations in send order.  Each
        draw is _chan_draw's, inlined, with src's fields encoded once."""
        trace = self.trace
        if trace is not None:
            sent = _fields(msg.proto, msg.role, msg.subject, msg.digest, None)
            dropped = _fields(msg.proto, msg.role, msg.subject, msg.digest,
                              "retransmit")
        n = self.config.n
        row = self._chan_rows[src]
        if row is None:
            row = self._chan_rows[src] = array("I", [0]) * n
        in_flight = self._in_flight
        base = src * n
        head = self._chan_prefix + _CHAN_SRC.pack(8, src)
        pack = _CHAN_DST_K.pack
        floor = now + self.config.latency_lo  # the earliest arrival
        span = self._latency_span
        cut = self._drop_cut
        groups: dict[int, list[int]] = {}   # arrival tick -> destinations
        for dst in dsts:
            if trace is not None:
                trace.append(f"{now} send {src} {dst} {sent}")
            k = row[dst]
            arrival = floor + _U64(sha256(head + pack(8, dst, 8, k))
                                   .digest())[0] % span
            if cut:
                k += 1
                while _U64(sha256(head + pack(8, dst, 8, k)).digest())[0] < cut:
                    k += 1
                    if trace is not None:
                        trace.append(f"{arrival} drop {src} {dst} {dropped}")
                    arrival += RETRANSMIT_INTERVAL
            row[dst] = k + 1
            # FIFO per ordered pair: never overtake an earlier message.
            key = base + dst
            last = in_flight.get(key, 0)
            if arrival < last:
                arrival = last
            if arrival > floor:  # else it can clamp no send from now on
                in_flight[key] = arrival
            group = groups.get(arrival)
            if group is None:
                groups[arrival] = [dst]
            else:
                group.append(dst)
        if len(in_flight) >= self._in_flight_cap:
            self._prune_in_flight(floor)
        push = self._push
        for arrival, group in groups.items():
            push(arrival, (EV_MSG, group, src, msg, "net"))

    def _prune_in_flight(self, floor: int):
        """Keep only the channels whose last arrival lies beyond floor, the
        earliest arrival of a send made now.  The clock never goes back,
        so no later send can arrive before a dropped tick, and the clamp
        it would have made is a no-op.  The next prune waits until the
        dict has doubled, so each entry costs O(1) pruning work."""
        kept = {key: last for key, last in self._in_flight.items()
                if last > floor}
        self._in_flight = kept
        self._in_flight_cap = max(_IN_FLIGHT_MIN, 2 * len(kept))

    def _fast_send(self, src: int, dsts, msg: WireMessage, now: int):
        """Send msg from src to each process in dsts, in order, on the
        lossless alert plane: the latency to dst is 1 plus draw k of alert
        channel (src, dst), keyed_seed(world_seed, b"alert", src, dst, k),
        modulo ALERT_LATENCY_BOUND.  Pushed as _channel_send pushes."""
        trace = self.trace
        if trace is not None:
            sent = _fields(msg.proto, msg.role, msg.subject, msg.digest,
                           "fast")
        n = self.config.n
        draws = self._alert_draws
        groups: dict[int, list[int]] = {}
        for dst in dsts:
            if trace is not None:
                trace.append(f"{now} send {src} {dst} {sent}")
            key = src * n + dst
            k = draws.get(key, 0)
            draws[key] = k + 1
            arrival = now + 1 + keyed_seed(
                self.world_seed, b"alert", src, dst, k) % ALERT_LATENCY_BOUND
            group = groups.get(arrival)
            if group is None:
                groups[arrival] = [dst]
            else:
                group.append(dst)
        push = self._push
        for arrival, group in groups.items():
            push(arrival, (EV_MSG, group, src, msg, "fast"))

    def _apply(self, pid: int, actions: list, now: int):
        for act in actions:
            kind = type(act)
            if kind is Deliver:
                self._record_delivery(pid, act, now)
            elif kind is Send:
                self._channel_send(pid, act.to, act.msg, now)
            elif kind is SetTimer:
                self._set_timer(pid, act.timer_id, act.delay, now)
            elif kind is Multicast:
                if self.trace is not None:
                    self._log(now, "mcast", pid, None, PROTO_TAG[self.kind],
                              "mcast", act.id, act.digest,
                              "adv" if pid in self.faulty else None)
            elif kind is RaiseAlert:
                ev = act.evidence
                self.alerts_raised += 1
                if self.trace is not None:
                    self._log(now, "alert", pid, None, None, ALERT, ev.subject,
                              ev.digest_a, f"accused={ev.subject.sender}")
                alert = WireMessage(PROTO_TAG[self.kind], ALERT, ev.subject,
                                    evidence=ev)
                others = [*range(pid), *range(pid + 1, self.config.n)]
                self._fast_send(pid, others, alert, now)

    def _set_timer(self, pid: int, tid: tuple, delay: int, now: int):
        if self.trace is not None:
            self._log(now, "timer_set", pid, None, None, tid[0],
                      tid[1] if len(tid) > 1 else None, None, f"delay={delay}")
        self._push(now + delay, (EV_TIMER, pid, tid))

    def _record_delivery(self, pid: int, dlv: Deliver, now: int):
        deliveries = self.deliveries
        deliveries[pid] = deliveries.get(pid, 0) + 1
        mid = dlv.message.id
        if pid in self.faulty:
            if self.trace is not None:
                self._log(now, "appdlv", pid, None, None, "deliver", mid,
                          dlv.digest, None)
            return
        pids, batch = self._delivery_sinks(dlv, now)
        pids.add(pid)
        if self.trace is not None:
            self.trace.append(f"{now} appdlv {pid} - "
                              + self._delivered_fields(dlv))
        if batch is not None:
            batch.append((pid, mid))

    def _delivery_sinks(self, dlv: Deliver, now: int
                        ) -> tuple[PidSet, Optional[list]]:
        """Where the correct deliveries of dlv at tick now are recorded:
        the PidSet of dlv's (id, digest) in delivered_digests, and the
        tick's stability batch, None with stability off.  Both are made on
        first use, and a new batch pushes the tick's two wake-ups."""
        message, _, dig = dlv
        mid = message.id
        slot = self.delivered_digests.get(mid)
        if slot is None:
            slot = self.delivered_digests[mid] = {}
        pids = slot.get(dig)
        if pids is None:
            pids = slot[dig] = PidSet(self.config.n)
        if not self._stability:
            return pids, None
        batch = self._delivered.get(now)
        if batch is None:
            # the tick's first delivery: its maturity, then its re-forward
            batch = self._delivered[now] = []
            tick = now + self.stability_lag
            self._push(tick, (EV_ORACLE, None, tick))
            tick = now + self.timeouts.reforward
            self._push(tick, (EV_REFORWARD, None, tick))
        return pids, batch

    def _delivered_fields(self, dlv: Deliver) -> str:
        """The last five fields of a correct process's appdlv line."""
        message, acks, dig = dlv
        mid = message.id
        return _fields(None, "deliver", mid, dig,
                       self._signers_note(acks, mid, dig) if acks else None)

    def _signers_note(self, acks: tuple, mid: MessageId, dig: bytes
                      ) -> Optional[str]:
        """The valid signers of a delivered ack set, one field per wire tag
        (signers.AV=...;signers.3T=...).  Every delivery of one deliver
        message, re-forwards included, carries the same ack tuple, so the
        note is built once per tuple.  The memo is keyed by the tuple's
        identity, since hashing a few hundred acks costs more than the
        note; each entry keeps its tuple alive, so an identity is never
        reused while its entry exists."""
        key = (id(acks), mid, dig)
        hit = self._notes.get(key)
        if hit is not None:
            return hit[1]
        fields = []
        for tag in sorted({a.proto for a in acks}):
            signers = valid_signers(acks, tag, mid, dig, self.keychain)
            if signers:
                fields.append(f"signers.{tag}=" + ":".join(
                    str(s) for s in sorted(signers)))
        note = ";".join(fields) or None
        self._notes[key] = (acks, note)
        return note

    # -- dispatch -------------------------------------------------------------

    def step(self):
        """Pop one queue item and dispatch it: a message item to each of
        its recipients in order, with one recv line, access count and
        ProcessEngine.handle (or adversary) call each.  What every
        recipient shares is resolved once per item: the recv line's
        fields, and for a deliver the Deliver that each correct recipient
        delivering on it returns alone, with the places that record it."""
        time, item = self.queue.pop()
        self.clock = time
        kind = item[0]

        if kind == EV_MSG:
            _, dsts, src, msg, plane = item
            role = msg.role
            trace = self.trace
            if trace is not None:
                recv = _fields(msg.proto, role, msg.subject, msg.digest,
                               plane if plane != "net" else None)
            counted = role == REGULAR or role == INFORM
            engines = self.engines
            deliveries = self.deliveries
            dlv = None
            for dst in dsts:
                if trace is not None:
                    trace.append(f"{time} recv {src} {dst} {recv}")
                if counted:
                    counts = self.access_counts.get(dst)
                    if counts is None:
                        counts = self.access_counts[dst] = {}
                    counts[role] = counts.get(role, 0) + 1
                eng = engines[dst]
                if eng is None:
                    if self.adversary is not None:
                        self._apply(dst, self.adversary.act(
                            dst, ("message", src, msg), time), time)
                    continue
                out = eng.handle(src, msg, time)
                if not out:
                    continue
                act = out[0]
                if act is not dlv or len(out) > 1:
                    if len(out) > 1 or type(act) is not Deliver:
                        self._apply(dst, out, time)
                        continue
                    dlv = act
                    mid = dlv.message.id
                    pids, batch = self._delivery_sinks(dlv, time)
                    bits = pids._bits
                    if trace is not None:
                        delivered = self._delivered_fields(dlv)
                # _record_delivery of a correct process, inlined
                deliveries[dst] = deliveries.get(dst, 0) + 1
                i, mask = dst >> 3, 1 << (dst & 7)    # PidSet.add
                if not bits[i] & mask:
                    bits[i] |= mask
                    pids._count += 1
                if trace is not None:
                    trace.append(f"{time} appdlv {dst} - {delivered}")
                if batch is not None:
                    batch.append((dst, mid))

        elif kind == EV_TIMER:
            _, pid, tid = item
            if self.trace is not None:
                self._log(time, "timer_fire", pid, None, None, tid[0],
                          tid[1] if len(tid) > 1 else None, None, None)
            eng = self.engines[pid]
            if eng is not None:
                self._apply(pid, eng.on_timer(tid, time), time)
            elif self.adversary is not None:
                actions = self.adversary.act(pid, ("timer", tid), time)
                self._apply(pid, actions, time)

        elif kind == EV_MCAST:
            _, sender, payload = item
            self.messages_multicast += 1
            eng = self.engines[sender]
            if eng is not None:
                self._apply(sender, eng.wan_multicast(payload), time)
            elif self.adversary is not None:
                self._apply(sender, self.adversary.act(
                    sender, ("multicast", payload), time), time)

        elif kind == EV_ORACLE:
            self.stability_oracle_tick(item)

        elif kind == EV_REFORWARD:
            self._reforward_tick(item)

    def stability_oracle_tick(self, item: tuple):
        """Report the deliveries that mature now: one stable record each,
        and each deliverer taken off its id's missing set.  Driven by
        delivery wake-ups, so a quiesced world schedules nothing new."""
        _, _, tick = item
        unstable = self._unstable
        trace = self.trace
        for deliverer, mid in self._delivered[tick - self.stability_lag]:
            if trace is not None:
                self._log(tick, "stable", deliverer, None,
                          PROTO_TAG[self.kind], SM_NOTIFY, mid, None, None)
            missing = unstable.get(mid)
            if missing is None:
                missing = unstable[mid] = set(self.correct)
            missing.discard(deliverer)
            if not missing:
                del unstable[mid]

    def _reforward_tick(self, item: tuple):
        """Run the re-forwards of the correct deliveries made
        Timeouts.reforward ticks ago: each deliverer gets the set of correct
        processes the oracle still has missing its id, or an empty one if
        the id is stable everywhere, which only releases it.  The engines
        read the live set before any delivery can change it, so it is not
        copied.  A released id costs no event, no send and no trace line."""
        _, _, tick = item
        unstable = self._unstable
        engines = self.engines
        for pid, mid in self._delivered.pop(tick - self.timeouts.reforward):
            missing = unstable.get(mid, ())
            if missing and self.trace is not None:
                self._log(tick, "timer_fire", pid, None, None, "reforward",
                          mid, None, None)
            self._apply(pid, engines[pid].reforward(mid, missing), tick)

    # -- top level -------------------------------------------------------------

    def run_to_quiescence(self, max_ticks: int = 1_000_000) -> RunReport:
        """Step until no event is left at or before max_ticks."""
        next_time = self.queue.next_time
        step = self.step
        while (time := next_time()) is not None and time <= max_ticks:
            step()
        quiescent = not self.queue
        report = self._report(quiescent)
        if self.trace is not None:
            self._log(self.clock, "end", None, None, None, "end", None, None,
                      f"quiescent={str(quiescent).lower()};"
                      f"conflicts={report.conflicts};"
                      f"deliveries={report.total_deliveries()}")
        return report

    def _report(self, quiescent: bool) -> RunReport:
        conflict_ids = sorted(
            mid for mid, slots in self.delivered_digests.items()
            if len(slots) >= 2)
        trials = self.adversary.trial_ids if self.adversary is not None else []
        attacked = len(trials)
        attacked_conflicts = len(set(conflict_ids).intersection(trials))
        return RunReport(
            protocol=self.config.protocol, n=self.config.n, t=self.config.t,
            faulty=self.faulty, deliveries=dict(self.deliveries),
            delivered_digests=self.delivered_digests,
            conflict_ids=conflict_ids, alerts_raised=self.alerts_raised,
            access_counts=self.access_counts,
            messages_multicast=self.messages_multicast,
            attacked=attacked, attacked_conflicts=attacked_conflicts,
            elapsed=self.clock, quiescent=quiescent)

    def _kept_trace(self) -> list[str]:
        if self.trace is None:
            raise ConfigError("record_trace", "trace recording is disabled")
        return self.trace

    def trace_text(self) -> str:
        return "\n".join(self._kept_trace()) + "\n"

    def write_trace(self, path: str):
        """Write trace_text() to path a chunk of lines at a time, never
        joining the whole text; the trace always holds its meta line."""
        trace = self._kept_trace()
        with open(path, "w") as fh:
            for start in range(0, len(trace), _WRITE_CHUNK):
                fh.write("\n".join(trace[start:start + _WRITE_CHUNK]) + "\n")


def build_world(config: SimConfig) -> SimWorld:
    """Validate the configuration and construct a ready-to-run world."""
    return SimWorld(config)


def run_world(config: SimConfig) -> RunReport:
    return build_world(config).run_to_quiescence()


def _run_one_trial(args: tuple) -> tuple[int, int]:
    config, trial = args
    cfg = replace(config, seed=config.seed + trial)
    report = run_world(cfg)
    return report.attacked, report.attacked_conflicts


def run_trial_batch(config: SimConfig, trials: int, parallel: int = 1
                    ) -> tuple[int, int]:
    """Aggregate (attacked, conflicting) counts over independent worlds.

    Counts are order-independent, so parallel execution cannot change the
    result for a given base seed.
    """
    jobs = [(config, i) for i in range(trials)]
    attacked = conflicts = 0
    if parallel > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            for a, c in pool.map(_run_one_trial, jobs,
                                 chunksize=max(1, trials // (parallel * 8))):
                attacked += a
                conflicts += c
    else:
        for job in jobs:
            a, c = _run_one_trial(job)
            attacked += a
            conflicts += c
    return attacked, conflicts
