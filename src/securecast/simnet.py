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
transmission attempt, each a loss while u / 2**64 < p_drop.  The channels
of one source are one row of 2n unsigned 32-bit ints, built on its first
send: the draw count per destination, then the last arrival tick per
destination, which keeps each channel FIFO.  Channel state is thus at
most 8n^2 bytes (8 MB at n=1000), however long a world runs.  The alert
plane is counter based the same way, under the label b"alert": an alert
from src to dst takes one draw u of that pair and arrives 1 + u %
ALERT_LATENCY_BOUND ticks later, so a world that raises no alert draws
nothing for it.  Processes use Mersenne Twister streams seeded the same
keyed way, each built only when the process first samples.  The oracle
draws nothing.

Events run in (time, insertion) order from a TickQueue: one FIFO bucket
per tick plus a heap of the distinct ticks, so an event costs a list append
and a list pop, and the heap sees each tick once.  SimWorld.step dispatches
exactly one event.  With the trace off no trace line is formatted and
_log is never entered.

A lost transmission is retried RETRANSMIT_INTERVAL ticks later.  Alerts
travel on a separate out-of-band plane with no loss and a hard latency
bound, ALERT_LATENCY_BOUND.  Every protocol timer is derived from
latency_hi (Timeouts.for_latency), the recovery ack delay among them, so it
always exceeds that bound: the race the ACT protocol relies on.

The stability mechanism is a trusted oracle that knows the correct set.
A correct process's delivery matures 4 * latency_hi ticks after it
happens; deliveries maturing at the same tick are batched, and only the
first of a batch schedules a wake-up.  Per message id the oracle keeps the
correct processes whose delivery has not yet matured, and forgets the id
once that set is empty.  At a wake-up it writes one "stable" trace record
per matured delivery and hands nothing to the engines.

The oracle is consulted where it is needed: at the re-forward tick,
Timeouts.reforward (8 * latency_hi) after each correct delivery.  Those
checks are batched per tick the same way, one wake-up per distinct tick.
At a wake-up the world calls ProcessEngine.reforward(id, missing) of each
due deliverer, missing being the correct processes the oracle still has
missing the id (empty: stable everywhere, which only releases the id).
The due wake-up of a tick is pushed 4 * latency_hi ticks before that
tick's maturity wake-up, so it runs first: the set an engine sees is the
newest the oracle had reported.  A re-forward with a non-empty set writes
one timer_fire line; an id stable everywhere costs no event, no send and
no trace line.  A faulty process's delivery is not reported; its
re-forward stays a timer that the adversary handles.  Only real
deliveries are ever reported.
"""

from __future__ import annotations

import hashlib
import random
from array import array
from dataclasses import dataclass, replace
from functools import partial
from heapq import heappop, heappush
from typing import Iterator, Optional

from .adversary import (ATTACK_STRATEGIES, STRATEGIES, Adversary,
                        AdversaryContext)
from .core import (PROTO_TAG, KeyChain, MessageId, ProtocolKind, _enc, _u64,
                   digest64, keyed_prefix, keyed_seed, u64_fields,
                   valid_signers)
# Unused here since Deliver carries its digest; bound anyway because the
# benchmark tracer (bench/tracer.py) patches message_digest in this module.
from .core import message_digest  # noqa: F401
from .protocols import (ALERT, ALERT_LATENCY_BOUND, INFORM, REGULAR,
                        SM_NOTIFY, Broadcast, Deliver, ProcessEngine,
                        RaiseAlert, Send, SetTimer, Timeouts, WireMessage)
from .quorum import InvalidParamsError, QuorumParams, check_act_params

EV_MSG = 0
EV_TIMER = 1
EV_MCAST = 2
EV_ORACLE = 3
EV_REFORWARD = 4

# Ticks between a lost transmission and its retry.
RETRANSMIT_INTERVAL = 8

# The largest latency_hi a world accepts.  Channel rows keep arrival ticks
# as unsigned 32-bit ints, and under this bound they stay far below 2**32.
MAX_LATENCY = 1 << 24

# Who multicasts: "faulty" senders only, "uniform" draws among the correct
# processes, "auto" picks faulty under an attack strategy, else uniform.
SENDER_MODES = ("auto", "uniform", "faulty")

# Trace lines write_trace joins into one write.
_WRITE_CHUNK = 4096

# (src, dst, draw index) in keyed_seed's encoding, after the channel prefix
_CHAN_FIELDS = u64_fields(3)


class TickQueue:
    """Pending events in (time, insertion) order: one FIFO bucket per tick
    and a heap of the distinct ticks.

    The bucket of the tick being dispatched is taken out of the dict and
    reversed, so a pop is a list pop.  An event pushed at that same tick
    opens a fresh bucket, which is drained after the current one, as
    insertion order requires.  A push never goes before the tick of the
    last pop: a simulation does not schedule into the past.  len() is the
    number of pending events.
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

    def effective_num_faulty(self) -> int:
        if self.faulty_set is not None:
            return len(set(self.faulty_set))
        if self.num_faulty is not None:
            return self.num_faulty
        return self.t if self.adversary != "none" else 0

    def derived_seed(self, label: bytes) -> int:
        return keyed_seed(self.seed, label)


@dataclass
class RunReport:
    protocol: str
    n: int
    t: int
    faulty: frozenset[int]
    deliveries: dict[int, int]
    delivered_digests: dict[MessageId, dict[bytes, set[int]]]
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
        # the world's process ids: every pid it records a delivery under is
        # one of these n objects, whichever fan-out produced the delivery
        self._pids = tuple(range(cfg.n))
        secret = hashlib.sha256(_enc(b"secret", _u64(self.world_seed))).digest()

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
        # ticks from a correct delivery to the oracle's report of it
        self.stability_lag = 4 * cfg.latency_hi

        # Engines and the adversary's shadow engines share one delivery
        # verdict memo.  The factory holds the world's parts, not the
        # world, so a finished world is freed by reference counting.
        make_engine = partial(
            ProcessEngine, kind=self.kind, params=self.params,
            keychain=self.keychain, witness_seed=self.witness_seed,
            stream_seed=self.world_seed, kappa=cfg.kappa, delta=cfg.delta,
            slack_c=cfg.slack_c, timeouts=self.timeouts, verdicts={})
        self.engines: list[Optional[ProcessEngine]] = [
            None if p in self.faulty else make_engine(p)
            for p in range(cfg.n)
        ]
        self.adversary: Optional[Adversary] = None
        if self.faulty and cfg.adversary != "none":
            self.adversary = Adversary(cfg.adversary, AdversaryContext(
                kind=self.kind, params=self.params, kappa=cfg.kappa,
                delta=cfg.delta, slack_c=cfg.slack_c, keychain=self.keychain,
                faulty=self.faulty, witness_seed=self.witness_seed,
                make_engine=make_engine), crash_after=cfg.crash_after)

        # per source, None until its first send, then one row: draws made
        # on channel (src, dst) at [dst], its last arrival tick at [n + dst]
        self._chan_rows: list[Optional[array]] = [None] * cfg.n
        self._chan_prefix = keyed_prefix(self.world_seed, b"chan")
        self._latency_span = cfg.latency_hi - cfg.latency_lo + 1
        self._drop_cut = cfg.p_drop * 2.0 ** 64  # a draw below it is a loss
        # per alert channel, keyed src * n + dst: draws made
        self._alert_draws: dict[int, int] = {}

        # Aggregates, maintained whether or not the trace is kept.
        self.deliveries: dict[int, int] = {}
        self.delivered_digests: dict[MessageId, dict[bytes, set[int]]] = {}
        self.alerts_raised = 0
        self.access_counts: dict[int, dict[str, int]] = {}
        self.messages_multicast = 0
        # maturity tick -> the (deliverer, id) pairs the oracle reports then
        self._maturing: dict[int, list[tuple[int, MessageId]]] = {}
        # id -> correct processes whose delivery has not matured yet;
        # dropped once empty
        self._unstable: dict[MessageId, set[int]] = {}
        # re-forward tick -> the (deliverer, id) pairs checked then
        self._due: dict[int, list[tuple[int, MessageId]]] = {}
        self.correct = tuple(p for p in self._pids if p not in self.faulty)

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
                f"pdrop={cfg.p_drop};adversary={cfg.adversary};faulty={faulty}")

    # -- event machinery -----------------------------------------------------

    def _log(self, tick, kind, src, dst, proto, role, subject, dig, note):
        """Append one trace line; called only when the trace is kept."""
        self.trace.append(" ".join((
            str(tick), kind,
            "-" if src is None else str(src),
            "-" if dst is None else str(dst),
            proto or "-", role or "-",
            "-" if subject is None else str(subject),
            dig[:4].hex() if dig else "-",
            note or "-")))

    def _chan_draw(self, src: int, dst: int, k: int) -> int:
        """Draw k of channel (src, dst), equal to keyed_seed(world_seed,
        b"chan", src, dst, k) with the (seed, label) bytes encoded once."""
        return digest64(self._chan_prefix
                        + _CHAN_FIELDS.pack(8, src, 8, dst, 8, k))

    def _channel_send(self, src: int, dsts, msg: WireMessage, now: int):
        """Send msg from src to each process in dsts, in order, over the
        lossy FIFO channels.  Each draw is _chan_draw's, inlined."""
        trace = self.trace
        n = self.config.n
        row = self._chan_rows[src]
        if row is None:
            row = self._chan_rows[src] = array("I", [0]) * (2 * n)
        prefix = self._chan_prefix
        pack = _CHAN_FIELDS.pack
        lo = self.config.latency_lo
        span = self._latency_span
        cut = self._drop_cut
        push = self._push
        for dst in dsts:
            if trace is not None:
                self._log(now, "send", src, dst, msg.proto, msg.role,
                          msg.subject, msg.digest, None)
            k = row[dst]
            arrival = now + lo + digest64(
                prefix + pack(8, src, 8, dst, 8, k)) % span
            k += 1
            if cut:
                while digest64(prefix + pack(8, src, 8, dst, 8, k)) < cut:
                    k += 1
                    if trace is not None:
                        self._log(arrival, "drop", src, dst, msg.proto,
                                  msg.role, msg.subject, msg.digest,
                                  "retransmit")
                    arrival += RETRANSMIT_INTERVAL
                k += 1
            row[dst] = k
            # FIFO per ordered pair: never overtake an earlier message.
            last = row[n + dst]
            if arrival < last:
                arrival = last
            row[n + dst] = arrival
            push(arrival, (EV_MSG, dst, src, msg, "net"))

    def _fast_send(self, src: int, dst: int, msg: WireMessage, now: int):
        """Send msg on the lossless alert plane: its latency is 1 plus draw
        k of alert channel (src, dst), keyed_seed(world_seed, b"alert", src,
        dst, k), modulo ALERT_LATENCY_BOUND."""
        if self.trace is not None:
            self._log(now, "send", src, dst, msg.proto, msg.role, msg.subject,
                      msg.digest, "fast")
        key = src * self.config.n + dst
        k = self._alert_draws.get(key, 0)
        self._alert_draws[key] = k + 1
        arrival = now + 1 + keyed_seed(self.world_seed, b"alert", src, dst,
                                       k) % ALERT_LATENCY_BOUND
        self._push(arrival, (EV_MSG, dst, src, msg, "fast"))

    def _apply(self, pid: int, actions: list, now: int):
        for act in actions:
            kind = type(act)
            if kind is Deliver:
                self._record_delivery(pid, act, now)
            elif kind is Send:
                self._channel_send(pid, (act.to,), act.msg, now)
            elif kind is Broadcast:
                self._channel_send(pid, range(self.config.n), act.msg, now)
            elif kind is SetTimer:
                self._set_timer(pid, act.timer_id, act.delay, now)
            elif kind is RaiseAlert:
                ev = act.evidence
                self.alerts_raised += 1
                if self.trace is not None:
                    self._log(now, "alert", pid, None, None, ALERT, ev.subject,
                              ev.digest_a, f"accused={ev.subject.sender}")
                alert = WireMessage(PROTO_TAG[self.kind], ALERT, ev.subject,
                                    evidence=ev)
                for dst in range(self.config.n):
                    if dst != pid:
                        self._fast_send(pid, dst, alert, now)

    def _set_timer(self, pid: int, tid: tuple, delay: int, now: int):
        if self.trace is not None:
            self._log(now, "timer_set", pid, None, None, tid[0],
                      tid[1] if len(tid) > 1 else None, None, f"delay={delay}")
        self._push(now + delay, (EV_TIMER, pid, tid))

    def _record_delivery(self, pid: int, dlv: Deliver, now: int):
        message, acks, dig = dlv
        mid = message.id
        pid = self._pids[pid]   # the world's own int, whoever sent the deliver
        deliveries = self.deliveries
        deliveries[pid] = deliveries.get(pid, 0) + 1
        correct = pid not in self.faulty
        if correct:
            slot = self.delivered_digests.get(mid)
            if slot is None:
                self.delivered_digests[mid] = {dig: {pid}}
            elif dig in slot:
                slot[dig].add(pid)
            else:
                slot[dig] = {pid}
        if self.trace is not None:
            note = None
            if correct and acks:
                note = self._signers_note(acks, mid, dig)
            self._log(now, "appdlv", pid, None, None, "deliver", mid, dig, note)
        if self.config.stability:
            if not correct:
                # a shadow engine's re-forward stays a timer for the adversary
                self._set_timer(pid, ("reforward", mid),
                                self.timeouts.reforward, now)
                return
            # one wake-up per distinct tick; the tick is the key of its batch
            tick = now + self.stability_lag
            batch = self._maturing.get(tick)
            if batch is None:
                batch = self._maturing[tick] = []
                self._push(tick, (EV_ORACLE, None, tick))
            batch.append((pid, mid))
            tick = now + self.timeouts.reforward
            batch = self._due.get(tick)
            if batch is None:
                batch = self._due[tick] = []
                self._push(tick, (EV_REFORWARD, None, tick))
            batch.append((pid, mid))

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
        """Pop and dispatch exactly one event."""
        time, item = self.queue.pop()
        self.clock = time
        kind = item[0]

        if kind == EV_MSG:
            _, dst, src, msg, plane = item
            role = msg.role
            if self.trace is not None:
                self._log(time, "recv", src, dst, msg.proto, role,
                          msg.subject, msg.digest,
                          plane if plane != "net" else None)
            if role == REGULAR or role == INFORM:
                counts = self.access_counts.get(dst)
                if counts is None:
                    counts = self.access_counts[dst] = {}
                counts[role] = counts.get(role, 0) + 1
            eng = self.engines[dst]
            if eng is not None:
                self._apply(dst, eng.handle(src, msg, time), time)
            elif self.adversary is not None:
                actions = self.adversary.act(dst, ("message", src, msg), time)
                self._drain_adv_log(time)
                self._apply(dst, actions, time)

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
                actions = eng.wan_multicast(payload)
                if self.trace is not None:
                    mid = MessageId(sender, eng.own_seq)
                    self._log(time, "mcast", sender, None,
                              PROTO_TAG[self.kind], "mcast", mid,
                              eng.pending[mid].digest, None)
                self._apply(sender, actions, time)
            elif self.adversary is not None:
                actions = self.adversary.act(
                    sender, ("multicast", payload), time)
                self._drain_adv_log(time)
                self._apply(sender, actions, time)

        elif kind == EV_ORACLE:
            self.stability_oracle_tick(item)

        elif kind == EV_REFORWARD:
            self._reforward_tick(item)

    def _drain_adv_log(self, time: int):
        log = self.adversary.mcast_log
        if not log:
            return
        if self.trace is not None:
            for mid, dig in log:
                self._log(time, "mcast", mid.sender, None,
                          PROTO_TAG[self.kind], "mcast", mid, dig, "adv")
        log.clear()

    def stability_oracle_tick(self, item: tuple):
        """Report the deliveries that mature now: one stable record each,
        and each deliverer taken off its id's missing set.  Driven by
        delivery wake-ups, so a quiesced world schedules nothing new."""
        _, _, tick = item
        unstable = self._unstable
        trace = self.trace
        for deliverer, mid in self._maturing.pop(tick):
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
        for pid, mid in self._due.pop(tick):
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
