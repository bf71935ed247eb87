"""Replay a trace file and check the run-level protocol properties.

A trace is line-delimited, one event per line, nine space-separated fields:

    tick kind src dst proto role subject digest note

with "-" for absent fields.  Subjects are "sender:seq", digests are the
first four bytes in hex.  The first line is a meta record carrying the run
parameters (including kappa, the slack and the witness seed, so the checker
can recompute the witness sets independently); the last line marks the end
of the run and whether it quiesced.

Checks performed:

* Integrity: a correct process delivers at most once per message id, and
  anything it delivers for a correct sender was actually multicast.
* Agreement (E and 3T runs): all correct deliveries of one id carry the
  same digest.  ACT runs only count conflicts; they are reported, not
  failed.
* Witness rule: every delivery's signers meet the protocol's delivery rule
  for its id (quorum.ack_rules): q signers for E; 2t+1 inside the 3t+1
  witness range for 3T; for ACT max(|W_active| - C, 1) inside the active
  witness set, else the 3T rule.  A delivery record lists the valid
  signers of each wire tag separately (signers.AV=...;signers.3T=...), and
  each alternative counts only the signers of its own tag.  A signer id
  outside [0, n) fails the rule; a non-integer one is a parse error.
* No conflicting acks: no correct process signs acks for two different
  digests of one id.
* No ack against a delivery: once a correct process has delivered an id,
  it sends no ack for any other digest of it.
* SM integrity: every "stable" record, the stability oracle's report that
  a delivery has matured, matches an earlier delivery by the process it
  names.
* Self-delivery and Reliability: only asserted for quiescent runs.  A run
  without the stability oracle (meta stability=off) re-forwards nothing,
  so a faulty sender's partial deliver stays partial; there Reliability is
  asserted only for ids whose sender is correct.

The check is one streaming pass: every line goes through the one line
scanner (_scan), which validates its fields, and the checks keep state per
message id only, never per line.  check_trace takes the text or any
iterable of its lines, and check_trace_file feeds it the file a piece of
whole lines at a time, so the memory a check needs grows with the messages
a trace carries, not with its length.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Optional, Union

from .core import PROTO_TAG, MessageId
from .quorum import AckRule, QuorumParams, accepts, ack_rules
# Bound here only so the benchmark tracer (bench/tracer.py) can patch it.
from .quorum import w3t  # noqa: F401


class TraceParseError(Exception):
    pass


class TraceRecord(NamedTuple):
    lineno: int
    tick: int
    kind: str
    src: Optional[int]
    dst: Optional[int]
    proto: str
    role: str
    subject: Optional[MessageId]
    digest: str
    note: str


@dataclass
class Violation:
    prop: str
    lineno: int
    detail: str

    def __str__(self):
        return f"{self.prop} violated at line {self.lineno}: {self.detail}"


@dataclass
class CheckResult:
    violations: list[Violation] = field(default_factory=list)
    conflicts: list[MessageId] = field(default_factory=list)
    quiescent: bool = False

    @property
    def ok(self) -> bool:
        return not self.violations


_UNSEEN = object()
_READ_SIZE = 1 << 16  # characters check_trace_file reads at a time


def _scan(lines: Iterable[str]) -> Iterator[tuple]:
    """Yield (lineno, tick, kind, src, dst, proto, role, subject, digest,
    note) for each non-blank line; the one place a trace line is parsed.

    ``lines`` is an iterable of pieces that each hold whole lines, with or
    without their line breaks: a file's lines, a list of bare lines, or a
    one-item tuple holding the whole text.  Each piece is split as
    str.splitlines() splits, an empty piece being one blank line, so all of
    these give the records and line numbers of the text itself; line
    numbers count blank lines.  The MessageId of a subject string is built
    once.
    """
    subjects: dict[str, Optional[MessageId]] = {"-": None}
    lineno = 0
    for item in lines:
        for line in item.splitlines() or ("",):
            lineno += 1
            if not line.strip():
                continue
            parts = line.split(" ", 8)
            if len(parts) != 9:
                raise TraceParseError(
                    f"line {lineno}: expected 9 fields, got {len(parts)}")
            tick, kind, src, dst, proto, role, subj, dig, note = parts
            try:
                tick = int(tick)
                src = None if src == "-" else int(src)
                dst = None if dst == "-" else int(dst)
                subject = subjects.get(subj, _UNSEEN)
                if subject is _UNSEEN:
                    sender, seq = subj.split(":")
                    subject = subjects[subj] = MessageId(int(sender), int(seq))
            except ValueError as exc:
                raise TraceParseError(f"line {lineno}: {exc}") from exc
            yield lineno, tick, kind, src, dst, proto, role, subject, dig, note


def parse_trace(text: str) -> list[TraceRecord]:
    records = [TraceRecord._make(r) for r in _scan((text,))]
    if not records or records[0].kind != "meta":
        raise TraceParseError("trace must start with a meta record")
    return records


def _parse_note(note: str) -> dict[str, str]:
    out = {}
    for part in note.split(";"):
        if "=" in part:
            k, v = part.split("=", 1)
            out[k] = v
    return out


def _witness_fault(note: str, rules: Iterable[AckRule], subject: MessageId,
                   proto: str, n: int, lineno: int) -> Optional[str]:
    """Why the signers a delivery note lists meet none of the rules, or
    None when they meet one; a signer outside [0, n) meets none."""
    try:
        signers = {tag[len("signers."):]: {int(s) for s in v.split(":")}
                   for tag, v in _parse_note(note).items()
                   if tag.startswith("signers.") and v}
    except ValueError as exc:
        raise TraceParseError(f"line {lineno}: bad signer id: {exc}") from exc
    unknown = sorted({s for v in signers.values() for s in v if not 0 <= s < n})
    if unknown:
        return (f"delivery of {subject} backed by signers "
                f"{':'.join(map(str, unknown))}, which are no process of n={n}")
    if accepts(rules, lambda tag: signers.get(tag, ())):
        return None
    counts = ", ".join(f"{len(v)} {tag}" for tag, v in sorted(signers.items()))
    return (f"delivery of {subject} backed by {counts or 'no'} signers, "
            f"which meet no {proto} ack rule")


def check_trace(trace: Union[str, Iterable[str]]) -> CheckResult:
    """Check a trace given as its text or as any iterable of its lines (an
    open text file, or pieces of whole lines; see _scan), in one pass."""
    records = _scan((trace,) if isinstance(trace, str) else trace)
    first = next(records, None)
    if first is None or first[2] != "meta":
        raise TraceParseError("trace must start with a meta record")
    lineno, proto, meta = first[0], first[5], _parse_note(first[9])
    kinds = {tag: k for k, tag in PROTO_TAG.items()}
    try:
        pkind = kinds[proto]  # E / 3T / AV
        n = int(meta["n"])
        t = int(meta["t"])
        kappa = int(meta["kappa"])
        slack = int(meta["slack"])
        witness_seed = int(meta["witness_seed"])
        faulty = (set() if meta.get("faulty", "none") == "none"
                  else {int(x) for x in meta["faulty"].split(":")})
        stability = meta.get("stability") != "off"
        params = QuorumParams(n, t)
    except (KeyError, ValueError) as exc:
        for _ in records:  # a malformed later line is still reported first
            pass
        raise TraceParseError(f"line 1: bad meta record: {exc!r}") from exc
    correct = set(range(n)) - faulty

    result = CheckResult()
    bad = result.violations.append

    # State is kept per id, never per line, and what is known per process
    # sits in one array per id rather than one dict entry per delivery.
    multicast: dict[MessageId, set[str]] = {}
    # id -> line of each correct process's first delivery, 0 for none
    first_line: dict[MessageId, array] = {}
    # id -> digests delivered by correct processes, the first one first
    digests_of: dict[MessageId, list[str]] = {}
    # id -> correct process -> the digest it delivered, kept only where
    # that is not the id's first
    other_digest: dict[MessageId, dict[int, str]] = {}
    # id -> correct signer -> digests it signed acks for
    acks_signed: dict[MessageId, dict[int, tuple[str, ...]]] = {}
    # (id, signers note) -> WitnessRule detail, None when the rule is met;
    # every delivery of one ack set carries the same note
    witness_faults: dict[tuple[MessageId, str], Optional[str]] = {}

    def delivered(p: Optional[int], mid: MessageId) -> bool:
        firsts = first_line.get(mid)
        return firsts is not None and p in correct and firsts[p] > 0

    for lineno, _, kind, src, _, _, role, subject, digest, note in records:
        if kind == "send":
            if role == "ack" and src in correct and subject is not None:
                signed = acks_signed.setdefault(subject, {})
                seen = signed.get(src, ())
                if digest not in seen:
                    if seen:
                        bad(Violation(
                            "NoConflictingAcks", lineno,
                            f"process {src} signed acks for two digests of "
                            f"{subject}"))
                    signed[src] = seen + (digest,)
                if delivered(src, subject) and digest != other_digest.get(
                        subject, {}).get(src, digests_of[subject][0]):
                    bad(Violation(
                        "NoAckAgainstDelivery", lineno,
                        f"process {src} acked digest {digest} of {subject} "
                        f"after delivering another"))

        elif kind == "appdlv":
            if subject is None or src not in correct:
                continue
            firsts = first_line.get(subject)
            if firsts is None:
                firsts = first_line[subject] = array("q", [0]) * n
            if firsts[src]:
                bad(Violation(
                    "Integrity", lineno,
                    f"process {src} delivered {subject} twice "
                    f"(first at line {firsts[src]})"))
            else:
                firsts[src] = lineno
                digs = digests_of.get(subject)
                if digs is None:
                    digests_of[subject] = [digest]
                elif digest != digs[0]:
                    if digest not in digs:
                        digs.append(digest)
                    other_digest.setdefault(subject, {})[src] = digest
            if subject.sender in correct:
                if digest not in multicast.get(subject, ()):
                    bad(Violation(
                        "Integrity", lineno,
                        f"delivery of {subject} does not match any "
                        f"multicast by correct sender {subject.sender}"))
            verdict = (subject, note)
            fault = witness_faults.get(verdict, _UNSEEN)
            if fault is _UNSEEN:
                fault = witness_faults[verdict] = _witness_fault(
                    note, ack_rules(pkind, subject, params, witness_seed,
                                    kappa, slack), subject, proto, n, lineno)
            if fault is not None:
                bad(Violation("WitnessRule", lineno, fault))

        elif kind == "mcast":
            if subject is not None:
                multicast.setdefault(subject, set()).add(digest)

        elif kind == "stable":
            if subject is not None and not delivered(src, subject):
                bad(Violation(
                    "SMIntegrity", lineno,
                    f"stability record claims {src} delivered "
                    f"{subject} without a matching delivery"))

        elif kind == "end":
            result.quiescent = _parse_note(note).get("quiescent") == "true"

    # Agreement / conflict census, reported at the last record (lineno).
    for mid, digs in sorted(digests_of.items()):
        if len(digs) >= 2:
            result.conflicts.append(mid)
            if proto in ("E", "3T"):
                bad(Violation(
                    "Agreement", lineno,
                    f"correct processes delivered {len(digs)} different "
                    f"digests for {mid}"))

    if result.quiescent:
        for mid in sorted(multicast):
            if mid.sender in correct and not delivered(mid.sender, mid):
                bad(Violation(
                    "SelfDelivery", lineno,
                    f"correct sender {mid.sender} never delivered its own "
                    f"{mid}"))
        for mid, firsts in sorted(first_line.items()):
            if not stability and mid.sender not in correct:
                continue
            missing = [p for p in sorted(correct) if not firsts[p]]
            if missing:
                bad(Violation(
                    "Reliability", lineno,
                    f"{mid} was delivered by some correct processes but not "
                    f"by {missing}"))

    return result


def check_trace_file(path: str) -> CheckResult:
    """check_trace over the file, read a piece of whole lines at a time,
    about _READ_SIZE characters each (faster than line by line)."""
    with open(path) as fh:
        pieces = iter(lambda: fh.read(_READ_SIZE) + fh.readline(), "")
        try:
            return check_trace(pieces)
        except UnicodeDecodeError as exc:
            raise TraceParseError(f"cannot decode trace: {exc}") from exc
