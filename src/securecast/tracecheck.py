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
  each alternative counts only the signers of its own tag.
* No conflicting acks: no correct process signs acks for two different
  digests of one id.
* SM integrity: every "stable" record, the stability oracle's report that
  a delivery has matured, matches an earlier delivery by the process it
  names.
* Self-delivery and Reliability: only asserted for quiescent runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .core import PROTO_TAG, MessageId
from .quorum import QuorumParams, accepts, ack_rules
# Bound here only so the benchmark tracer (bench/tracer.py) can patch it.
from .quorum import w3t  # noqa: F401


class TraceParseError(Exception):
    pass


@dataclass
class TraceRecord:
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


def _int_or_none(s: str) -> Optional[int]:
    return None if s == "-" else int(s)


def _subject(s: str) -> Optional[MessageId]:
    if s == "-":
        return None
    sender, seq = s.split(":")
    return MessageId(int(sender), int(seq))


def parse_trace(text: str) -> list[TraceRecord]:
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split(" ", 8)
        if len(parts) != 9:
            raise TraceParseError(f"line {lineno}: expected 9 fields, got {len(parts)}")
        try:
            records.append(TraceRecord(
                lineno, int(parts[0]), parts[1], _int_or_none(parts[2]),
                _int_or_none(parts[3]), parts[4], parts[5],
                _subject(parts[6]), parts[7], parts[8]))
        except (ValueError, IndexError) as exc:
            raise TraceParseError(f"line {lineno}: {exc}") from exc
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


def check_trace(text: str) -> CheckResult:
    records = parse_trace(text)
    meta = _parse_note(records[0].note)
    proto = records[0].proto  # E / 3T / AV
    kinds = {tag: k for k, tag in PROTO_TAG.items()}
    try:
        kind = kinds[proto]
        n = int(meta["n"])
        t = int(meta["t"])
        kappa = int(meta["kappa"])
        slack = int(meta["slack"])
        witness_seed = int(meta["witness_seed"])
        faulty = (set() if meta.get("faulty", "none") == "none"
                  else {int(x) for x in meta["faulty"].split(":")})
        params = QuorumParams(n, t)
    except (KeyError, ValueError) as exc:
        raise TraceParseError(f"line 1: bad meta record: {exc!r}") from exc
    correct = set(range(n)) - faulty

    result = CheckResult()
    bad = result.violations.append

    multicast: dict[MessageId, set[str]] = {}
    delivered: dict[tuple[int, MessageId], tuple[str, int]] = {}
    per_id_digests: dict[MessageId, dict[str, set[int]]] = {}
    acks_signed: dict[tuple[int, MessageId], dict[str, int]] = {}

    for r in records:
        if r.kind == "mcast" and r.subject is not None:
            multicast.setdefault(r.subject, set()).add(r.digest)

        elif r.kind == "send" and r.role == "ack" and r.src in correct \
                and r.subject is not None:
            seen = acks_signed.setdefault((r.src, r.subject), {})
            if r.digest not in seen:
                if seen:
                    bad(Violation(
                        "NoConflictingAcks", r.lineno,
                        f"process {r.src} signed acks for two digests of "
                        f"{r.subject}"))
                seen[r.digest] = r.lineno

        elif r.kind == "appdlv" and r.subject is not None:
            if r.src not in correct:
                continue
            key = (r.src, r.subject)
            if key in delivered:
                bad(Violation(
                    "Integrity", r.lineno,
                    f"process {r.src} delivered {r.subject} twice "
                    f"(first at line {delivered[key][1]})"))
            else:
                delivered[key] = (r.digest, r.lineno)
                per_id_digests.setdefault(r.subject, {}) \
                    .setdefault(r.digest, set()).add(r.src)
            if r.subject.sender in correct:
                digs = multicast.get(r.subject, set())
                if r.digest not in digs:
                    bad(Violation(
                        "Integrity", r.lineno,
                        f"delivery of {r.subject} does not match any "
                        f"multicast by correct sender {r.subject.sender}"))
            signers = {tag[len("signers."):]: {int(s) for s in v.split(":")}
                       for tag, v in _parse_note(r.note).items()
                       if tag.startswith("signers.") and v}
            rules = ack_rules(kind, r.subject, params, witness_seed, kappa,
                              slack)
            if not accepts(rules, lambda tag: signers.get(tag, ())):
                counts = ", ".join(f"{len(v)} {tag}"
                                   for tag, v in sorted(signers.items()))
                bad(Violation(
                    "WitnessRule", r.lineno,
                    f"delivery of {r.subject} backed by "
                    f"{counts or 'no'} signers, which meet no {proto} "
                    f"ack rule"))

        elif r.kind == "stable" and r.subject is not None:
            if (r.src, r.subject) not in delivered:
                bad(Violation(
                    "SMIntegrity", r.lineno,
                    f"stability record claims {r.src} delivered "
                    f"{r.subject} without a matching delivery"))

        elif r.kind == "end":
            result.quiescent = _parse_note(r.note).get("quiescent") == "true"

    # Agreement / conflict census.
    for mid, slots in sorted(per_id_digests.items()):
        if len(slots) >= 2:
            result.conflicts.append(mid)
            if proto in ("E", "3T"):
                bad(Violation(
                    "Agreement", records[-1].lineno,
                    f"correct processes delivered {len(slots)} different "
                    f"digests for {mid}"))

    if result.quiescent:
        for mid, digs in sorted(multicast.items()):
            if mid.sender in correct and (mid.sender, mid) not in delivered:
                bad(Violation(
                    "SelfDelivery", records[-1].lineno,
                    f"correct sender {mid.sender} never delivered its own "
                    f"{mid}"))
        for mid in sorted({m for (_, m) in delivered}):
            missing = [p for p in sorted(correct) if (p, mid) not in delivered]
            if missing:
                bad(Violation(
                    "Reliability", records[-1].lineno,
                    f"{mid} was delivered by some correct processes but not "
                    f"by {missing}"))

    return result


def check_trace_file(path: str) -> CheckResult:
    with open(path) as fh:
        return check_trace(fh.read())
