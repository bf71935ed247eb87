"""Dissemination quorum arithmetic, witness-set selection and the delivery
rule of each protocol.

Witness selection is a keyed pseudorandom function of (message id, seed):
a SHA-256 of the inputs keys a Mersenne Twister stream, so every party
holding the seed computes the same sets, and without the seed the map is
indistinguishable from uniform for the purposes of the simulation.
The two selections are cached by (id, parameters, seed) in small bounded
caches, the only state here that outlives a world: a world looks an id's
sets up again within a few dozen other lookups, and a Monte Carlo world's
seed never recurs, so a larger cache would only hold dead entries.

The delivery rule (ack_rules and accepts) is written here once; the
engines, the adversary and the trace checker all ask it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import (Callable, Collection, Iterable, Iterator, NamedTuple,
                    Optional)

from .core import (PROTO_3T, PROTO_AV, PROTO_E, MessageId, ProtocolKind,
                   keyed_seed)


class InvalidParamsError(ValueError):
    def __init__(self, msg: str, field: str = ""):
        super().__init__(msg)
        self.field = field  # the offending parameter, when one is to blame


@dataclass(frozen=True)
class QuorumParams:
    n: int
    t: int

    def __post_init__(self):
        if self.t < 1:
            raise InvalidParamsError(f"t must be >= 1, got {self.t}")
        if 3 * self.t + 1 > self.n:
            raise InvalidParamsError(
                f"need 3t+1 <= n for a witness range to exist, got n={self.n} t={self.t}")


def check_act_params(n: int, t: int, kappa: int, delta: int, slack_c: int):
    """The ACT parameter domain shared by SimConfig and Setting."""
    if kappa < 1 or delta < 1:
        raise InvalidParamsError("act needs kappa >= 1 and delta >= 1", "kappa")
    if n - t < kappa * delta:
        raise InvalidParamsError(
            f"n-t >= kappa*delta violated: {n - t} < {kappa * delta}", "kappa")
    if delta > 3 * t:
        raise InvalidParamsError(f"delta={delta} exceeds 3t={3 * t}", "delta")
    if not 0 <= slack_c <= kappa:
        raise InvalidParamsError("need 0 <= slack C <= kappa", "slack_c")


def dissemination_quorum_size(params: QuorumParams) -> int:
    """Smallest q with 2q - n >= t+1 (Consistency) and q <= n - t (Availability)."""
    return (params.n + params.t + 2) // 2


def witness_quorum_size(params: QuorumParams) -> int:
    """Acks out of a 3t+1 witness range that validate a 3T delivery: any
    two such sets share t+1 members, so a correct one."""
    return 2 * params.t + 1


def check_dissemination_properties(params: QuorumParams, q: int) -> bool:
    """True iff q-subsets pairwise intersect in > t processes and some
    q-subset avoids any t faulty processes."""
    return 2 * q - params.n > params.t and q <= params.n - params.t


# Above the largest reuse distance measured in one world (31 lookups, at
# n=1000, where a w3t entry is ~16 KB)
WITNESS_CACHE_SIZE = 256


@lru_cache(maxsize=WITNESS_CACHE_SIZE)
def _w3t_members(sender: int, seq: int, n: int, t: int, seed: int) -> frozenset[int]:
    rng = random.Random(keyed_seed(seed, b"w3t", sender, seq))
    return frozenset(rng.sample(range(n), 3 * t + 1))


@lru_cache(maxsize=WITNESS_CACHE_SIZE)
def _w_active_members(sender: int, seq: int, n: int, kappa: int,
                      seed: int) -> frozenset[int]:
    rng = random.Random(keyed_seed(seed, b"wactive", sender, seq))
    return frozenset(rng.randrange(n) for _ in range(kappa))


def w3t(mid: MessageId, params: QuorumParams, seed: int) -> frozenset[int]:
    """The 3t+1 distinct potential witnesses designated for a message id."""
    return _w3t_members(mid.sender, mid.seq, params.n, params.t, seed)


def w_active(mid: MessageId, kappa: int, params: QuorumParams,
             seed: int) -> frozenset[int]:
    """The kappa-process active witness set for a message id.

    kappa independent uniform draws, so the chance that every draw lands on
    a faulty process is exactly (t/n)^kappa; repeated draws collapse in the
    set, which only ever shrinks the adversary's target.
    """
    if kappa > params.n:
        raise InvalidParamsError(f"kappa={kappa} exceeds n={params.n}")
    return _w_active_members(mid.sender, mid.seq, params.n, kappa, seed)


class AckRule(NamedTuple):
    tag: str                          # wire tag the acks must carry
    members: Optional[frozenset[int]]  # eligible signers; None: anyone
    count: int                        # distinct eligible signers needed


def ack_rules(kind: ProtocolKind, mid: MessageId, params: QuorumParams,
              seed: int, kappa: int = 0, slack_c: int = 0
              ) -> Iterator[AckRule]:
    """The delivery rule for mid as ordered alternatives, any one of which
    validates delivery: E takes q acks from anyone; 3T 2t+1 from the 3t+1
    witness range; ACT max(|W_active| - C, 1) AV acks from the active
    witness set, else the 3T rule.  A generator, so an ACT message's 3T
    range is only looked up when the active alternative fails."""
    if kind is ProtocolKind.E:
        yield AckRule(PROTO_E, None, dissemination_quorum_size(params))
        return
    if kind is ProtocolKind.ACT:
        wa = w_active(mid, kappa, params, seed)
        yield AckRule(PROTO_AV, wa, max(len(wa) - slack_c, 1))
    yield AckRule(PROTO_3T, w3t(mid, params, seed), witness_quorum_size(params))


def accepts(rules: Iterable[AckRule],
            signers_of: Callable[[str], Collection[int]]) -> bool:
    """True if some rule is met, where signers_of(tag) gives the distinct
    valid signers of acks carrying that tag."""
    for tag, members, count in rules:
        signers = signers_of(tag)
        if members is not None:
            signers = members.intersection(signers)
        if len(signers) >= count:
            return True
    return False


def sample_peers(rng: random.Random, members: frozenset[int], exclude: int,
                 delta: int) -> tuple[int, ...]:
    """delta distinct probe targets within a witness range, never self.

    Drawn from the probing process's own stream, so the choice is invisible
    to other parties until the informs land.
    """
    pool = sorted(m for m in members if m != exclude)
    if delta > len(pool):
        raise InvalidParamsError(
            f"delta={delta} exceeds available peers {len(pool)}")
    return tuple(rng.sample(pool, delta))


def sample_witness_subset(rng: random.Random, members: frozenset[int],
                          k: int) -> tuple[int, ...]:
    """A uniform k-subset of a witness range, from the caller's stream."""
    return tuple(rng.sample(sorted(members), k))
