"""Identities, messages, digests and signatures shared by every protocol.

Cryptography is modeled, not real.  Digests are SHA-256 over a canonical
length-prefixed encoding; signatures are HMAC-SHA256 tokens under
per-process keys derived from a world secret.  Inside a simulation this is
sound: a token verifies for process p only if it was minted with p's key,
and the key of a correct process is only reachable through that process's
own engine.  A real public-key scheme could be slotted in behind KeyChain
without touching the protocols.
"""

from __future__ import annotations

import hashlib
import hmac
import struct
from enum import Enum
from functools import lru_cache
from typing import NamedTuple, Optional

# Wire protocol tags. ACT engines emit AV traffic in the no-failure regime
# and 3T traffic in the recovery regime.
PROTO_E = "E"
PROTO_3T = "3T"
PROTO_AV = "AV"

ADVERSARY = "adversary"


class ProtocolKind(Enum):
    E = "e"
    THREE_T = "3t"
    ACT = "act"


# The wire tag each protocol's traffic carries (ACT recovery traffic is 3T).
PROTO_TAG = {ProtocolKind.E: PROTO_E, ProtocolKind.THREE_T: PROTO_3T,
             ProtocolKind.ACT: PROTO_AV}


class MessageId(NamedTuple):
    sender: int
    seq: int

    def __str__(self) -> str:
        return f"{self.sender}:{self.seq}"


class MulticastMessage(NamedTuple):
    id: MessageId
    payload: bytes


class Signature(NamedTuple):
    signer: int
    key_tag: bytes   # identifies the signing key
    mac: bytes       # the token itself


class Ack(NamedTuple):
    proto: str                       # PROTO_E / PROTO_3T / PROTO_AV
    signer: int
    subject: MessageId
    digest: bytes
    sender_sig: Optional[Signature]  # present only for AV acks
    sig: Signature


class ForgeryAttemptError(Exception):
    """Raised when a party requests a signature with a key it does not hold."""


_LEN = struct.Struct(">I").pack


def _enc(*parts: bytes) -> bytes:
    """Each part as a 4-byte big-endian length and its bytes."""
    out = []
    for p in parts:
        out += (_LEN(len(p)), p)
    return b"".join(out)


def _u64(x: int) -> bytes:
    return x.to_bytes(8, "big")


_MASK64 = (1 << 64) - 1

@lru_cache(maxsize=None)
def u64_fields(count: int) -> struct.Struct:
    """Packs count u64 fields as _enc(_u64(a), _u64(b), ...) writes them,
    each a 4-byte length (always 8) and the 8-byte value: pack(8, a, 8, b,
    ...)."""
    return struct.Struct(">" + "IQ" * count)


def digest64(data: bytes) -> int:
    """The first 8 bytes of SHA-256(data) as an unsigned int."""
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")


def keyed_prefix(seed: int, label: bytes) -> bytes:
    """The leading bytes of keyed_seed's hash input: a caller drawing many
    values under one (seed, label) encodes this once and appends the packed
    ints itself, as keyed_seed does."""
    return _enc(label, _u64(seed & _MASK64))


def keyed_seed(seed: int, label: bytes, *ints: int) -> int:
    """A u64 hashed from (label, seed, ints), each int taken modulo 2**64:
    what every keyed random stream of a world is seeded with.  A send's
    channel draws are SHAKE-128 of the same bytes (simnet.send_draws)."""
    args = []
    for i in ints:
        args += (8, i & _MASK64)
    return digest64(keyed_prefix(seed, label)
                    + u64_fields(len(ints)).pack(*args))


def digest(data: bytes) -> bytes:
    """Collision-free within a run by the hash assumption; deterministic."""
    return hashlib.sha256(data).digest()


# The signed and hashed encodings below are _enc of their fields, laid out
# with precompiled structs: the constant leading parts encoded once, then
# an id's two u64 fields (each a 4-byte length 8 and the value) and the
# 4-byte length of the variable part that follows.
_ID_THEN_LEN = struct.Struct(">IQIQI").pack
_MSG_HEAD = _enc(b"msg")
_AVREG_HEAD = _enc(b"avreg")
_ACK_HEADS = {p: _enc(b"ack", p.encode()) for p in (PROTO_E, PROTO_3T, PROTO_AV)}


def message_digest(m: MulticastMessage) -> bytes:
    """digest(_enc(b"msg", _u64(sender), _u64(seq), payload))."""
    (sender, seq), payload = m
    return digest(_MSG_HEAD + _ID_THEN_LEN(8, sender, 8, seq, len(payload))
                  + payload)


def sender_sig_data(mid: MessageId, dig: bytes) -> bytes:
    """The byte string an ACT sender signs on its regular messages:
    _enc(b"avreg", _u64(sender), _u64(seq), dig)."""
    return _AVREG_HEAD + _ID_THEN_LEN(8, mid[0], 8, mid[1], len(dig)) + dig


def ack_sig_data(proto: str, subject: MessageId, dig: bytes,
                 sender_sig: Optional[Signature] = None) -> bytes:
    """_enc(b"ack", proto, _u64(sender), _u64(seq), dig, mac), where mac is
    the embedded sender signature's token, or empty."""
    extra = sender_sig.mac if sender_sig is not None else b""
    head = _ACK_HEADS.get(proto) or _enc(b"ack", proto.encode())
    return b"".join((head, _ID_THEN_LEN(8, subject[0], 8, subject[1],
                                        len(dig)),
                     dig, _LEN(len(extra)), extra))


# HMAC's inner and outer key pads, as byte translation tables
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))

# The most tokens a key chain's memo keeps, in two generations of half as
# many each.  A token signed or verified again within VERIFY_MEMO_SIZE // 2
# insertions of its last use is never recomputed, and half of this is
# ~1.8x the largest such distance measured (857 and 1,138 insertions, in
# ACT worlds at n=1000, t=100 with 100 and with 400 messages), so every
# token of those worlds is HMACed once.
VERIFY_MEMO_SIZE = 4096


class KeyChain:
    """Holds the per-process simulated private keys for one world.

    Honest engines call sign() for themselves.  Adversary code must pass
    caller=ADVERSARY and may only sign for processes in the faulty set;
    anything else raises ForgeryAttemptError, which models the assumption
    that private keys of correct processes cannot be broken.
    """

    def __init__(self, n: int, secret: bytes,
                 faulty: frozenset[int] = frozenset()):
        self.n = n
        self.faulty = frozenset(faulty)
        self._secret = secret
        # process -> _key(process), derived on its first sign or verify:
        # most worlds touch a few of the n keys
        self._keys: dict[int, tuple] = {}
        # (signer, signed bytes) -> token, filled by sign and verify: the
        # one HMAC cache of a world, bounded by VERIFY_MEMO_SIZE.  New
        # tokens go to the young generation; when it is full it becomes
        # the old one and the old one is dropped, and a token found in the
        # old one moves back.
        self._verify_memo: dict[tuple[int, bytes], bytes] = {}
        self._verify_old: dict[tuple[int, bytes], bytes] = {}

    def _key(self, p: int) -> tuple:
        """Process p's (key, tag, inner, outer).  The key is SHA-256 of
        _enc(b"key", secret, _u64(p)) and the tag the first 8 bytes of the
        key's SHA-256.  inner and outer are HMAC-SHA256's two hash states
        with the padded key already absorbed, so a token costs two state
        copies instead of a fresh HMAC object."""
        ks = self._keys.get(p)
        if ks is None:
            if not 0 <= p < self.n:
                raise IndexError(f"no process {p} among {self.n}")
            key = hashlib.sha256(_enc(b"key", self._secret, _u64(p))).digest()
            block = key.ljust(64, b"\0")   # SHA-256's block is 64 bytes
            ks = self._keys[p] = (
                key, hashlib.sha256(key).digest()[:8],
                hashlib.sha256(block.translate(_IPAD)),
                hashlib.sha256(block.translate(_OPAD)))
        return ks

    def _mac(self, p: int, data: bytes) -> bytes:
        """HMAC-SHA256 of data under p's key, equal to hmac.new(key, data,
        hashlib.sha256).digest()."""
        _, _, inner, outer = self._key(p)
        h = inner.copy()
        h.update(data)
        o = outer.copy()
        o.update(h.digest())
        return o.digest()

    def _token(self, p: int, data: bytes) -> bytes:
        """_mac(p, data) through the memo: each (signer, signed bytes) is
        HMACed once while its token stays in either generation."""
        key = (p, data)
        mac = self._verify_memo.get(key)
        if mac is None:
            mac = self._verify_old.get(key)
            if mac is None:
                mac = self._mac(p, data)
            memo = self._verify_memo
            if len(memo) >= VERIFY_MEMO_SIZE // 2:
                self._verify_old = memo
                memo = self._verify_memo = {}
            memo[key] = mac
        return mac

    def sign(self, signer: int, data: bytes, caller: object = None) -> Signature:
        if caller is None:
            caller = signer
        if caller != signer and not (caller == ADVERSARY and signer in self.faulty):
            raise ForgeryAttemptError(
                f"caller {caller!r} does not hold the key of process {signer}")
        return Signature(signer, self._key(signer)[1],
                         self._token(signer, data))

    def verify(self, signer: int, data: bytes, sig: Signature) -> bool:
        if sig is None or sig.signer != signer or not 0 <= signer < self.n:
            return False
        return hmac.compare_digest(self._token(signer, data), sig.mac)


def sign_sender(keychain: KeyChain, mid: MessageId, dig: bytes,
                caller: object = None) -> Signature:
    """mid's sender's signature over (mid, dig), the one an ACT sender
    puts on its regulars and every AV ack embeds."""
    return keychain.sign(mid.sender, sender_sig_data(mid, dig), caller=caller)


def sender_signed(keychain: KeyChain, mid: MessageId, dig: bytes,
                  sig: Optional[Signature]) -> bool:
    """True if sig is sign_sender's signature for (mid, dig)."""
    return keychain.verify(mid.sender, sender_sig_data(mid, dig), sig)


def build_ack(keychain: KeyChain, proto: str, signer: int, subject: MessageId,
              dig: bytes, sender_sig: Optional[Signature] = None,
              caller: object = None) -> Ack:
    sig = keychain.sign(signer, ack_sig_data(proto, subject, dig, sender_sig),
                        caller=caller)
    return Ack(proto, signer, subject, dig, sender_sig, sig)


def ack_valid(ack: Ack, keychain: KeyChain) -> bool:
    """Signature check for a single acknowledgment.

    An AV ack embeds the sender's own signature; it only counts if that
    inner signature verifies too, which is what ties AV ack sets back to an
    actual multicast by the sender.  Nothing is cached here: the key
    chain's verify keeps each recent token, one per (signer, signed bytes),
    so checking an ack again costs its encodings, not another HMAC.
    """
    if ack.proto == PROTO_AV:
        if not sender_signed(keychain, ack.subject, ack.digest,
                             ack.sender_sig):
            return False
    elif ack.sender_sig is not None:
        return False
    return keychain.verify(ack.signer,
                           ack_sig_data(ack.proto, ack.subject, ack.digest,
                                        ack.sender_sig),
                           ack.sig)


def valid_signers(acks, proto: str, subject: MessageId, dig: bytes,
                  keychain: KeyChain) -> frozenset[int]:
    """Distinct signers with a valid ack for exactly (proto, subject, digest).

    Junk entries are ignored rather than poisoning the set, so validity of
    an ack set is monotone: removing an ack can never help.  A pure
    function of its arguments with no cache of its own: the engines of a
    world judge each deliver message once and share the verdict
    (ProcessEngine._verdict), and the trace builds each delivered ack set's
    signer note once (SimWorld._signers_note).
    """
    out: set[int] = set()
    for a in acks:
        if a.proto != proto or a.subject != subject or a.digest != dig:
            continue
        if a.signer in out:
            continue
        if ack_valid(a, keychain):
            out.add(a.signer)
    return frozenset(out)
