import hashlib
import hmac
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from securecast.core import (ADVERSARY, PROTO_3T, PROTO_AV, PROTO_E,
                             VERIFY_MEMO_SIZE, ForgeryAttemptError, KeyChain,
                             MessageId, MulticastMessage, Signature, _enc, _u64,
                             ack_sig_data, ack_valid,
                             build_ack, digest, keyed_seed, message_digest,
                             sender_sig_data, valid_signers)


def make_keychain(n=5, faulty=()):
    return KeyChain(n, b"test-secret", faulty=frozenset(faulty))


def test_digest_deterministic():
    assert digest(b"hello") == digest(b"hello")
    assert len(digest(b"")) == 32


def test_digest_stable_constant():
    # Pins the empty-payload digest for this build; changes here mean the
    # canonical encoding changed and every golden trace must be regenerated.
    m = MulticastMessage(MessageId(0, 1), b"")
    assert message_digest(m).hex().startswith("442a3021")


def test_digest_unique_over_run_payloads():
    rng = random.Random(42)
    payloads = {rng.randbytes(rng.randint(0, 64)) for _ in range(2000)}
    digests = {digest(p) for p in payloads}
    assert len(digests) == len(payloads)


def test_message_digest_covers_id():
    a = MulticastMessage(MessageId(1, 1), b"x")
    b = MulticastMessage(MessageId(1, 2), b"x")
    c = MulticastMessage(MessageId(2, 1), b"x")
    assert len({message_digest(a), message_digest(b), message_digest(c)}) == 3


def test_sign_verify_roundtrip():
    kc = make_keychain()
    sig = kc.sign(3, b"data")
    assert kc.verify(3, b"data", sig)


def test_verify_rejects_tampered_data():
    kc = make_keychain()
    sig = kc.sign(3, b"data")
    assert not kc.verify(3, b"DATA", sig)


def test_verify_rejects_wrong_signer():
    kc = make_keychain()
    sig = kc.sign(3, b"data")
    assert not kc.verify(2, b"data", sig)


def test_adversary_cannot_sign_for_correct_process():
    kc = make_keychain(faulty={4})
    kc.sign(4, b"ok", caller=ADVERSARY)  # controls 4, allowed
    with pytest.raises(ForgeryAttemptError):
        kc.sign(1, b"forged", caller=ADVERSARY)


def test_third_party_cannot_sign_at_all():
    kc = make_keychain()
    with pytest.raises(ForgeryAttemptError):
        kc.sign(1, b"forged", caller=2)


def test_ack_valid_checks_embedded_sender_sig():
    kc = make_keychain()
    mid = MessageId(2, 1)
    d = digest(b"payload")
    ssig = kc.sign(2, sender_sig_data(mid, d))
    good = build_ack(kc, PROTO_AV, 1, mid, d, ssig)
    assert ack_valid(good, kc)
    # AV ack without the sender signature is worthless.
    assert not ack_valid(good._replace(sender_sig=None), kc)
    # A sender signature over a different digest does not transfer.
    wrong = kc.sign(2, sender_sig_data(mid, digest(b"other")))
    assert not ack_valid(good._replace(sender_sig=wrong), kc)


def test_plain_ack_must_not_carry_sender_sig():
    kc = make_keychain()
    mid = MessageId(2, 1)
    d = digest(b"payload")
    ack = build_ack(kc, PROTO_3T, 1, mid, d)
    assert ack_valid(ack, kc)
    ssig = kc.sign(2, sender_sig_data(mid, d))
    assert not ack_valid(ack._replace(sender_sig=ssig), kc)


def test_valid_signers_filters_junk_monotonically():
    kc = make_keychain()
    mid = MessageId(0, 1)
    d = digest(b"m")
    good = [build_ack(kc, PROTO_E, i, mid, d) for i in range(3)]
    # Junk of every kind: duplicate signer, wrong digest, broken signature.
    dup = build_ack(kc, PROTO_E, 0, mid, d)
    wrong = build_ack(kc, PROTO_E, 3, mid, digest(b"other"))
    broken = good[0]._replace(signer=4)
    pool = good + [dup, wrong, broken]
    assert valid_signers(pool, PROTO_E, mid, d, kc) == {0, 1, 2}
    # Removing any ack never grows the valid-signer set.
    full = valid_signers(pool, PROTO_E, mid, d, kc)
    rng = random.Random(7)
    for _ in range(30):
        subset = rng.sample(pool, rng.randrange(len(pool)))
        assert valid_signers(subset, PROTO_E, mid, d, kc) <= full


def test_valid_signers_same_answer_for_equal_tuples():
    kc = make_keychain()
    mid = MessageId(0, 1)
    d = digest(b"m")
    good = tuple(build_ack(kc, PROTO_E, i, mid, d) for i in range(3))
    other = tuple(build_ack(kc, PROTO_E, i, mid, digest(b"o"))
                  for i in range(3))
    assert valid_signers(good, PROTO_E, mid, d, kc) == {0, 1, 2}
    assert valid_signers(good, PROTO_E, mid, d, kc) == {0, 1, 2}  # again
    for _ in range(20):
        # Equal but distinct tuples get the same answer, and a tuple built
        # right after one is dropped never inherits that one's answer.
        assert valid_signers(tuple(list(good)), PROTO_E, mid, d, kc) \
            == {0, 1, 2}
        assert valid_signers(tuple(list(other)), PROTO_E, mid, d, kc) \
            == set()


def test_keyed_seed_pinned_values():
    # Pins the keyed encoding behind every world's streams, the channel
    # draws of each send (SHAKE-128 of the same bytes) and witness sets; a
    # change here regenerates every golden trace.
    assert keyed_seed(0, b"world") == 13881911104740999529
    assert keyed_seed(12345, b"x") == 10562458856057898409
    assert keyed_seed(7, b"chan", 1, 2, 3) == 6932571836939742470
    # Every int is taken modulo 2**64, negative ones included.
    assert keyed_seed(-1, b"proc", -5) == 2582750897392194935
    assert keyed_seed(2**64 - 1, b"proc", 2**64 - 5) == 2582750897392194935
    assert keyed_seed(2**64 + 3, b"w3t", 2**64 - 1, 0) == 3634003631006766071
    assert keyed_seed(3, b"w3t", -1, 0) == 3634003631006766071


def test_ack_sig_data_domain_separates_protocols():
    mid = MessageId(1, 1)
    d = digest(b"m")
    assert ack_sig_data(PROTO_E, mid, d) != ack_sig_data(PROTO_3T, mid, d)


def _enc_reference(*parts):
    # The canonical encoding as first written, kept to pin core._enc.
    return b"".join(len(p).to_bytes(4, "big") + p for p in parts)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
# sizes drawn uniformly, since st.binary alone rarely exceeds 32 bytes
@given(st.lists(st.integers(0, 300).flatmap(
    lambda k: st.binary(min_size=k, max_size=k)), max_size=8))
def test_enc_matches_reference_encoding(parts):
    assert _enc(*parts) == _enc_reference(*parts)


def test_message_digest_pinned():
    m = MulticastMessage(MessageId(3, 7), b"payload")
    assert message_digest(m).hex() == (
        "60f210ec1713546b039dbd7ae984c987fed56a4a300a7ad883a7c80bf8b016f7")


def test_keychain_derives_keys_lazily_and_as_before():
    secret = b"test-secret"
    kc = KeyChain(7, secret)
    assert kc._keys == {}  # a fresh chain derives nothing
    # Each key and tag as the chain derived them all up front before.
    key = hashlib.sha256(_enc(b"key", secret, _u64(3))).digest()
    tag = hashlib.sha256(key).digest()[:8]
    assert key.hex().startswith("464f7ac5") and tag.hex() == "b4b779b48efca22f"
    sig = kc.sign(3, b"data")
    assert list(kc._keys) == [3] and kc._keys[3][:2] == (key, tag)
    assert sig.key_tag == tag
    assert sig.mac.hex().startswith("c3faca1a")
    for data in (b"", b"data", bytes(range(256)) * 3):
        assert kc._mac(3, data) == hmac.new(key, data, hashlib.sha256).digest()
    assert kc.verify(3, b"data", sig)
    assert not kc.verify(5, b"data", sig._replace(signer=5))
    assert sorted(kc._keys) == [3, 5]
    # out-of-range signers derive nothing and never verify
    assert not kc.verify(7, b"data", sig._replace(signer=7))
    with pytest.raises(IndexError):
        kc.sign(-1, b"data", caller=-1)
    assert sorted(kc._keys) == [3, 5]


def test_verify_memo_is_bounded_and_keeps_recent_tokens(monkeypatch):
    kc = make_keychain()
    datas = [b"d%d" % i for i in range(3 * VERIFY_MEMO_SIZE)]
    sigs = {d: kc.sign(1, d) for d in datas}
    macs = []
    real = KeyChain._mac
    monkeypatch.setattr(KeyChain, "_mac", lambda self, p, data: macs.append(
        data) or real(self, p, data))
    hot, rest = datas[0], datas[1:]
    # a token used again within VERIFY_MEMO_SIZE // 2 insertions of its
    # last use is never recomputed, however long the world runs
    reuse = VERIFY_MEMO_SIZE // 2 - 1
    for i, d in enumerate(rest):
        assert kc.verify(1, d, sigs[d])
        if i % reuse == 0:
            assert kc.verify(1, hot, sigs[hot])
    assert macs.count(hot) == 1 and len(macs) == len(datas)
    assert len(kc._verify_memo) + len(kc._verify_old) <= VERIFY_MEMO_SIZE
    # a token idle for longer is recomputed, and still checked
    assert kc.verify(1, rest[0], sigs[rest[0]])
    assert macs.count(rest[0]) == 2
    assert not kc.verify(1, rest[0], sigs[rest[1]])


# widths drawn uniformly, so values past 2**63 are as common as small ones
_u64s = st.integers(1, 64).flatmap(lambda b: st.integers(0, 2**b - 1))
# sizes drawn uniformly, as above, so lengths past one byte are covered
_blobs = st.integers(0, 300).flatmap(lambda k: st.binary(min_size=k,
                                                         max_size=k))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(proto=st.text(max_size=4), sender=_u64s, seq=_u64s, dig=_blobs,
       mac=st.one_of(st.none(), _blobs), payload=_blobs)
@example(proto="AV", sender=2**64 - 1, seq=2**63, dig=b"d" * 300,
         mac=b"m" * 256, payload=b"p" * 256)
def test_struct_encodings_match_enc(proto, sender, seq, dig, mac, payload):
    mid = MessageId(sender, seq)
    ssig = None if mac is None else Signature(sender, b"", mac)
    assert ack_sig_data(proto, mid, dig, ssig) == _enc(
        b"ack", proto.encode(), _u64(sender), _u64(seq), dig,
        b"" if mac is None else mac)
    assert sender_sig_data(mid, dig) == _enc(b"avreg", _u64(sender),
                                             _u64(seq), dig)
    assert message_digest(MulticastMessage(mid, payload)) == digest(
        _enc(b"msg", _u64(sender), _u64(seq), payload))
