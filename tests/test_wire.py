import hashlib
import io
import random
from fractions import Fraction

import pytest

from psiauth import (
    INFINITE,
    AuthChallenge,
    AuthDecision,
    AuthResponseEntry,
    FeatureMode,
    PaillierPublicKey,
)
from psiauth.encoding import DecodeError, encode_uint
from psiauth.profiles import DeviceSecret, EncryptedProfile
from psiauth.paillier import Ciphertext
from psiauth import wire

from helpers import malformed_frames


def fake_profile(rng, size=3, mode=FeatureMode.CASE_A, threshold=None):
    n = rng.getrandbits(64) | (1 << 63) | 1
    pk = PaillierPublicKey.from_modulus(n)
    coeffs = tuple(Ciphertext(rng.randrange(1, pk.n_squared))
                   for _ in range(size + 1))
    blinded = tuple(rng.randrange(1, pk.n_squared) for _ in range(size + 1))
    count = cap = None
    if mode is FeatureMode.CASE_C:
        count, cap = size, 4
    return EncryptedProfile(pk, coeffs, blinded, size, mode,
                            count=count, cap=cap, threshold=threshold)


def fake_challenge(rng, size=3, mode=FeatureMode.CASE_A):
    profile = fake_profile(rng, size, mode)
    powered = tuple(c.value for c in profile.enc_coeffs)
    return AuthChallenge(rng.getrandbits(128).to_bytes(16, "big"),
                         profile.public_key, powered,
                         profile.blinded_randomizers, mode,
                         count=profile.count, cap=profile.cap)


def fake_entries(rng, count):
    return tuple(AuthResponseEntry(rng.getrandbits(96) | 1,
                                   rng.getrandbits(96) | 1,
                                   rng.getrandbits(96) | 1)
                 for _ in range(count))


def random_message(rng) -> wire.Message:
    mode = rng.choice([FeatureMode.CASE_A, FeatureMode.CASE_B,
                       FeatureMode.CASE_C])
    choice = rng.randrange(7)
    if choice == 0:
        return wire.StoreProfile(f"user-{rng.randrange(1000)}",
                                 fake_profile(rng, rng.randint(1, 6), mode,
                                              threshold=rng.choice([None, 2])))
    if choice == 1:
        return wire.StoreAck()
    if choice == 2:
        return wire.AuthInit(f"user-{rng.randrange(1000)}", rng.randint(1, 99))
    if choice == 3:
        return wire.Challenge(fake_challenge(rng, rng.randint(1, 6), mode))
    if choice == 4:
        return wire.Response(rng.getrandbits(128).to_bytes(16, "big"),
                             fake_entries(rng, rng.randint(1, 20)))
    if choice == 5:
        dissimilarity = rng.choice([INFINITE, Fraction(0), Fraction(1, 3),
                                    Fraction(7)])
        return wire.Result(AuthDecision(rng.randint(0, 9), dissimilarity,
                                        rng.random() < 0.5, mode))
    return wire.ErrorReply(rng.choice([0x01, 0x02, 0x03, 0x04]), "oops")


def pinned_blobs():
    """Seeded messages of all 7 types in all 3 modes, plus stored records."""
    rng = random.Random(0xB17E5)
    dissimilarities = [INFINITE, Fraction(1, 3), Fraction(0), Fraction(7)]
    for mode in FeatureMode:
        for size in (1, 3, 6):
            user_id = f"user-{size}"
            profile = fake_profile(rng, size, mode,
                                   threshold=rng.choice([None, 2]))
            yield profile.to_bytes()
            yield DeviceSecret(user_id, rng.getrandbits(64) | 1,
                               rng.getrandbits(128) | 1, mode,
                               count=profile.count, cap=profile.cap).to_bytes()
            decision = AuthDecision(size, rng.choice(dissimilarities),
                                    size % 2 == 1, mode)
            for msg in (
                wire.StoreProfile(user_id, profile),
                wire.StoreAck(),
                wire.AuthInit(user_id, size),
                wire.Challenge(fake_challenge(rng, size, mode)),
                wire.Response(rng.getrandbits(128).to_bytes(16, "big"),
                              fake_entries(rng, size)),
                wire.Result(decision),
                wire.ErrorReply(wire.ERR_PROTOCOL, "bad triple"),
            ):
                yield wire.encode_frame(msg)
    for _ in range(200):
        yield wire.encode_frame(random_message(rng))


# SHA-256 over ``pinned_blobs``, recorded before the codec helpers replaced
# the per-class encoders; every stored record and frame must stay identical.
PINNED_DIGEST = ("c3d1ff76d33c6268f5956451397493cc"
                 "28218fbc66d5d625c72450bd079d20f2")


def test_encodings_are_byte_stable():
    digest = hashlib.sha256()
    for blob in pinned_blobs():
        digest.update(len(blob).to_bytes(4, "big") + blob)
    assert digest.hexdigest() == PINNED_DIGEST
    assert wire.PROTOCOL_VERSION == 0x01


class TestFraming:
    def test_store_ack_is_six_bytes(self):
        assert wire.encode_frame(wire.StoreAck()) == bytes.fromhex("010200000000")

    def test_unknown_version_rejected(self):
        frame = bytearray(wire.encode_frame(wire.StoreAck()))
        frame[0] = 0x02
        with pytest.raises(DecodeError, match="version"):
            wire.decode_frame(bytes(frame))

    def test_unknown_message_type_rejected(self):
        frame = bytearray(wire.encode_frame(wire.StoreAck()))
        frame[1] = 0x42
        with pytest.raises(DecodeError, match="message type"):
            wire.decode_frame(bytes(frame))

    def test_truncation_reports_position(self):
        frame = wire.encode_frame(wire.AuthInit("alice", 3))
        with pytest.raises(DecodeError) as excinfo:
            wire.decode_frame(frame[:-2])
        assert excinfo.value.position >= 0

    def test_length_field_must_match(self):
        frame = wire.encode_frame(wire.AuthInit("alice", 3))
        with pytest.raises(DecodeError):
            wire.decode_frame(frame + b"\x00")

    def test_oversize_length_rejected(self):
        header = bytes([0x01, 0x02]) + (wire.MAX_PAYLOAD + 1).to_bytes(4, "big")
        with pytest.raises(DecodeError, match="limit"):
            wire.decode_frame(header)

    def test_trailing_payload_bytes_rejected(self):
        payload_extra = wire.encode_frame(wire.StoreAck())[:2] + \
            (1).to_bytes(4, "big") + b"\x00"
        with pytest.raises(DecodeError, match="trailing"):
            wire.decode_frame(payload_extra)


class TestRoundTrips:
    def test_response_with_20_entries(self):
        rng = random.Random(11)
        msg = wire.Response(b"\x01" * 16, fake_entries(rng, 20))
        assert wire.decode_frame(wire.encode_frame(msg)) == msg

    @pytest.mark.parametrize("seed", range(5))
    def test_random_messages(self, seed):
        rng = random.Random(seed)
        for _ in range(20):
            msg = random_message(rng)
            assert wire.decode_frame(wire.encode_frame(msg)) == msg

    def test_infinite_dissimilarity_survives(self):
        decision = AuthDecision(0, INFINITE, False, FeatureMode.CASE_A)
        msg = wire.decode_frame(wire.encode_frame(wire.Result(decision)))
        assert msg.decision.dissimilarity == INFINITE


class TestStreamIO:
    def test_write_read(self):
        rng = random.Random(3)
        buffer = io.BytesIO()
        messages = [random_message(rng) for _ in range(5)]
        for msg in messages:
            wire.write_frame(buffer, msg)
        buffer.seek(0)
        restored = [wire.read_frame(buffer) for _ in range(5)]
        assert restored == messages
        assert wire.read_frame(buffer) is None

    def test_partial_header_raises(self):
        buffer = io.BytesIO(b"\x01\x02")
        with pytest.raises(DecodeError, match="header"):
            wire.read_frame(buffer)

    def test_partial_payload_raises(self):
        frame = wire.encode_frame(wire.AuthInit("alice", 3))
        buffer = io.BytesIO(frame[:-1])
        with pytest.raises(DecodeError, match="payload"):
            wire.read_frame(buffer)


class TestMalformedPayloads:
    @pytest.mark.parametrize("name", sorted(malformed_frames()))
    def test_rejected_with_decode_error(self, name):
        with pytest.raises(DecodeError):
            wire.decode_frame(malformed_frames()[name])

    @pytest.mark.parametrize("numerator, denominator",
                             [(0, 5), (7, 0), (0, 0)])
    def test_non_canonical_decision_rejected(self, numerator, denominator):
        # Each of these would decode to a value that re-encodes differently.
        payload = encode_uint(3) + encode_uint(numerator) + \
            encode_uint(denominator) + bytes([0, FeatureMode.CASE_A])
        frame = bytes([0x01, 0x06]) + len(payload).to_bytes(4, "big") + payload
        with pytest.raises(DecodeError, match="non-canonical"):
            wire.decode_frame(frame)
