import dataclasses
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
    FeatureSet,
    PaillierPublicKey,
    build_encrypted_profile,
    carrier_challenge,
)
from psiauth.encoding import DecodeError, Reader, encode_str, encode_uint
from psiauth.profiles import BLINDED_SEED_BYTES, DeviceSecret, \
    EncryptedProfile
from psiauth import wire

from helpers import malformed_frames


def fake_profile(rng, size=3, mode=FeatureMode.CASE_A, threshold=None):
    n = rng.getrandbits(64) | (1 << 63) | 1
    pk = PaillierPublicKey(n)
    coeffs = tuple(rng.randrange(1, pk.n_squared) for _ in range(size + 1))
    seed = rng.randbytes(BLINDED_SEED_BYTES)
    count = cap = None
    if mode is FeatureMode.CASE_C:
        count, cap = size, 4
    return EncryptedProfile(pk, coeffs, seed, size, mode,
                            count=count, cap=cap, threshold=threshold)


def fake_challenge(rng, size=3, mode=FeatureMode.CASE_A):
    profile = fake_profile(rng, size, mode)
    powered = profile.enc_coeffs
    return AuthChallenge(rng.getrandbits(128).to_bytes(16, "big"),
                         profile.public_key, powered,
                         profile.blinded_seed, mode,
                         count=profile.count, cap=profile.cap)


def fake_entries(rng, count):
    # A cipher is twice as wide as its ratio.
    return tuple(AuthResponseEntry(rng.getrandbits(192) | 1,
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


# SHA-256 over ``pinned_blobs``, recorded with the version byte 0x04, when
# records and challenges began to carry a 32-byte seed in place of the
# blinded randomizers (so ``fake_profile`` draws a seed instead of the
# values, and every later draw moved too); every stored record and frame
# must stay identical.
PINNED_DIGEST = ("bc9c7bf9051fee3037c95c95809f03c2"
                 "41e1980d8fed05597e7aec0eac976c7f")


def test_encodings_are_byte_stable():
    digest = hashlib.sha256()
    for blob in pinned_blobs():
        digest.update(len(blob).to_bytes(4, "big") + blob)
    assert digest.hexdigest() == PINNED_DIGEST
    assert wire.PROTOCOL_VERSION == 0x04


def test_one_more_coefficient_adds_one_encoded_ciphertext():
    # The seed costs the same 36 bytes at every profile size, so a frame
    # minus its encoded ciphertexts keeps one size: a per-coefficient list
    # beside the ciphertexts would grow it.
    rng = random.Random(0x5EED)
    user = "alice"
    for size in range(1, 6):
        features = FeatureSet.from_values(FeatureMode.CASE_A,
                                          range(1, size + 1))
        profile, _ = build_encrypted_profile(user, features, 128, rng)
        challenge, _ = carrier_challenge(profile, rng, sample_size=1)
        store = wire.encode_frame(wire.StoreProfile(user, profile))
        sent = wire.encode_frame(wire.Challenge(challenge))
        ciphers = sum(len(encode_uint(c)) for c in profile.enc_coeffs)
        powered = sum(len(encode_uint(c)) for c in challenge.powered_coeffs)
        key = len(profile.public_key.to_bytes())
        # Header, user id, key, coefficient count, seed, size, mode tag and
        # threshold; header, session id, key, count, seed and mode tag.
        assert len(store) - ciphers == \
            6 + len(encode_str(user)) + key + 4 + 36 + 5 + 1 + 4
        assert len(sent) - powered == 6 + 20 + key + 4 + 36 + 1


class TestFraming:
    def test_store_ack_is_six_bytes(self):
        assert wire.encode_frame(wire.StoreAck()) == bytes.fromhex("040200000000")

    def test_unknown_version_rejected(self):
        frame = bytearray(wire.encode_frame(wire.StoreAck()))
        frame[0] = 0x01  # the version before two-value response entries
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
        header = bytes([wire.PROTOCOL_VERSION, 0x02]) + \
            (wire.MAX_PAYLOAD + 1).to_bytes(4, "big")
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


MODES = pytest.mark.parametrize("mode", list(FeatureMode),
                                ids=["case-a", "case-b", "case-c"])


def fake_records(rng, mode):
    """A feature set, record, device secret and challenge in ``mode``;
    Case C's carry ``(t, M) = (3, 4)``."""
    profile = fake_profile(rng, 3, mode)
    features = FeatureSet(mode, (1, 2), count=profile.count, cap=profile.cap)
    secret = DeviceSecret("u", rng.getrandbits(64) | 1,
                          rng.getrandbits(128) | 1, mode,
                          count=profile.count, cap=profile.cap)
    return features, profile, secret, fake_challenge(rng, 3, mode)


class TestModeParams:
    """One rule for Case C's ``(t, M)``, so each value has one encoding."""

    @MODES
    def test_each_record_round_trips(self, mode):
        _, profile, secret, challenge = fake_records(random.Random(mode),
                                                     mode)
        assert EncryptedProfile.from_bytes(profile.to_bytes()) == profile
        assert DeviceSecret.from_bytes(secret.to_bytes()) == secret
        reader = Reader(challenge.to_bytes())
        assert AuthChallenge.from_reader(reader) == challenge
        reader.expect_end()

    @MODES
    def test_t_and_m_set_exactly_in_case_c(self, mode):
        # In Cases A and B the encoding would drop a (t, M); Case C's
        # must be present and at least 1.
        wrong = [(3, 4), (3, None), (None, 4)]
        if mode is FeatureMode.CASE_C:
            wrong = [(None, None), (3, None), (None, 4), (0, 4), (3, 0),
                     (0, 0)]
        for record in fake_records(random.Random(mode), mode):
            for count, cap in wrong:
                with pytest.raises(ValueError, match="count"):
                    dataclasses.replace(record, count=count, cap=cap)


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
        frame = bytes([wire.PROTOCOL_VERSION, 0x06]) + \
            len(payload).to_bytes(4, "big") + payload
        with pytest.raises(DecodeError, match="non-canonical"):
            wire.decode_frame(frame)
