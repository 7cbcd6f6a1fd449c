import random
import socket
import time

import pytest

from psiauth import (
    FeatureMode,
    FeatureSet,
    build_encrypted_profile,
    carrier_challenge,
    carrier_score,
    decide,
    device_respond,
    encode_numeric,
)
from psiauth import client, wire
from psiauth.encoding import encode_uint
from psiauth.service import CarrierConfig, CarrierService, ProfileStore

from helpers import malformed_frames, overlap_instance


def case_a(values):
    return FeatureSet.from_values(FeatureMode.CASE_A, values)


@pytest.fixture
def service(tmp_path):
    config = CarrierConfig(store_root=tmp_path / "store", seed=0xCA44,
                           session_timeout=60.0)
    with CarrierService(config) as svc:
        yield svc


@pytest.fixture
def enrolled(service, tmp_path):
    rng = random.Random(41)
    features = case_a([111, 222, 333, 444])
    secret = client.setup_device(service.address, "alice", features,
                                 tmp_path / "alice.secret", bits=128, rng=rng)
    return service, secret, features


class TestProfileStore:
    def test_roundtrip_is_byte_identical(self, tmp_path, rng):
        store = ProfileStore(tmp_path)
        profile, _ = build_encrypted_profile("u", case_a([5, 6]), 128, rng)
        store.save("u", profile)
        stored_file = next(tmp_path.glob("*.profile"))
        assert stored_file.read_bytes() == profile.to_bytes()
        assert store.load("u") == profile

    def test_unknown_user(self, tmp_path):
        with pytest.raises(KeyError):
            ProfileStore(tmp_path).load("ghost")

    def test_no_feature_value_in_stored_bytes(self, tmp_path, rng):
        # Carrier-side bytes hold only ciphertext-space and blinded values;
        # the canonical encoding of any profile feature must not appear.
        values = [0xDEADBEEFCAFE + i for i in range(4)]
        store = ProfileStore(tmp_path)
        profile, _ = build_encrypted_profile("u", case_a(values), 128, rng)
        store.save("u", profile)
        blob = next(tmp_path.glob("*.profile")).read_bytes()
        for value in values:
            assert encode_uint(value) not in blob

    def test_overwrite_replaces_record(self, tmp_path, rng):
        store = ProfileStore(tmp_path)
        first, _ = build_encrypted_profile("u", case_a([1, 2]), 128, rng)
        second, _ = build_encrypted_profile("u", case_a([3, 4, 5]), 128, rng)
        store.save("u", first)
        store.save("u", second)
        assert store.load("u") == second
        assert len(list(tmp_path.glob("*.profile"))) == 1


class TestServeFlow:
    def test_store_then_challenge_has_profile_shape(self, enrolled):
        service, secret, features = enrolled
        with client.CarrierConnection(service.address) as conn:
            reply = conn.request(wire.AuthInit("alice", 3))
            assert isinstance(reply, wire.Challenge)
            assert len(reply.challenge.powered_coeffs) == features.size + 1

    def test_auth_init_unknown_user(self, service):
        with client.CarrierConnection(service.address) as conn:
            with pytest.raises(client.CarrierReplyError) as excinfo:
                conn.request(wire.AuthInit("ghost", 1))
            assert excinfo.value.code == wire.ERR_UNKNOWN_USER

    def test_replayed_response_rejected(self, enrolled):
        service, secret, _ = enrolled
        sample = case_a([222, 333])
        rng = random.Random(9)
        with client.CarrierConnection(service.address) as conn:
            challenge = conn.request(wire.AuthInit("alice", 2)).challenge
            entries = tuple(device_respond(secret, challenge, sample, rng))
            response = wire.Response(challenge.session_id, entries)
            first = conn.request(response)
            assert isinstance(first, wire.Result)
            with pytest.raises(client.CarrierReplyError) as excinfo:
                conn.request(response)
            assert excinfo.value.code == wire.ERR_SESSION

    def test_expired_session_rejected(self, tmp_path):
        config = CarrierConfig(store_root=tmp_path / "store", seed=1,
                               session_timeout=0.05)
        with CarrierService(config) as service:
            rng = random.Random(2)
            secret = client.setup_device(service.address, "bob",
                                         case_a([7, 8, 9]),
                                         tmp_path / "bob.secret",
                                         bits=128, rng=rng)
            with client.CarrierConnection(service.address) as conn:
                challenge = conn.request(wire.AuthInit("bob", 1)).challenge
                entries = tuple(device_respond(secret, challenge,
                                               case_a([7]), rng))
                time.sleep(0.1)
                with pytest.raises(client.CarrierReplyError) as excinfo:
                    conn.request(wire.Response(challenge.session_id, entries))
                assert excinfo.value.code == wire.ERR_SESSION

    def test_malformed_payload_keeps_connection(self, enrolled):
        service, _, features = enrolled
        raw = socket.create_connection(service.address, timeout=5)
        stream = raw.makefile("rwb")
        # valid frame header, garbage StoreProfile payload
        stream.write(bytes([0x01, 0x01]) + (4).to_bytes(4, "big") + b"\xff" * 4)
        stream.flush()
        reply = wire.read_frame(stream)
        assert isinstance(reply, wire.ErrorReply)
        assert reply.code == wire.ERR_DECODE
        wire.write_frame(stream, wire.AuthInit("alice", 1))
        follow_up = wire.read_frame(stream)
        assert isinstance(follow_up, wire.Challenge)
        stream.close()
        raw.close()

    def test_malformed_payloads_answered_with_decode_error(self, service):
        # Each frame is refused while decoding, never as an internal error,
        # and the connection stays usable for the next one.
        with socket.create_connection(service.address, timeout=5) as raw, \
                raw.makefile("rwb") as stream:
            for name, frame in malformed_frames().items():
                stream.write(frame)
                stream.flush()
                reply = wire.read_frame(stream)
                assert isinstance(reply, wire.ErrorReply), name
                assert reply.code == wire.ERR_DECODE, name

    def test_unexpected_message_answered_with_protocol_error(self, service):
        with client.CarrierConnection(service.address) as conn:
            with pytest.raises(client.CarrierReplyError) as excinfo:
                conn.request(wire.StoreAck())
            assert excinfo.value.code == wire.ERR_PROTOCOL


class TestDeviceClient:
    def test_setup_writes_restricted_secret_file(self, enrolled, tmp_path):
        path = tmp_path / "alice.secret"
        assert path.exists()
        assert (path.stat().st_mode & 0o777) == 0o600
        secret = client.load_device_secret(path)
        assert secret.user_id == "alice"

    def test_setup_failure_leaves_no_secret(self, tmp_path):
        # pick a port nothing listens on
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_address = probe.getsockname()
        probe.close()
        path = tmp_path / "never.secret"
        with pytest.raises(OSError):
            client.setup_device(dead_address, "u", case_a([1, 2]), path,
                                bits=128, rng=random.Random(1))
        assert not path.exists()

    def test_second_setup_overwrites(self, enrolled, tmp_path):
        service, _, _ = enrolled
        rng = random.Random(55)
        new_secret = client.setup_device(service.address, "alice",
                                         case_a([9, 10]),
                                         tmp_path / "alice.secret",
                                         bits=128, rng=rng)
        decision = client.authenticate(service.address, new_secret,
                                       case_a([9, 10]), rng=rng)
        assert decision.accepted and decision.match_count == 2

    def test_accept_and_reject_flows(self, enrolled):
        service, secret, _ = enrolled
        rng = random.Random(4)
        accepted = client.authenticate(service.address, secret,
                                       case_a([222, 333, 444]), rng=rng)
        assert accepted.accepted and accepted.match_count == 3
        rejected = client.authenticate(service.address, secret,
                                       case_a([5, 6, 7]), rng=rng)
        assert not rejected.accepted
        assert rejected.dissimilarity == float("inf")

    def test_case_c_over_the_wire(self, service, tmp_path):
        rng = random.Random(6)
        features = encode_numeric((2, 0, 3), 3)
        secret = client.setup_device(service.address, "carol", features,
                                     tmp_path / "carol.secret",
                                     bits=128, rng=rng)
        sample = encode_numeric((1, 1, 3), 3)
        decision = client.authenticate(service.address, secret, sample,
                                       rng=rng)
        assert decision.match_count == 4
        assert decision.dissimilarity == 2  # L1 distance

    def test_loopback_equals_in_process(self, service):
        rng = random.Random(0x10CA1)
        for _ in range(3):
            profile_set, sample_set, _ = overlap_instance(
                rng, rng.randint(1, 6), rng.randint(1, 6), 32)
            build_rng = random.Random(rng.randrange(1 << 30))
            respond_seed = rng.randrange(1 << 30)

            profile, secret = build_encrypted_profile(
                "loop", profile_set, 128, build_rng)
            client.store_profile(service.address, "loop", profile)
            wire_decision = client.authenticate(
                service.address, secret, sample_set,
                rng=random.Random(respond_seed))

            challenge, session = carrier_challenge(profile,
                                                   random.Random(1))
            entries = device_respond(secret, challenge, sample_set,
                                     random.Random(respond_seed))
            matches = carrier_score(session, entries)
            local_decision = decide(matches, profile, len(entries))
            assert wire_decision == local_decision
