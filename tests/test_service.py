import hashlib
import logging
import os
import random
import socket
import threading
import time

import pytest

from psiauth import (
    EncryptedProfile,
    FeatureMode,
    FeatureSet,
    ModeMismatchError,
    ProtocolError,
    SimilarityFunction,
    build_encrypted_profile,
    carrier_challenge,
    carrier_score,
    decide,
    device_respond,
    encode_numeric,
    oracle_intersection,
)
from psiauth import client, pool, protocol, wire
from psiauth import service as service_module
from psiauth.encoding import MAX_ENTRIES, encode_uint, encode_uints
from psiauth.service import CarrierConfig, CarrierService, ProfileStore

from helpers import malformed_frames, overlap_instance, smallest_profile


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
        # the canonical encoding of any profile feature must not appear in
        # any stored file, the record's challenge teeth included.
        values = [0xDEADBEEFCAFE + i for i in range(4)]
        store = ProfileStore(tmp_path)
        profile, _ = build_encrypted_profile("u", case_a(values), 128, rng)
        store.save("u", profile)
        carrier_challenge(profile, rng, sample_size=1,
                          teeth=store.teeth("u", profile))
        files = [path for path in tmp_path.rglob("*") if path.is_file()]
        assert {path.suffix for path in files} == {".profile", ".teeth"}
        for path in files:
            blob = path.read_bytes()
            for value in values:
                assert encode_uint(value) not in blob

    def test_writes_are_synced_before_and_after_the_rename(
            self, tmp_path, rng, monkeypatch):
        # The file is synced before it is renamed over the record, and the
        # directory after, so a crash cannot leave an empty record or
        # teeth file behind.
        synced = []
        real_fsync = os.fsync

        def fsync(fd):
            stat = os.fstat(fd)
            synced.append((stat.st_dev, stat.st_ino))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        store = ProfileStore(tmp_path)
        profile, _ = build_encrypted_profile("u", case_a([5, 6]), 128, rng)
        store.save("u", profile)
        store.teeth("u", profile)

        def identity(path):
            stat = path.stat()
            return stat.st_dev, stat.st_ino

        directory = identity(tmp_path)
        assert synced == [identity(store._path("u")), directory,
                          identity(store._path("u", ".teeth")), directory]

    def test_overwrite_replaces_record(self, tmp_path, rng):
        store = ProfileStore(tmp_path)
        first, _ = build_encrypted_profile("u", case_a([1, 2]), 128, rng)
        second, _ = build_encrypted_profile("u", case_a([3, 4, 5]), 128, rng)
        store.save("u", first)
        store.save("u", second)
        assert store.load("u") == second
        assert len(list(tmp_path.glob("*.profile"))) == 1


def count_teeth_jobs(monkeypatch):
    """Patch the pool entry point; the returned list counts teeth jobs."""
    jobs = []

    def in_pool(job, context, items):
        if job is protocol._coeff_teeth:
            jobs.append(len(items))
        return pool._in_pool(job, context, items)

    monkeypatch.setattr(protocol, "_in_pool", in_pool)
    return jobs


def plain_powers(service, challenge):
    session = service.sessions._sessions[challenge.session_id]
    pk = session.profile.public_key
    return tuple(pow(c, session.session_exponent, pk.n_squared)
                 for c in session.profile.enc_coeffs)


def stall_one_user(service, monkeypatch, name):
    """Hold ``service.<name>`` for user a's record while user b sends a
    first AuthInit, which must still complete."""
    rng = random.Random(16)
    for user in ("a", "b"):
        profile, _ = build_encrypted_profile(user, case_a([1, 2]), 128, rng)
        service.store.save(user, profile)
    held_profile = service.store.load("a")
    entered, release = threading.Event(), threading.Event()
    real = getattr(service_module, name)

    def held(profile, *args, **kwargs):
        if profile == held_profile:
            entered.set()
            release.wait(10)
        return real(profile, *args, **kwargs)

    monkeypatch.setattr(service_module, name, held)
    replies = {}

    def init(user):
        replies[user] = service.dispatch(wire.AuthInit(user, 1))

    first = threading.Thread(target=init, args=("a",))
    second = threading.Thread(target=init, args=("b",))
    first.start()
    try:
        assert entered.wait(10)
        second.start()
        second.join(timeout=5)
        assert isinstance(replies.get("b"), wire.Challenge)
    finally:
        release.set()
        first.join(timeout=10)
        if second.ident is not None:
            second.join(timeout=10)
    assert isinstance(replies["a"], wire.Challenge)


class TestChallengeTeeth:
    """Each record's teeth are computed at its first challenge and kept."""

    def test_three_challenges_compute_the_teeth_once(self, enrolled,
                                                     monkeypatch):
        service, _, features = enrolled
        jobs = count_teeth_jobs(monkeypatch)
        for _ in range(3):
            reply = service.dispatch(wire.AuthInit("alice", 2))
            assert reply.challenge.powered_coeffs == \
                plain_powers(service, reply.challenge)
        assert jobs == [features.size + 1]
        # A new carrier on the same store reads the stored teeth.
        config = CarrierConfig(store_root=service.config.store_root, seed=3)
        with CarrierService(config) as restarted:
            reply = restarted.dispatch(wire.AuthInit("alice", 2))
            assert reply.challenge.powered_coeffs == \
                plain_powers(restarted, reply.challenge)
        assert jobs == [features.size + 1]

    def test_concurrent_first_challenges_compute_the_teeth_once(
            self, service, kp1024, monkeypatch):
        # Four first challenges for one record meet in ProfileStore.teeth:
        # the first computes the record's teeth, the others wait for it.
        pk = kp1024[0]
        draws = random.Random(17)
        coeffs = tuple(draws.randrange(2, pk.n_squared) for _ in range(21))
        service.store.save("bob", EncryptedProfile(
            pk, coeffs, (1,) * 21, 20, FeatureMode.CASE_A))
        jobs = count_teeth_jobs(monkeypatch)
        together = threading.Barrier(4)
        real_teeth = service.store.teeth
        real_compute = service_module.challenge_teeth

        def arrive(*args):
            together.wait(10)
            return real_teeth(*args)

        def slow(profile):
            time.sleep(0.2)  # still in flight when the other three arrive
            return real_compute(profile)

        monkeypatch.setattr(service.store, "teeth", arrive)
        monkeypatch.setattr(service_module, "challenge_teeth", slow)
        replies = []
        threads = [threading.Thread(target=lambda: replies.append(
            service.dispatch(wire.AuthInit("bob", 1)))) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert jobs == [21]
        assert len(replies) == 4
        for reply in replies:
            assert reply.challenge.powered_coeffs == \
                plain_powers(service, reply.challenge)

    def test_held_teeth_stall_no_other_user(self, service, monkeypatch):
        # User a's teeth are held mid-computation, with a's record in
        # flight; user b's first AuthInit must still complete.
        stall_one_user(service, monkeypatch, "challenge_teeth")

    def test_failed_teeth_computation_not_kept(self, tmp_path, rng,
                                              monkeypatch):
        # Its caller sees the error, and the next caller computes afresh.
        store = ProfileStore(tmp_path)
        profile, _ = build_encrypted_profile("u", case_a([3, 4]), 128, rng)

        def broken(profile):
            raise RuntimeError("teeth failed")

        monkeypatch.setattr(service_module, "challenge_teeth", broken)
        with pytest.raises(RuntimeError, match="teeth failed"):
            store.teeth("u", profile)
        monkeypatch.undo()
        assert store.teeth("u", profile) == protocol.challenge_teeth(profile)
        assert store._teeth_in_flight == {}

    def test_restored_record_never_meets_old_teeth(self, enrolled, rng):
        service, _, _ = enrolled
        service.dispatch(wire.AuthInit("alice", 2))
        teeth_file = service.store._path("alice", ".teeth")
        old_teeth = teeth_file.read_bytes()
        profile, _ = build_encrypted_profile("alice", case_a([5, 6, 7]), 128,
                                             rng)
        assert isinstance(service.dispatch(wire.StoreProfile("alice",
                                                             profile)),
                          wire.StoreAck)
        assert teeth_file.read_bytes() == old_teeth
        reply = service.dispatch(wire.AuthInit("alice", 2))
        session = service.sessions._sessions[reply.challenge.session_id]
        assert session.profile == profile
        assert reply.challenge.powered_coeffs == \
            plain_powers(service, reply.challenge)
        assert teeth_file.read_bytes() != old_teeth

    @pytest.mark.parametrize("damage", ["hash", "short", "long", "truncated",
                                        "empty"])
    def test_mismatched_teeth_file_recomputed(self, tmp_path, rng,
                                              monkeypatch, damage):
        store = ProfileStore(tmp_path)
        profile, _ = build_encrypted_profile("u", case_a([3, 4]), 128, rng)
        store.save("u", profile)
        teeth = store.teeth("u", profile)
        assert teeth == protocol.challenge_teeth(profile)
        path = store._path("u", ".teeth")
        good = path.read_bytes()
        digest = good[:32]
        # Each damaged file carries teeth that would give wrong powers.
        wrong = tuple(t + 1 for t in teeth)
        path.write_bytes({
            "hash": bytes(32) + encode_uints(wrong),
            "short": digest + encode_uints(wrong[:-1]),
            "long": digest + encode_uints(wrong + (1,)),
            "truncated": (digest + encode_uints(wrong))[:-1],
            "empty": b"",
        }[damage])
        jobs = count_teeth_jobs(monkeypatch)
        assert store.teeth("u", profile) == teeth
        assert jobs == [profile.size + 1]
        assert path.read_bytes() == good
        assert store.teeth("u", profile) == teeth
        assert jobs == [profile.size + 1]

    @pytest.mark.parametrize("count", ["six-teeth", "five-teeth"])
    def test_teeth_of_another_width_recomputed(self, tmp_path, rng,
                                               monkeypatch, count):
        # Teeth C**(2**(j * w)) of the width w = ceil(|n| / 6) that a comb
        # of six teeth over exponents below n used, stored behind the
        # SHA-256 of the record alone, as that carrier wrote them: the
        # coefficient's five other teeth, or just four, the count a comb of
        # five teeth reads.  Only the width in the digest refuses the four.
        store = ProfileStore(tmp_path)
        profile, _ = build_encrypted_profile("u", case_a([3, 4, 5]), 128,
                                             rng)
        pk = profile.public_key
        old_width = -(-pk.n.bit_length() // 6)
        assert old_width != protocol._comb_width(pk.n)
        stored = 5 if count == "six-teeth" else 4
        old_teeth = [pow(c, 1 << (j * old_width), pk.n_squared)
                     for c in profile.enc_coeffs
                     for j in range(1, stored + 1)]
        record_digest = hashlib.sha256(profile.to_bytes()).digest()
        path = store._path("u", ".teeth")
        path.write_bytes(record_digest + encode_uints(old_teeth))
        expected = protocol.challenge_teeth(profile)
        jobs = count_teeth_jobs(monkeypatch)
        teeth = store.teeth("u", profile)
        assert jobs == [profile.size + 1]
        assert teeth == expected
        written = path.read_bytes()
        assert written[:32] != record_digest
        assert written[32:] == encode_uints(teeth)
        challenge, session = carrier_challenge(profile, rng, sample_size=1,
                                               teeth=teeth)
        assert challenge.powered_coeffs == tuple(
            pow(c, session.session_exponent, pk.n_squared)
            for c in profile.enc_coeffs)
        assert store.teeth("u", profile) == teeth
        assert jobs == [profile.size + 1]


class TestServeFlow:
    def test_store_then_challenge_has_profile_shape(self, enrolled):
        service, secret, features = enrolled
        with client.CarrierConnection(service.address) as conn:
            reply = conn.request(wire.AuthInit("alice", 3))
            assert isinstance(reply, wire.Challenge)
            assert len(reply.challenge.powered_coeffs) == features.size + 1

    def test_drawn_exponents_have_at_most_256_bits(self, service, kp1024,
                                                   rng):
        service.store.save("bob", smallest_profile(kp1024[0], rng))
        lengths = []
        for _ in range(200):
            reply = service.dispatch(wire.AuthInit("bob", 1))
            assert reply.challenge.powered_coeffs == \
                plain_powers(service, reply.challenge)
            session = service.sessions.claim(reply.challenge.session_id)
            lengths.append(session.session_exponent.bit_length())
        # Uniform below 2**256: all 200 below 2**255 has probability 2**-200.
        assert max(lengths) == 256

    def test_sessions_draw_what_carrier_challenge_draws(self, service, rng):
        # The carrier opens each session with carrier_challenge over its own
        # generator: theta first, then the session id, session after session.
        profile, _ = build_encrypted_profile("u", case_a([3, 4, 5]), 128, rng)
        service.store.save("u", profile)
        teeth = service.store.teeth("u", profile)
        draws = random.Random(service.config.seed)
        for _ in range(2):
            reply = service.dispatch(wire.AuthInit("u", 2))
            session = service.sessions.claim(reply.challenge.session_id)
            expected, state = carrier_challenge(profile, draws,
                                                sample_size=2, teeth=teeth)
            assert reply.challenge == expected
            assert (session.session_id, session.session_exponent) == \
                (state.session_id, state.session_exponent)

    def test_concurrent_sessions_draw_distinct_ids(self, service, kp128, rng):
        # Handler threads share the carrier's generator without a lock.
        pk = kp128[0]
        service.store.save("bob", smallest_profile(pk, rng))
        ids = []
        together = threading.Barrier(4)

        def init():
            with client.CarrierConnection(service.address) as conn:
                together.wait(10)
                for _ in range(25):
                    reply = conn.request(wire.AuthInit("bob", 1))
                    ids.append(reply.challenge.session_id)

        threads = [threading.Thread(target=init) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(set(ids)) == 100
        sessions = service.sessions._sessions
        assert set(sessions) == set(ids)
        bound = protocol.short_exponent_bound(pk.n)
        assert all(1 <= s.session_exponent < bound for s in sessions.values())

    def test_auth_init_unknown_user(self, service):
        with client.CarrierConnection(service.address) as conn:
            with pytest.raises(client.CarrierReplyError) as excinfo:
                conn.request(wire.AuthInit("ghost", 1))
            assert excinfo.value.code == wire.ERR_UNKNOWN_USER

    def test_record_with_blinded_values_modulo_n_squared_refused(
            self, enrolled, caplog):
        # A record stored before the blinded randomizers went modulo n holds
        # residues modulo n**2.  Loading it fails the range check, which
        # the carrier answers as a decode failure naming the range, not as
        # an internal error; its user enrolls again.
        service, _, _ = enrolled
        profile = service.store.load("alice")
        stored = encode_uints(profile.blinded_randomizers)
        wide = encode_uints(b + profile.public_key.n
                            for b in profile.blinded_randomizers)
        record = profile.to_bytes()
        assert record.count(stored) == 1
        service.store._path("alice").write_bytes(record.replace(stored, wide))
        with client.CarrierConnection(service.address) as conn:
            with pytest.raises(client.CarrierReplyError) as excinfo:
                conn.request(wire.AuthInit("alice", 3))
        assert excinfo.value.code == wire.ERR_DECODE
        assert "outside [1, n)" in excinfo.value.text
        assert not [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert service.sessions._sessions == {}

    def test_sample_size_outside_range_opens_no_session(self, enrolled,
                                                        caplog):
        # The declared size is what a Case A or C response is held to and
        # what decide divides by, so zero is refused before any session.
        # No response carries more than MAX_ENTRIES entries, so no larger
        # declaration can be met; nor may it reach a log line, where 5,000
        # digits pass Python's int-to-str limit.
        service, _, _ = enrolled
        with client.CarrierConnection(service.address) as conn:
            for size in (0, MAX_ENTRIES + 1, 10 ** 5000):
                with pytest.raises(client.CarrierReplyError) as excinfo:
                    conn.request(wire.AuthInit("alice", size))
                assert excinfo.value.code == wire.ERR_PROTOCOL
                assert service.sessions._sessions == {}
            reply = conn.request(wire.AuthInit("alice", 3))
            assert isinstance(reply, wire.Challenge)
        assert not [r for r in caplog.records if r.levelno >= logging.ERROR]

    def test_refused_declaration_draws_nothing(self, service, rng):
        # carrier_challenge refuses the size before it draws theta or the
        # session id, so a valid AuthInit after refused ones draws what it
        # would have drawn alone.  The record is loaded first, so an
        # unknown user is refused as unknown.
        profile, _ = build_encrypted_profile("u", case_a([3, 4, 5]), 128, rng)
        service.store.save("u", profile)
        for size in (0, MAX_ENTRIES + 1):
            assert service.dispatch(wire.AuthInit("ghost", size)).code == \
                wire.ERR_UNKNOWN_USER
            assert service.dispatch(wire.AuthInit("u", size)).code == \
                wire.ERR_PROTOCOL
        assert service.sessions._sessions == {}
        reply = service.dispatch(wire.AuthInit("u", 2))
        session = service.sessions.claim(reply.challenge.session_id)
        expected, state = carrier_challenge(
            profile, random.Random(service.config.seed), sample_size=2,
            teeth=service.store.teeth("u", profile))
        assert reply.challenge == expected
        assert (session.session_id, session.session_exponent,
                session.sample_size) == \
            (state.session_id, state.session_exponent, 2)

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
            entries = tuple(device_respond(secret, challenge, case_a([7]),
                                           rng))
            time.sleep(0.1)
            # A connection idle for the session timeout is closed, so the
            # late response comes over a new one.
            with client.CarrierConnection(service.address) as conn:
                with pytest.raises(client.CarrierReplyError) as excinfo:
                    conn.request(wire.Response(challenge.session_id, entries))
                assert excinfo.value.code == wire.ERR_SESSION

    def test_idle_connection_closed_after_session_timeout(self, tmp_path):
        config = CarrierConfig(store_root=tmp_path / "store", seed=1,
                               session_timeout=0.5)
        with CarrierService(config) as service:
            before = set(threading.enumerate())
            started = time.monotonic()
            with socket.create_connection(service.address, timeout=10) as idle:
                # The carrier's handler ends, so its end of the socket closes.
                assert idle.recv(1) == b""
            assert 0.4 < time.monotonic() - started < 5

            def handlers():
                return [t for t in threading.enumerate() if t not in before
                        and "process_request_thread" in t.name]
            deadline = time.monotonic() + 5
            while handlers() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert handlers() == []

    @pytest.mark.parametrize("timeout", [float("inf"), float("nan"), 0.0,
                                         -1.0, 1e10])
    def test_unusable_session_timeout_refused(self, tmp_path, timeout):
        # Each connection's socket takes the session timeout, and would
        # refuse these on every connection; the config refuses them first.
        with pytest.raises(ValueError, match="session timeout"):
            CarrierConfig(store_root=tmp_path / "store",
                          session_timeout=timeout)

    def test_malformed_payload_keeps_connection(self, enrolled):
        service, _, features = enrolled
        raw = socket.create_connection(service.address, timeout=5)
        stream = raw.makefile("rwb")
        # valid frame header, garbage StoreProfile payload
        stream.write(bytes([wire.PROTOCOL_VERSION, 0x01]) +
                     (4).to_bytes(4, "big") + b"\xff" * 4)
        stream.flush()
        reply = wire.read_frame(stream)
        assert isinstance(reply, wire.ErrorReply)
        assert reply.code == wire.ERR_DECODE
        wire.write_frame(stream, wire.AuthInit("alice", 1))
        follow_up = wire.read_frame(stream)
        assert isinstance(follow_up, wire.Challenge)
        stream.close()
        raw.close()

    def test_version_one_response_answered_with_decode_error(self, enrolled):
        # A version-0x01 frame, as sent before response entries became
        # (cipher, ratio) pairs, is refused before the session is touched.
        service, secret, _ = enrolled
        rng = random.Random(12)
        with socket.create_connection(service.address, timeout=5) as raw, \
                raw.makefile("rwb") as stream:
            wire.write_frame(stream, wire.AuthInit("alice", 2))
            challenge = wire.read_frame(stream).challenge
            entries = tuple(device_respond(secret, challenge,
                                           case_a([222, 999]), rng))
            frame = wire.encode_frame(wire.Response(challenge.session_id,
                                                    entries))
            stream.write(b"\x01" + frame[1:])
            stream.flush()
            reply = wire.read_frame(stream)
            assert isinstance(reply, wire.ErrorReply)
            assert reply.code == wire.ERR_DECODE
            stream.write(frame)
            stream.flush()
            assert wire.read_frame(stream).decision.match_count == 1

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

    def test_oversized_header_answered_once_then_closed(self, service):
        # A header over the frame limit leaves its payload unread, so the
        # bytes after it are not frames: ten more such headers draw no
        # reply of their own, and the carrier closes the connection.
        header = bytes([wire.PROTOCOL_VERSION, 0x05]) + \
            (0xFFFFFFFF).to_bytes(4, "big")
        with socket.create_connection(service.address, timeout=5) as raw, \
                raw.makefile("rwb") as stream:
            stream.write(header * 11)
            stream.flush()
            reply = wire.read_frame(stream)
            assert isinstance(reply, wire.ErrorReply)
            assert reply.code == wire.ERR_DECODE
            assert "exceeds the frame limit" in reply.text
            assert stream.read() == b""

    def test_one_challenge_stalls_no_other_user(self, service, monkeypatch):
        # User a's challenge is held mid-computation; user b's AuthInit must
        # still complete, so no lock may be held around the challenge.
        stall_one_user(service, monkeypatch, "carrier_challenge")

    def test_unexpected_message_answered_with_protocol_error(self, service):
        with client.CarrierConnection(service.address) as conn:
            with pytest.raises(client.CarrierReplyError) as excinfo:
                conn.request(wire.StoreAck())
            assert excinfo.value.code == wire.ERR_PROTOCOL

    def test_handlers_answer_exactly_the_wire_requests(self):
        assert set(CarrierService._HANDLERS) == set(wire.REPLIES)

    @pytest.mark.xfail(strict=True, raises=pytest.fail.Exception,
                       reason="StoreProfile needs no accepted session, so "
                       "any peer can replace a user's record")
    def test_peer_without_session_cannot_replace_record(self, enrolled, rng):
        service, secret, features = enrolled
        other, _ = build_encrypted_profile("alice", case_a([7, 8]), 128, rng)
        with pytest.raises(client.CarrierReplyError):
            client.store_profile(service.address, "alice", other)
        decision = client.authenticate(service.address, secret, features,
                                       rng=rng)
        assert decision.accepted


# Each message sent, a reply of the wrong type for it, and the type the
# client expects; a message that is not a request only earns an error.
WRONG_REPLIES = {
    "store-profile": (lambda profile: wire.StoreProfile("u", profile),
                      wire.AuthInit("u", 1), "StoreAck"),
    "auth-init": (lambda profile: wire.AuthInit("u", 1), wire.StoreAck(),
                  "Challenge"),
    "response": (lambda profile: wire.Response(
        b"sid", (protocol.AuthResponseEntry(2, 3),)), wire.StoreAck(),
        "Result"),
    "not-a-request": (lambda profile: wire.StoreAck(), wire.StoreAck(),
                      "ErrorReply"),
}


@pytest.mark.parametrize("name", sorted(WRONG_REPLIES))
def test_reply_of_the_wrong_type_refused(name, rng):
    # A peer that answers a request with any reply but the one
    # wire.REPLIES pairs with it makes the request raise DecodeError.
    make_request, wrong, expected = WRONG_REPLIES[name]
    request = make_request(build_encrypted_profile("u", case_a([1, 2]), 128,
                                                   rng)[0])

    def answer(listener):
        conn, _ = listener.accept()
        with conn, conn.makefile("rwb") as stream:
            wire.read_frame(stream)
            wire.write_frame(stream, wrong)

    with socket.create_server(("127.0.0.1", 0)) as listener:
        peer = threading.Thread(target=answer, args=(listener,))
        peer.start()
        try:
            with client.CarrierConnection(listener.getsockname()) as conn:
                with pytest.raises(wire.DecodeError,
                                   match=f"expected {expected}, got "
                                   f"{type(wrong).__name__}"):
                    conn.request(request)
        finally:
            peer.join(timeout=10)


def case_b(values):
    return FeatureSet.from_values(FeatureMode.CASE_B, values)


# (enrolled features, sample, similarity table, exception the call raises)
UNANSWERABLE = {
    "case-b-without-table": (case_b([2, 5, 9]), case_b([5]), None,
                             ValueError),
    "case-a-secret-case-c-sample": (case_a([111, 222]),
                                    encode_numeric((1, 2), 3), None,
                                    ModeMismatchError),
    "case-c-other-length": (encode_numeric((2, 1), 3),
                            encode_numeric((1, 1, 1), 3), None,
                            ModeMismatchError),
    "case-b-value-outside-table": (case_b([2, 5, 9]), case_b([5, 40]),
                                   SimilarityFunction.equality([2, 5, 9]),
                                   ValueError),
    "case-b-empty-support": (case_b([2, 5, 9]), case_b([5]),
                             SimilarityFunction({5: ()}, max_weight=1),
                             ProtocolError),
    "case-b-support-outside-domain": (
        case_b([2, 5, 9]), case_b([5]),
        SimilarityFunction({5: ((5, 1), (-1, 1))}, max_weight=1), ValueError),
}


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

    def test_restored_profile_scores_as_its_own(self, service, tmp_path):
        # The carrier keeps each challenged record's teeth; a profile
        # stored again under the same user id must still score as its own,
        # at its first challenge and from its stored teeth.
        rng = random.Random(57)
        sample = case_a([2, 3, 4, 5])
        outcomes = []
        for features in (case_a([1, 2, 3]), case_a([4, 6, 7, 8, 9])):
            secret = client.setup_device(service.address, "carol", features,
                                         tmp_path / "carol.secret", bits=128,
                                         rng=rng)
            matches = oracle_intersection(features.values, sample.values)
            for _ in range(2):
                decision = client.authenticate(service.address, secret,
                                               sample, rng=rng)
                assert decision.match_count == matches
                assert decision.accepted == \
                    (matches >= (features.size + 1) // 2)
            outcomes.append(decision.accepted)
        assert outcomes == [True, False]

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

    @pytest.mark.parametrize("name", sorted(UNANSWERABLE))
    def test_unanswerable_sample_opens_no_session(self, service, tmp_path,
                                                  name):
        # The device can refuse each of these samples on its own, so it
        # must do so before the carrier opens a session for it.
        features, sample, similarity, error = UNANSWERABLE[name]
        secret = client.setup_device(service.address, "erin", features,
                                     tmp_path / "erin.secret", bits=256,
                                     rng=random.Random(14))
        with pytest.raises(error) as excinfo:
            client.authenticate(service.address, secret, sample, similarity,
                                rng=random.Random(15))
        assert type(excinfo.value) is error
        assert service.sessions._sessions == {}

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

            challenge, session = carrier_challenge(
                profile, random.Random(1), sample_size=sample_set.size)
            entries = device_respond(secret, challenge, sample_set,
                                     random.Random(respond_seed))
            matches = carrier_score(session, entries)
            local_decision = decide(matches, session)
            assert wire_decision == local_decision

    def test_workers_forked_before_serving(self, tmp_path, fresh_pool):
        # start() forks every worker before its serving thread exists, so
        # no request forks them from a handler thread.
        config = CarrierConfig(store_root=tmp_path / "store", seed=7)
        with CarrierService(config):
            assert pool._pool is not None
            workers = list(pool._pool._processes.values())
            assert len(workers) == pool.usable_cpus()
            assert all(worker.is_alive() for worker in workers)

    def test_one_cpu_carrier_forks_no_pool(self, tmp_path, fresh_pool,
                                           one_cpu):
        config = CarrierConfig(store_root=tmp_path / "store", seed=7)
        with one_cpu(), CarrierService(config):
            assert pool._pool is None

    def test_pool_workers_keep_no_socket_open(self, tmp_path, fresh_pool):
        # The carrier forks the pool while it listens; after shutdown its
        # port must refuse connections.
        config = CarrierConfig(store_root=tmp_path / "store", seed=7)
        with CarrierService(config) as svc:
            address = svc.address
            secret = client.setup_device(address, "dora", case_a([1, 2, 3]),
                                         tmp_path / "dora.secret", bits=128,
                                         rng=random.Random(8))
            decision = client.authenticate(address, secret, case_a([2, 3, 4]),
                                           rng=random.Random(9))
            assert decision.match_count == 2
            assert pool._pool is not None
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(address, timeout=5).close()

    def test_shutdown_without_start_frees_the_port(self, tmp_path):
        # socketserver's own shutdown() waits for a serving loop, and one
        # that never ran would keep it waiting for ever.
        svc = CarrierService(CarrierConfig(store_root=tmp_path / "store"))
        address = svc.address
        stopper = threading.Thread(target=svc.shutdown, daemon=True)
        stopper.start()
        stopper.join(5)
        assert not stopper.is_alive()
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(address, timeout=5).close()

    def test_interrupted_start_frees_the_port(self, tmp_path, monkeypatch):
        # Ctrl-C in the pool's fork, before the serving loop runs.
        def interrupted():
            raise KeyboardInterrupt
        monkeypatch.setattr(pool, "fork_workers", interrupted)
        svc = CarrierService(CarrierConfig(store_root=tmp_path / "store"))
        with pytest.raises(KeyboardInterrupt):
            svc.start()
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(svc.address, timeout=5).close()
