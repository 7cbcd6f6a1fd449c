import contextlib
import dataclasses
import hashlib
import logging
import math
import os
import random
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from psiauth import (
    INFINITE,
    AuthResponseEntry,
    DeviceSecret,
    EncryptedProfile,
    FeatureMode,
    FeatureSet,
    ModeMismatchError,
    ProtocolError,
    SessionError,
    SimilarityFunction,
    build_encrypted_profile,
    carrier_challenge,
    carrier_score,
    decide,
    device_respond,
    device_respond_weighted,
    encode_numeric,
    hash_feature,
    keygen,
    oracle_intersection,
    oracle_l1,
    oracle_weighted,
)
from psiauth import pool, protocol
from psiauth.encoding import MAX_ENTRIES, encode_uint
from psiauth.paillier import draw_unit
from psiauth.protocol import SessionState, default_threshold, \
    short_exponent_bound

from helpers import distinct_values, kill_one_worker, overlap_instance, \
    smallest_profile


def case_a(values):
    return FeatureSet.from_values(FeatureMode.CASE_A, values)


def raw_entries(secret, challenge, values, rng):
    """Unshuffled entries from raw power products, one per value in order.

    Each randomizer is drawn as ``respond`` draws it, ``rho = t + n*k``
    with ``t`` a unit below ``n`` drawn first and then ``k`` below
    ``short_exponent_bound(n)``.  Each ratio is built the long way, as
    ``tag * correction**-1 mod n`` from the full-width powers
    ``tag = R'**(d * rho)`` and ``correction = B**rho`` modulo ``n**2``,
    where ``B`` is the blinded leg's raw power product.
    """
    n, n_squared = challenge.public_key.n, challenge.public_key.n_squared

    def raw_product(bases, x):
        acc = 1
        for i, base in enumerate(bases):
            acc = acc * pow(base, x ** i, n_squared) % n_squared
        return acc

    d = secret.secret_exponent
    entries = []
    for x in values:
        t = draw_unit(rng, n)
        rho = t + n * rng.randrange(short_exponent_bound(n))
        tag = pow(secret.anchor, d * rho, n_squared)
        correction = pow(raw_product(challenge.blinded_randomizers, x), rho,
                         n_squared)
        entries.append(AuthResponseEntry(
            pow(raw_product(challenge.powered_coeffs, x), d * rho, n_squared),
            tag * pow(correction, -1, n) % n))
    return entries


@pytest.fixture(scope="module")
def enrolled():
    rng = random.Random(0x5E55)
    profile, secret = build_encrypted_profile(
        "alice", case_a([101, 202, 303, 404, 505]), 128, rng)
    return profile, secret


class TestCarrierChallenge:
    def test_sizes(self, enrolled, rng):
        profile, _ = enrolled
        challenge, _ = carrier_challenge(profile, rng, sample_size=1)
        assert len(challenge.powered_coeffs) == profile.size + 1
        assert len(challenge.blinded_randomizers) == profile.size + 1
        assert challenge.blinded_randomizers == profile.blinded_randomizers

    def test_identity_exponent_hook(self, enrolled, rng):
        profile, _ = enrolled
        challenge, session = carrier_challenge(profile, rng, sample_size=1,
                                               session_exponent=1)
        assert challenge.powered_coeffs == profile.enc_coeffs
        assert session.session_exponent == 1

    def test_fresh_exponents_across_sessions(self, enrolled, rng):
        profile, _ = enrolled
        exponents = set()
        coeff_views = set()
        for _ in range(20):
            challenge, session = carrier_challenge(profile, rng,
                                                   sample_size=1)
            exponents.add(session.session_exponent)
            coeff_views.add(challenge.powered_coeffs)
        assert len(exponents) == 20
        assert len(coeff_views) == 20

    def test_exponent_range_checked(self, kp128, kp512, rng):
        # Below 2**256 the bound is n; from there on it is 2**256.
        for (pk, _), bound in ((kp128, kp128[0].n), (kp512, 1 << 256)):
            assert short_exponent_bound(pk.n) == bound
            profile = smallest_profile(pk, rng)
            for theta in (0, bound):
                with pytest.raises(ValueError, match="session exponent"):
                    carrier_challenge(profile, rng, sample_size=1,
                                      session_exponent=theta)
            challenge, _ = carrier_challenge(profile, rng, sample_size=1,
                                             session_exponent=bound - 1)
            assert challenge.powered_coeffs == tuple(
                pow(c, bound - 1, pk.n_squared) for c in profile.enc_coeffs)

    def test_bound_is_n_below_2_to_the_256(self):
        for n in (15, (1 << 255) + 1, (1 << 256) - 1):
            assert short_exponent_bound(n) == n
        for n in ((1 << 256) + 1, (1 << 1024) - 1):
            assert short_exponent_bound(n) == 1 << 256

    def test_drawn_exponents_have_at_most_256_bits(self, kp1024, rng):
        pk = kp1024[0]
        profile = smallest_profile(pk, rng)
        teeth = protocol.challenge_teeth(profile)
        lengths = []
        for _ in range(200):
            challenge, session = carrier_challenge(profile, rng,
                                                   sample_size=1, teeth=teeth)
            theta = session.session_exponent
            assert challenge.powered_coeffs == tuple(
                pow(c, theta, pk.n_squared) for c in profile.enc_coeffs)
            lengths.append(theta.bit_length())
        # Uniform below 2**256: all 200 below 2**255 has probability 2**-200.
        assert max(lengths) == 256


class TestChallengeComb:
    """The comb over a coefficient's teeth computes the plain power."""

    @settings(max_examples=60, deadline=None)
    @given(bits=st.integers(min_value=16, max_value=512),
           seed=st.integers(min_value=0, max_value=2 ** 32),
           base=st.sampled_from(["1", "n**2-1", "unit", "0", "p*k"]),
           theta=st.sampled_from(["1", "2**w", "bound-1", "random"]))
    @example(bits=16, seed=0, base="unit", theta="bound-1")
    @example(bits=18, seed=1, base="n**2-1", theta="2**w")
    @example(bits=256, seed=4, base="unit", theta="bound-1")
    @example(bits=257, seed=5, base="unit", theta="bound-1")
    @example(bits=511, seed=2, base="unit", theta="random")
    @example(bits=512, seed=3, base="unit", theta="bound-1")
    def test_miss_and_hit_equal_plain_pow(self, bits, seed, base, theta):
        rng = random.Random(seed)
        pk, sk = keygen(bits, rng)
        n, n_squared = pk.n, pk.n_squared
        bound = short_exponent_bound(n)
        width = protocol._comb_width(n)
        assert protocol._TEETH * width >= (bound - 1).bit_length()
        # The teeth are squared to in base-n digit pairs; a non-unit base
        # (0, or a multiple of p) must come out the same.
        base = {"1": 1, "n**2-1": n_squared - 1,
                "unit": draw_unit(rng, n_squared), "0": 0,
                "p*k": sk.p * rng.randrange(1, sk.q * n)}[base]
        theta = {"1": 1, "2**w": 1 << width, "bound-1": bound - 1,
                 "random": rng.randrange(1, bound)}[theta]
        # The smallest valid record: the base beside a random unit.
        coeffs = (base, draw_unit(rng, n_squared))
        profile = EncryptedProfile(pk, coeffs, (1, 1), 1, FeatureMode.CASE_A)
        teeth = protocol.challenge_teeth(profile)
        assert teeth == tuple(pow(c, 1 << (j * width), n_squared)
                              for c in coeffs
                              for j in range(1, protocol._TEETH))
        # Over the given teeth, and over teeth the challenge computes.
        for given_teeth in (teeth, None):
            challenge, _ = carrier_challenge(profile, rng, sample_size=1,
                                             teeth=given_teeth,
                                             session_exponent=theta)
            assert challenge.powered_coeffs == tuple(
                pow(c, theta, n_squared) for c in coeffs)

    def test_teeth_that_do_not_fit_refused(self, enrolled, rng):
        profile, _ = enrolled
        teeth = protocol.challenge_teeth(profile)
        for wrong in (teeth[:-1], teeth + (1,)):
            with pytest.raises(ValueError):
                carrier_challenge(profile, rng, sample_size=1, teeth=wrong)


class TestDeviceRespond:
    def test_entry_count_matches_sample(self, enrolled, rng):
        profile, secret = enrolled
        sample = case_a([11, 22, 33, 44, 55])
        challenge, _ = carrier_challenge(profile, rng, sample_size=sample.size)
        assert len(device_respond(secret, challenge, sample, rng)) == 5

    def test_mode_mismatch_rejected(self, enrolled, rng):
        profile, secret = enrolled
        sample = encode_numeric((1, 2), 3)
        challenge, _ = carrier_challenge(profile, rng, sample_size=sample.size)
        with pytest.raises(ModeMismatchError):
            device_respond(secret, challenge, sample, rng)

    def test_case_c_parameter_mismatch_rejected(self, rng):
        profile, secret = build_encrypted_profile(
            "u", encode_numeric((2, 1, 2), 4), 128, rng)
        challenge, _ = carrier_challenge(profile, rng, sample_size=2)
        with pytest.raises(ModeMismatchError, match="numeric parameters"):
            device_respond(secret, challenge, encode_numeric((2, 1), 4), rng)
        with pytest.raises(ModeMismatchError, match="numeric parameters"):
            device_respond(secret, challenge, encode_numeric((2, 1, 2), 5), rng)

    def test_output_is_shuffled(self, enrolled):
        # Randomizers are drawn per value in ascending order before the
        # shuffle, so an unshuffled response can be reconstructed from the
        # same seed and compared.
        profile, secret = enrolled
        sample = case_a([7, 14, 21, 28, 35])
        identity_count = 0
        for seed in range(100):
            challenge, _ = carrier_challenge(profile, random.Random(seed),
                                             sample_size=sample.size)
            rng = random.Random(seed * 1009 + 1)
            entries = device_respond(secret, challenge, sample, rng)
            expected = raw_entries(secret, challenge, sample.values,
                                   random.Random(seed * 1009 + 1))
            assert set(entries) == set(expected)
            if entries == expected:
                identity_count += 1
        assert identity_count <= 5  # expectation is 100/120

    def test_randomizers_are_a_unit_plus_a_short_multiple_of_n(
            self, kp1024, rng, monkeypatch):
        # respond hands _response_entry one job (value, rho) per value, in
        # value order; rho = t + n*k with t a unit below n and k below the
        # bound theta is drawn from.
        pk = kp1024[0]
        n, bound = pk.n, short_exponent_bound(pk.n)
        challenge, _ = carrier_challenge(smallest_profile(pk, rng), rng,
                                         sample_size=200, session_exponent=1)
        secret = DeviceSecret("u", rng.randrange(1, n),
                              draw_unit(rng, pk.n_squared),
                              FeatureMode.CASE_A)
        captured = []

        def in_pool(job, context, items):
            assert job is protocol._response_entry
            captured.extend(items)
            return list(items)

        monkeypatch.setattr(protocol, "_in_pool", in_pool)
        values = list(range(1, 201))
        protocol.respond(secret, challenge, values, rng)
        assert [value for value, _ in captured] == values
        ks = []
        for _, rho in captured:
            assert math.gcd(rho % n, n) == 1
            assert rho < n * bound
            ks.append(rho // n)
        # Uniform below 2**256: all 200 below 2**255 has probability 2**-200.
        assert max(ks).bit_length() == (bound - 1).bit_length() == 256

    @pytest.mark.parametrize("cpus", [1, None])
    def test_non_unit_challenge_raises_protocol_error(self, rng, cpus,
                                                       fresh_pool, one_cpu):
        # Blinded randomizers that are multiples of p, inside [1, n), make
        # the ratio leg evaluate to a multiple of p modulo n, which has no
        # inverse.  One CPU builds the entries in-process, None leaves them
        # to the pool.
        profile, secret, audit = build_encrypted_profile(
            "alice", case_a([101, 202, 303]), 128, rng,
            keep_setup_audit=True)
        challenge, _ = carrier_challenge(profile, rng, sample_size=3)
        crafted = dataclasses.replace(
            challenge, blinded_randomizers=(audit.secret_key.p,) *
            len(challenge.blinded_randomizers))
        with one_cpu() if cpus == 1 else contextlib.nullcontext():
            with pytest.raises(ProtocolError, match="non-unit"):
                device_respond(secret, crafted, case_a([11, 22, 33]), rng)

    def test_challenge_refuses_blinded_values_outside_range(self, enrolled,
                                                            rng):
        # One encoding per value: a blinded randomizer lies in [1, n), so
        # n itself, which the device would read as 0, never reaches it.
        profile, _ = enrolled
        challenge, _ = carrier_challenge(profile, rng, sample_size=1)
        legs = len(challenge.blinded_randomizers)
        for value in (0, profile.public_key.n):
            with pytest.raises(ValueError, match=r"outside \[1, n\)"):
                dataclasses.replace(challenge,
                                    blinded_randomizers=(value,) * legs)

    @pytest.mark.parametrize("mode", ["case-a", "case-b", "case-c"])
    def test_workers_do_not_change_the_response(self, mode, fresh_pool,
                                                 one_cpu):
        features, sample, sim = POOL_RUNS[mode]

        def respond():
            challenge, _ = carrier_challenge(profile, random.Random(1),
                                             sample_size=sample.size)
            if sim is not None:
                return device_respond_weighted(secret, challenge, sample, sim,
                                               random.Random(2))
            return device_respond(secret, challenge, sample, random.Random(2))

        with one_cpu():
            profile, secret = build_encrypted_profile("u", features, 128,
                                                      random.Random(3))
            serial = respond()
        assert pool._pool is None  # one CPU ran everything in-process
        assert respond() == serial
        assert pool._pool is not None


TENT = SimilarityFunction.from_entries(
    [(y, z, 2 - abs(z - y)) for y in range(1, 13)
     for z in range(max(1, y - 1), min(12, y + 1) + 1)], max_weight=2)

POOL_RUNS = {
    "case-a": (case_a([5, 10, 15, 20, 25]), case_a([5, 7, 15, 21, 25]), None),
    "case-b": (FeatureSet.from_values(FeatureMode.CASE_B, [2, 5, 9]),
               FeatureSet.from_values(FeatureMode.CASE_B, [4, 9]), TENT),
    "case-c": (encode_numeric((3, 0, 5, 2), 5),
               encode_numeric((2, 1, 5, 0), 5), None),
}


def cost_by_item(base: int, item: int) -> tuple[int, int]:
    """A pure job whose cost grows with ``item``."""
    return item, pow(base, 1 << (item * 4000), (1 << 521) - 1)


class TestWorkerPool:
    """The pool computes exactly what the in-process path computes."""

    @pytest.mark.parametrize("workers", [2, 3])
    def test_results_come_back_in_item_order(self, fresh_pool, monkeypatch,
                                             workers):
        # Worker k runs items[k::workers]; every result must land back at
        # its own item's place, for every item count up to 9.
        monkeypatch.setattr(pool, "usable_cpus", lambda: workers)
        try:
            for count in range(10):
                items = list(range(count, 0, -1))
                expected = [cost_by_item(3, item) for item in items]
                assert pool._in_pool(cost_by_item, 3, items) == expected
            assert len(pool._pool._processes) == workers
        finally:
            if pool._pool is not None:
                pool._drop_pool(pool._pool)

    @pytest.fixture
    def enrolled_a(self):
        features, sample, _ = POOL_RUNS["case-a"]
        profile, secret = build_encrypted_profile("u", features, 128,
                                                  random.Random(4))
        return profile, secret, features, sample

    def in_process_score(self, one_cpu, profile, theta, entries):
        with one_cpu():
            session = SessionState(b"ref", theta, profile, 0.0, len(entries))
            return carrier_score(session, entries)

    def test_challenge_powers_equal_plain_pow(self, enrolled_a, fresh_pool,
                                              one_cpu):
        profile = enrolled_a[0]
        n_squared = profile.public_key.n_squared
        width = protocol._comb_width(profile.public_key.n)
        theta = random.Random(5).randrange(1, profile.public_key.n)
        expected = tuple(pow(c, theta, n_squared) for c in profile.enc_coeffs)
        expected_teeth = tuple(pow(c, 1 << (j * width), n_squared)
                               for c in profile.enc_coeffs
                               for j in range(1, protocol._TEETH))

        def powers(teeth=None):
            challenge, _ = carrier_challenge(profile, sample_size=1,
                                             teeth=teeth,
                                             session_exponent=theta)
            return challenge.powered_coeffs

        teeth = protocol.challenge_teeth(profile)
        assert pool._pool is not None
        assert teeth == expected_teeth  # the workers compute the teeth
        assert powers(teeth) == expected
        assert powers() == expected  # teeth and comb on the pool
        with one_cpu():
            assert protocol.challenge_teeth(profile) == expected_teeth
            assert powers(teeth) == expected
            assert powers() == expected  # both in-process
        kill_one_worker(pool._pool)
        assert powers(teeth) == expected  # comb finished in-process
        assert pool._pool is None
        assert powers() == expected  # both on a new pool
        kill_one_worker(pool._pool)
        # Teeth finished in-process, then the comb on a new pool.
        assert powers() == expected
        kill_one_worker(pool._pool)
        assert protocol.challenge_teeth(profile) == expected_teeth
        assert pool._pool is None

    def test_rebuild_logged_without_the_context(self, enrolled_a, fresh_pool,
                                                caplog):
        profile = enrolled_a[0]
        theta = random.Random(14).randrange(1, profile.public_key.n)
        teeth = protocol.challenge_teeth(profile)
        kill_one_worker(pool._pool)
        with caplog.at_level(logging.WARNING, logger="psiauth.pool"):
            carrier_challenge(profile, sample_size=1, teeth=teeth,
                              session_exponent=theta)
        record, = caplog.records
        assert record.levelno == logging.WARNING
        assert record.getMessage() == (
            f"worker pool of {pool.usable_cpus()} processes broke in "
            f"_comb_power; finishing in-process, the next call forks a "
            f"new pool")
        for secret in (theta, profile.public_key.n_squared,
                       *profile.enc_coeffs, *teeth):
            assert str(secret) not in caplog.text

    def test_score_equals_in_process_count(self, enrolled_a, fresh_pool,
                                           one_cpu):
        profile, secret, features, sample = enrolled_a
        challenge, session = carrier_challenge(profile, random.Random(6),
                                               sample_size=sample.size)
        entries = device_respond(secret, challenge, sample, random.Random(7))
        assert len(entries) > 2
        expected = oracle_intersection(features.values, sample.values)
        assert carrier_score(session, entries) == expected == \
            self.in_process_score(one_cpu, profile,
                                  session.session_exponent, entries)

    def test_repeated_class_in_last_entry_still_refused(self, enrolled_a,
                                                        fresh_pool):
        profile, secret, _, sample = enrolled_a
        challenge, session = carrier_challenge(profile, random.Random(8),
                                               sample_size=sample.size + 1)
        entries = device_respond(secret, challenge, sample, random.Random(9))
        first = entries[0]
        pk = profile.public_key
        variant = AuthResponseEntry(pk.n_squared - first.cipher,
                                    pk.n - first.ratio)
        with pytest.raises(ProtocolError,
                           match="response repeats a ratio class"):
            carrier_score(session, entries + [variant])
        assert session.consumed

    def test_dead_worker_costs_no_result(self, enrolled_a, fresh_pool,
                                         one_cpu):
        profile, secret, features, sample = enrolled_a
        challenge, _ = carrier_challenge(profile, random.Random(10),
                                         sample_size=sample.size)
        with one_cpu():
            serial = device_respond(secret, challenge, sample,
                                    random.Random(11))
        dead = pool._pool
        kill_one_worker(dead)
        # This call finishes in-process; the next one forks a new pool.
        assert device_respond(secret, challenge, sample,
                              random.Random(11)) == serial
        assert pool._pool is None
        theta = 0x5EED
        challenge, session = carrier_challenge(profile,
                                               sample_size=sample.size,
                                               session_exponent=theta)
        assert pool._pool not in (None, dead)
        entries = device_respond(secret, challenge, sample, random.Random(12))
        expected = oracle_intersection(features.values, sample.values)
        assert carrier_score(session, entries) == expected == \
            self.in_process_score(one_cpu, profile, theta, entries)

    def test_script_without_main_guard(self, tmp_path):
        # A forkserver or spawn pool re-runs such a script in every worker.
        script = tmp_path / "no_guard.py"
        script.write_text(
            "import random\n"
            "from psiauth import *\n"
            "rng = random.Random(13)\n"
            "features = FeatureSet.from_values(FeatureMode.CASE_A, "
            "[3, 5, 8, 13])\n"
            "profile, secret = build_encrypted_profile('u', features, 512, "
            "rng)\n"
            "sample = FeatureSet.from_values(FeatureMode.CASE_A, "
            "[5, 13, 21])\n"
            "challenge, session = carrier_challenge(profile, rng, "
            "sample_size=sample.size)\n"
            "entries = device_respond(secret, challenge, sample, rng)\n"
            "print(carrier_score(session, entries))\n")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(pool.__file__).parents[1]))
        done = subprocess.run([sys.executable, str(script)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == \
            f"{oracle_intersection([3, 5, 8, 13], [5, 13, 21])}\n"

    def test_workers_exit_when_their_parent_is_killed(self):
        # A parent killed without its exit handlers must not leave its
        # workers running: they hold its stdout, so a reader waiting for
        # EOF would hang.  So this reads one line and never waits for EOF.
        if not os.path.isdir("/proc/self"):
            pytest.skip("needs /proc to tell a zombie from a live process")
        script = ("import os, signal\n"
                  "from psiauth import pool\n"
                  "pool.usable_cpus = lambda: 2\n"
                  "executor = pool._get_pool()\n"
                  "executor.submit(os.getpid).result()\n"
                  "print(*executor._processes, flush=True)\n"
                  "os.kill(os.getpid(), signal.SIGKILL)\n")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(pool.__file__).parents[1]))
        with subprocess.Popen([sys.executable, "-c", script], env=env,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True) as proc:
            workers = []
            try:
                workers = [int(pid) for pid in proc.stdout.readline().split()]
                assert len(workers) == 2
                assert proc.wait(timeout=30) == -signal.SIGKILL
                deadline = time.monotonic() + 30
                while any(map(running, workers)) and \
                        time.monotonic() < deadline:
                    time.sleep(0.05)
                assert not any(map(running, workers))
            finally:
                for pid in filter(running, workers):
                    os.kill(pid, signal.SIGKILL)
                proc.kill()


def running(pid):
    """Whether ``pid`` names a process that has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rpartition(")")[2].split()[0] not in "ZX"
    except FileNotFoundError:
        return False


def hashed(mode, labels):
    return FeatureSet.from_values(
        mode, [hash_feature(label.encode()) for label in labels])


class TestHornerEvaluation:
    """The device evaluates by Horner's rule with raw 128-bit features.

    With a 512-bit key and six features, ``x**i`` exceeds ``n`` well before
    the top coefficient, so these cases exercise exponents that are never
    reduced modulo ``n``.
    """

    PROFILE = [f"tower-{i}" for i in range(6)]
    SAMPLE = ["tower-1", "tower-4", "app-x", "app-y"]

    def test_entries_equal_the_raw_power_product(self):
        features = hashed(FeatureMode.CASE_A, self.PROFILE)
        profile, secret = build_encrypted_profile("u", features, 512,
                                                  random.Random(21))
        n = profile.public_key.n
        sample = hashed(FeatureMode.CASE_A, self.SAMPLE)
        assert min(sample.values) ** profile.size > n
        challenge, session = carrier_challenge(profile, random.Random(22),
                                               sample_size=sample.size)
        entries = device_respond(secret, challenge, sample, random.Random(23))
        replay = random.Random(23)
        expected = raw_entries(secret, challenge, sample.values, replay)
        replay.shuffle(expected)
        assert entries == expected
        assert carrier_score(session, entries) == \
            oracle_intersection(features.values, sample.values) == 2

    def test_gaussian_solver_counts_equal_oracle(self):
        rng = random.Random(24)
        features = hashed(FeatureMode.CASE_A, self.PROFILE)
        profile, secret = build_encrypted_profile("u", features, 512, rng,
                                                  solver="gaussian")
        for labels in (self.SAMPLE, self.PROFILE, ["app-x"]):
            sample = hashed(FeatureMode.CASE_A, labels)
            challenge, session = carrier_challenge(profile, rng,
                                                   sample_size=sample.size)
            entries = device_respond(secret, challenge, sample, rng)
            assert carrier_score(session, entries) == \
                oracle_intersection(features.values, sample.values)

    def test_case_c_counts_equal_oracle(self):
        rng = random.Random(25)
        u = (3, 0, 5, 2)
        features = encode_numeric(u, 5)
        profile, secret = build_encrypted_profile("u", features, 512, rng)
        for v in (u, (2, 1, 5, 0), (0, 5, 0, 5)):
            sample = encode_numeric(v, 5)
            challenge, session = carrier_challenge(profile, rng,
                                                   sample_size=sample.size)
            entries = device_respond(secret, challenge, sample, rng)
            matches = carrier_score(session, entries)
            assert matches == oracle_intersection(features.values,
                                                  sample.values)
            decision = decide(matches, session)
            assert decision.dissimilarity == oracle_l1(u, v)


class TestSplitScoringPower:
    """The carrier splits the n*theta power of the ratio."""

    @pytest.fixture(scope="class")
    def profile(self):
        return build_encrypted_profile("u", case_a([3, 9]), 512,
                                       random.Random(42))[0]

    def score(self, profile, theta, entry):
        return carrier_score(SessionState(b"s", theta, profile, 0.0, 1),
                             [entry])

    @settings(max_examples=30, deadline=None)
    @given(raw_tag=st.integers(min_value=0),
           raw_correction=st.integers(min_value=0),
           raw_theta=st.one_of(st.sampled_from([1, -1]), st.integers()))
    def test_equals_the_full_width_power(self, profile, raw_tag,
                                         raw_correction, raw_theta):
        # The expected cipher is the full-width power of the unreduced
        # quotient tag * correction**-1 modulo n**2; the entry carries only
        # the quotient's residue modulo n.
        n, n_squared = profile.public_key.n, profile.public_key.n_squared
        theta = raw_theta % n or 1  # -1 stands for n - 1
        tag, correction = raw_tag % n_squared, raw_correction % n_squared
        assume(math.gcd(tag * correction, n) == 1)
        expected = pow(tag * pow(correction, -1, n_squared), n * theta,
                       n_squared)
        assume(expected not in (1, n_squared - 1))
        ratio = tag * pow(correction, -1, n) % n
        assert self.score(profile, theta,
                          AuthResponseEntry(expected, ratio)) == 1
        # Same residue modulo n, different modulo n**2: no match.
        off = expected * (1 + n) % n_squared
        assert self.score(profile, theta, AuthResponseEntry(off, ratio)) == 0


class TestCarrierScore:
    def score_of(self, profile, secret, sample_values, seed=0):
        rng = random.Random(seed)
        sample = case_a(sample_values)
        challenge, session = carrier_challenge(profile, rng,
                                               sample_size=sample.size)
        entries = device_respond(secret, challenge, sample, rng)
        return carrier_score(session, entries)

    def test_partial_overlap(self, enrolled):
        profile, secret = enrolled
        assert self.score_of(profile, secret, [202, 303, 999]) == 2

    def test_textbook_instance(self, rng):
        profile, secret = build_encrypted_profile("u", case_a([1, 2, 3]),
                                                  128, rng)
        challenge, session = carrier_challenge(profile, rng, sample_size=3)
        entries = device_respond(secret, challenge, case_a([2, 3, 4]), rng)
        assert carrier_score(session, entries) == 2

    def test_full_overlap(self, enrolled):
        profile, secret = enrolled
        assert self.score_of(profile, secret,
                             [101, 202, 303, 404, 505]) == profile.size

    def test_disjoint_sample(self, enrolled):
        profile, secret = enrolled
        assert self.score_of(profile, secret, [9, 99, 999]) == 0

    def test_random_instances_match_oracle(self):
        rng = random.Random(0xD1CE)
        for _ in range(10):
            profile_set, sample_set, _ = overlap_instance(
                rng, rng.randint(1, 8), rng.randint(1, 8), 32)
            profile, secret = build_encrypted_profile(
                "u", profile_set, 128, rng)
            challenge, session = carrier_challenge(
                profile, rng, sample_size=sample_set.size)
            entries = device_respond(secret, challenge, sample_set, rng)
            expected = oracle_intersection(profile_set.values,
                                           sample_set.values)
            assert carrier_score(session, entries) == expected

    @pytest.mark.parametrize("delta", [1, -1], ids=["one-more", "one-fewer"])
    @pytest.mark.parametrize("mode", ["case-a", "case-c"])
    def test_entry_count_other_than_declared_refused(self, rng, mode, delta):
        # A Case A or C response is held to the size its session was opened
        # for, and the refused response still burns the session.
        features, sample, _ = POOL_RUNS[mode]
        profile, secret = build_encrypted_profile("u", features, 128, rng)
        challenge, session = carrier_challenge(
            profile, rng, sample_size=sample.size + delta)
        entries = device_respond(secret, challenge, sample, rng)
        with pytest.raises(ProtocolError, match="declared"):
            carrier_score(session, entries)
        assert session.consumed

    def test_size_outside_range_refused_before_any_draw(self, enrolled, rng):
        profile, _ = enrolled
        state = rng.getstate()
        for size in (0, MAX_ENTRIES + 1, 10 ** 5000):
            with pytest.raises(ProtocolError, match="declared sample size"):
                carrier_challenge(profile, rng, sample_size=size)
        assert rng.getstate() == state

    def test_session_single_use(self, enrolled, rng):
        profile, secret = enrolled
        challenge, session = carrier_challenge(profile, rng, sample_size=1)
        entries = device_respond(secret, challenge, case_a([101]), rng)
        carrier_score(session, entries)
        with pytest.raises(SessionError):
            carrier_score(session, entries)

    def test_empty_response_rejected(self, enrolled, rng):
        profile, _ = enrolled
        _, session = carrier_challenge(profile, rng, sample_size=1)
        with pytest.raises(ProtocolError):
            carrier_score(session, [])

    def test_non_unit_entry_rejected(self, enrolled, rng):
        profile, _ = enrolled
        _, session = carrier_challenge(profile, rng, sample_size=1)
        bad = AuthResponseEntry(profile.public_key.n, 1)
        with pytest.raises(ProtocolError, match="unit"):
            carrier_score(session, [bad])

    def test_score_is_shuffle_invariant(self, enrolled, rng):
        profile, secret = enrolled
        theta = 12345
        challenge, session = carrier_challenge(profile, rng, sample_size=4,
                                               session_exponent=theta)
        entries = device_respond(secret, challenge,
                                 case_a([101, 202, 7, 8]), rng)
        first = carrier_score(session, entries)
        _, replay_session = carrier_challenge(profile, rng, sample_size=4,
                                              session_exponent=theta)
        reordered = list(reversed(entries))
        assert carrier_score(replay_session, reordered) == first

    def test_score_deterministic_across_fresh_sessions(self, enrolled):
        # Same profile and sample: every transmitted value differs between
        # runs, the count never does.
        profile, secret = enrolled
        sample = [101, 202, 42]
        transcripts = set()
        scores = set()
        for seed in (11, 12):
            rng = random.Random(seed)
            challenge, session = carrier_challenge(profile, rng,
                                                   sample_size=len(sample))
            entries = device_respond(secret, challenge, case_a(sample), rng)
            transcripts.add(tuple(e.cipher for e in entries))
            scores.add(carrier_score(session, entries))
        assert scores == {2}
        assert len(transcripts) == 2


class TestWeightedResponses:
    def tent_kernel(self, lo, hi):
        entries = []
        for y in range(lo, hi + 1):
            for z in range(max(lo, y - 1), min(hi, y + 1) + 1):
                weight = 2 - abs(z - y)
                if weight >= 1:
                    entries.append((y, z, weight))
        return SimilarityFunction.from_entries(entries, max_weight=2)

    def test_tent_kernel_entry_count(self, rng):
        sim = self.tent_kernel(1, 10)
        features = FeatureSet.from_values(FeatureMode.CASE_B, [4, 6])
        profile, secret = build_encrypted_profile("u", features, 128, rng)
        sample = FeatureSet.from_values(FeatureMode.CASE_B, [5])
        challenge, _ = carrier_challenge(profile, rng, sample_size=sample.size)
        entries = device_respond_weighted(secret, challenge, sample, sim, rng)
        assert len(entries) == 4  # weights around 5: 1 + 2 + 1
        assert protocol.response_values(secret, sample, sim) == [4, 5, 5, 6]

    def test_equality_kernel_gives_case_a_response_values(self, rng):
        values = [10, 20, 30, 40]
        _, secret_a = build_encrypted_profile("u", case_a(values), 128, rng)
        _, secret_b = build_encrypted_profile(
            "u", FeatureSet.from_values(FeatureMode.CASE_B, values), 128, rng)
        sample_values = [20, 40, 50]
        assert protocol.response_values(secret_a, case_a(sample_values)) == \
            protocol.response_values(
                secret_b,
                FeatureSet.from_values(FeatureMode.CASE_B, sample_values),
                SimilarityFunction.equality(sample_values)) == sample_values

    def test_equality_kernel_reduces_to_plain_protocol(self, rng):
        values = [10, 20, 30, 40]
        sample_values = [20, 40, 50]
        profile_a, secret_a = build_encrypted_profile(
            "u", case_a(values), 128, rng)
        challenge_a, session_a = carrier_challenge(
            profile_a, rng, sample_size=len(sample_values))
        plain = device_respond(secret_a, challenge_a,
                               case_a(sample_values), rng)

        features_b = FeatureSet.from_values(FeatureMode.CASE_B, values)
        profile_b, secret_b = build_encrypted_profile(
            "u", features_b, 128, rng)
        challenge_b, session_b = carrier_challenge(
            profile_b, rng, sample_size=len(sample_values))
        sim = SimilarityFunction.equality(sample_values)
        weighted = device_respond_weighted(
            secret_b, challenge_b,
            FeatureSet.from_values(FeatureMode.CASE_B, sample_values),
            sim, rng)

        assert len(weighted) == len(plain)
        assert carrier_score(session_b, weighted) == \
            carrier_score(session_a, plain) == 2

    def test_match_total_equals_double_similarity_sum(self):
        rng = random.Random(0xCAB)
        for _ in range(5):
            universe = distinct_values(rng, 12, 10)
            profile_values = rng.sample(universe, 4)
            sample_values = rng.sample(universe, 3)
            entries = []
            for y in sample_values:
                for z in rng.sample(universe, rng.randint(1, 4)):
                    entries.append((y, z, rng.randint(1, 3)))
            sim = SimilarityFunction.from_entries(entries, max_weight=3)
            features = FeatureSet.from_values(FeatureMode.CASE_B,
                                              profile_values)
            profile, secret = build_encrypted_profile("u", features, 128, rng)
            sample = FeatureSet.from_values(FeatureMode.CASE_B, sample_values)
            challenge, session = carrier_challenge(profile, rng,
                                                   sample_size=sample.size)
            response = device_respond_weighted(secret, challenge, sample,
                                               sim, rng)
            expected = oracle_weighted(profile_values, sample_values, sim)
            assert carrier_score(session, response) == expected

    def test_uncovered_sample_rejected(self, rng):
        features = FeatureSet.from_values(FeatureMode.CASE_B, [1, 2])
        profile, secret = build_encrypted_profile("u", features, 128, rng)
        sample = FeatureSet.from_values(FeatureMode.CASE_B, [9])
        challenge, _ = carrier_challenge(profile, rng, sample_size=sample.size)
        sim = SimilarityFunction.equality([1, 2])
        with pytest.raises(ValueError, match="cover"):
            device_respond_weighted(secret, challenge, sample, sim, rng)


def opened(profile, sample_size):
    """A session on ``profile`` opened for a declared ``sample_size``."""
    return SessionState(b"s", 1, profile, 0.0, sample_size)


class TestDecide:
    def make_profile(self, rng, mode=FeatureMode.CASE_A, **kwargs):
        if mode is FeatureMode.CASE_C:
            features = encode_numeric((2, 0, 3), 3)
        else:
            features = FeatureSet.from_values(mode, [1, 2, 3, 4, 5])
        return build_encrypted_profile("u", features, 128, rng, **kwargs)[0]

    def test_zero_matches_is_infinitely_dissimilar(self, rng):
        profile = self.make_profile(rng)
        decision = decide(0, opened(profile, sample_size=4))
        assert decision.dissimilarity == INFINITE
        assert not decision.accepted

    def test_boundary_acceptance(self, rng):
        profile = dataclasses.replace(self.make_profile(rng), threshold=2)
        decision = decide(2, opened(profile, sample_size=4))
        assert decision.accepted
        assert decision.dissimilarity == Fraction(1, 2)

    def test_default_threshold_is_majority(self, rng):
        # A majority of the five enrolled features, ceil(5/2) = 3, whatever
        # the entry count.
        profile = self.make_profile(rng)
        for sample_size in (1, 4, 9):
            assert decide(3, opened(profile, sample_size)).accepted
            assert not decide(2, opened(profile, sample_size)).accepted

    def test_stored_threshold_used(self, rng):
        profile = self.make_profile(rng, threshold=1)
        assert decide(1, opened(profile, sample_size=4)).accepted

    def test_case_c_distance_identity(self, rng):
        profile = self.make_profile(rng, mode=FeatureMode.CASE_C)
        # U=(2,0,3), V=(1,1,3): |X|=5, |Y|=5, matches=4, L1=2
        decision = decide(4, opened(profile, sample_size=5))
        assert decision.dissimilarity == Fraction(2)
        assert decision.accepted  # default threshold ceil(3*3/4) = 3

    def test_case_c_negative_distance_flags_corruption(self, rng):
        profile = self.make_profile(rng, mode=FeatureMode.CASE_C)
        with pytest.raises(ProtocolError, match="corrupted"):
            decide(40, opened(profile, sample_size=5))

    def test_threshold_must_be_positive(self, rng):
        profile = self.make_profile(rng)
        with pytest.raises(ValueError, match="positive"):
            dataclasses.replace(profile, threshold=0)

    def test_default_threshold_values(self, rng):
        def default(features):
            return default_threshold(
                build_encrypted_profile("u", features, 128, rng)[0])

        assert default(FeatureSet.from_values(FeatureMode.CASE_A,
                                              [1, 2, 3, 4])) == 2
        assert default(FeatureSet.from_values(FeatureMode.CASE_B,
                                              [1, 2, 3, 4, 5])) == 3
        # |X| = 8, but t = 3 and M = 4: a quarter of the maximum distance 12.
        assert default(encode_numeric((4, 0, 4), 4)) == 3


# SHA-256 over every value a seeded 512-bit run computes in the three modes:
# profile and secret bytes, challenge and response bytes, and the match
# counts.  Recorded when each randomizer was first drawn as rho = t + n*k
# with k below short_exponent_bound(n): the same tree with the draw of a
# full-width rho, a unit below n**2, gives the digest recorded before,
# 5c67f415...e8311, so only rho's draw moved.
PINNED_TRANSCRIPT_DIGEST = ("ff4a067f5c516645925a0b6f204808b1"
                            "1fb7e85097d0b9a777382ef5bbaa55b5")


def transcript_blobs():
    runs = [
        (hashed(FeatureMode.CASE_A, [f"tower-{i}" for i in range(6)]),
         hashed(FeatureMode.CASE_A, ["tower-1", "tower-4", "app-x"]), None),
        (FeatureSet.from_values(FeatureMode.CASE_B, [2, 5, 9]),
         FeatureSet.from_values(FeatureMode.CASE_B, [4, 9]), TENT),
        (encode_numeric((3, 0, 5, 2), 5), encode_numeric((2, 1, 5, 0), 5),
         None),
    ]
    for seed, (features, sample, sim) in enumerate(runs, start=0x919):
        rng = random.Random(seed)
        profile, secret = build_encrypted_profile("pin", features, 512, rng)
        challenge, session = carrier_challenge(profile, rng,
                                               sample_size=sample.size)
        if sim is None:
            entries = device_respond(secret, challenge, sample, rng)
            expected = oracle_intersection(features.values, sample.values)
        else:
            entries = device_respond_weighted(secret, challenge, sample, sim,
                                              rng)
            expected = oracle_weighted(features.values, sample.values, sim)
        matches = carrier_score(session, entries)
        assert matches == expected
        yield profile.to_bytes()
        yield secret.to_bytes()
        yield challenge.to_bytes()
        yield from (entry.to_bytes() for entry in entries)
        yield matches.to_bytes(4, "big")


def test_seeded_transcript_is_pinned():
    digest = hashlib.sha256()
    for blob in transcript_blobs():
        digest.update(len(blob).to_bytes(4, "big") + blob)
    assert digest.hexdigest() == PINNED_TRANSCRIPT_DIGEST


# SHA-256 over the (cipher, ratio) pairs of ``seeded_entries``, recorded
# like the transcript digest when rho was first drawn as t + n*k: with a
# full-width rho drawn below n**2, the same tree gives the digest recorded
# before, 1503ae84...799a2.  The pairs themselves match the three-value
# entries (cipher, correction, tag) that preceded them, with
# ratio = tag * correction**-1 mod n, under the same randomizers.
PINNED_PAIR_DIGEST = ("80ab2a5336a8eb7c0753814f700765e8"
                      "d9dfd10adb02f4792ddcf0fefd351370")


def seeded_entries():
    """``(n, entry)`` for two seeded 512-bit sessions in each mode.

    Case A uses 20 hashed 128-bit features, so no evaluation exponent is
    reduced; Case C uses t = 8, M = 5.
    """
    towers = [f"tower-{i}" for i in range(20)]
    runs = [
        (hashed(FeatureMode.CASE_A, towers),
         hashed(FeatureMode.CASE_A, towers[::4] + ["app-x", "app-y"]), None),
        (FeatureSet.from_values(FeatureMode.CASE_B, [2, 5, 9]),
         FeatureSet.from_values(FeatureMode.CASE_B, [4, 9, 11]), TENT),
        (encode_numeric((3, 0, 5, 2, 4, 1, 5, 0), 5),
         encode_numeric((2, 1, 5, 0, 4, 3, 0, 5), 5), None),
    ]
    for seed, (features, sample, sim) in enumerate(runs, start=0xA1):
        rng = random.Random(seed)
        profile, secret = build_encrypted_profile("pin", features, 512, rng)
        for _ in range(2):
            challenge, _ = carrier_challenge(profile, rng,
                                             sample_size=sample.size)
            if sim is None:
                entries = device_respond(secret, challenge, sample, rng)
            else:
                entries = device_respond_weighted(secret, challenge, sample,
                                                  sim, rng)
            for entry in entries:
                yield profile.public_key.n, entry


def test_pairs_equal_the_three_value_construction():
    digest = hashlib.sha256()
    for _, entry in seeded_entries():
        digest.update(encode_uint(entry.cipher) + encode_uint(entry.ratio))
    assert digest.hexdigest() == PINNED_PAIR_DIGEST


@pytest.mark.slow
@pytest.mark.parametrize("mode", ["case-a", "case-b", "case-c"])
def test_2048_bit_keys_score_like_the_oracles(mode):
    """One authentication per case at 2048-bit keys."""
    towers = [f"tower-{i}" for i in range(8)]
    u, v = (3, 0, 5, 2), (2, 1, 5, 0)
    features, sample, sim = {
        "case-a": (hashed(FeatureMode.CASE_A, towers),
                   hashed(FeatureMode.CASE_A, towers[::2] + ["app-x"]), None),
        "case-b": (FeatureSet.from_values(FeatureMode.CASE_B, [2, 5, 9]),
                   FeatureSet.from_values(FeatureMode.CASE_B, [4, 9]), TENT),
        "case-c": (encode_numeric(u, 5), encode_numeric(v, 5), None),
    }[mode]
    expected = {
        "case-a": oracle_intersection(features.values, sample.values),
        "case-b": oracle_weighted(features.values, sample.values, TENT),
        "case-c": (sum(u) + sum(v) - oracle_l1(u, v)) // 2,
    }[mode]
    rng = random.Random(0x2048)
    profile, secret = build_encrypted_profile("big", features, 2048, rng)
    assert profile.public_key.n.bit_length() == 2048
    challenge, session = carrier_challenge(profile, rng,
                                           sample_size=sample.size)
    if sim is None:
        entries = device_respond(secret, challenge, sample, rng)
    else:
        entries = device_respond_weighted(secret, challenge, sample, sim, rng)
    matches = carrier_score(session, entries)
    decision = decide(matches, session)
    assert matches == expected
    threshold = default_threshold(profile)
    if mode == "case-c":
        assert decision.dissimilarity == oracle_l1(u, v)
        assert decision.accepted == (oracle_l1(u, v) <= threshold)
    else:
        assert decision.dissimilarity == Fraction(1, expected)
        assert decision.accepted == (expected >= threshold)
