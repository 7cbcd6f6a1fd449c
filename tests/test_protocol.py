import contextlib
import dataclasses
import hashlib
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
from hypothesis import assume, given, settings, strategies as st

from psiauth import (
    INFINITE,
    AuthResponseEntry,
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
    oracle_intersection,
    oracle_l1,
    oracle_weighted,
)
from psiauth import protocol
from psiauth.encoding import encode_uint
from psiauth.paillier import draw_unit
from psiauth.protocol import SessionState, default_threshold

from helpers import distinct_values, overlap_instance


def case_a(values):
    return FeatureSet.from_values(FeatureMode.CASE_A, values)


def raw_entries(secret, challenge, values, rng):
    """Unshuffled entries from raw power products, one per value in order.

    Each ratio is built the long way, as ``tag * correction**-1 mod n`` from
    the full-width powers ``tag = R'**(d * rho)`` and ``correction = B**rho``
    modulo ``n**2``, where ``B`` is the blinded leg's raw power product.
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
        rho = draw_unit(rng, n_squared)
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
        challenge, _ = carrier_challenge(profile, rng)
        assert len(challenge.powered_coeffs) == profile.size + 1
        assert len(challenge.blinded_randomizers) == profile.size + 1
        assert challenge.blinded_randomizers == profile.blinded_randomizers

    def test_identity_exponent_hook(self, enrolled, rng):
        profile, _ = enrolled
        challenge, session = carrier_challenge(profile, rng, session_exponent=1)
        assert challenge.powered_coeffs == tuple(
            c.value for c in profile.enc_coeffs)
        assert session.session_exponent == 1

    def test_fresh_exponents_across_sessions(self, enrolled, rng):
        profile, _ = enrolled
        exponents = set()
        coeff_views = set()
        for _ in range(20):
            challenge, session = carrier_challenge(profile, rng)
            exponents.add(session.session_exponent)
            coeff_views.add(challenge.powered_coeffs)
        assert len(exponents) == 20
        assert len(coeff_views) == 20

    def test_exponent_range_checked(self, enrolled, rng):
        profile, _ = enrolled
        with pytest.raises(ValueError):
            carrier_challenge(profile, rng, session_exponent=0)


class TestDeviceRespond:
    def test_entry_count_matches_sample(self, enrolled, rng):
        profile, secret = enrolled
        challenge, _ = carrier_challenge(profile, rng)
        sample = case_a([11, 22, 33, 44, 55])
        assert len(device_respond(secret, challenge, sample, rng)) == 5

    def test_mode_mismatch_rejected(self, enrolled, rng):
        profile, secret = enrolled
        challenge, _ = carrier_challenge(profile, rng)
        sample = encode_numeric((1, 2), 3)
        with pytest.raises(ModeMismatchError):
            device_respond(secret, challenge, sample, rng)

    def test_case_c_parameter_mismatch_rejected(self, rng):
        profile, secret = build_encrypted_profile(
            "u", encode_numeric((2, 1, 2), 4), 128, rng)
        challenge, _ = carrier_challenge(profile, rng)
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
            challenge, _ = carrier_challenge(profile, random.Random(seed))
            rng = random.Random(seed * 1009 + 1)
            entries = device_respond(secret, challenge, sample, rng)
            expected = raw_entries(secret, challenge, sample.values,
                                   random.Random(seed * 1009 + 1))
            assert set(entries) == set(expected)
            if entries == expected:
                identity_count += 1
        assert identity_count <= 5  # expectation is 100/120

    @pytest.mark.parametrize("cpus", [1, None])
    def test_non_unit_challenge_raises_protocol_error(self, enrolled, rng,
                                                       cpus, fresh_pool,
                                                       one_cpu):
        # Blinded randomizers that are multiples of n make the ratio leg
        # evaluate to 0 modulo n, which has no inverse.  One CPU builds the
        # entries in-process, None leaves them to the pool.
        profile, secret = enrolled
        challenge, _ = carrier_challenge(profile, rng)
        crafted = dataclasses.replace(
            challenge, blinded_randomizers=(profile.public_key.n,) *
            len(challenge.blinded_randomizers))
        with one_cpu() if cpus == 1 else contextlib.nullcontext():
            with pytest.raises(ProtocolError, match="non-unit"):
                device_respond(secret, crafted, case_a([11, 22, 33]), rng)

    @pytest.mark.parametrize("mode", ["case-a", "case-b", "case-c"])
    def test_workers_do_not_change_the_response(self, mode, fresh_pool,
                                                 one_cpu):
        features, sample, sim = POOL_RUNS[mode]
        profile, secret = build_encrypted_profile("u", features, 128,
                                                  random.Random(3))

        def respond():
            challenge, _ = carrier_challenge(profile, random.Random(1))
            if sim is not None:
                return device_respond_weighted(secret, challenge, sample, sim,
                                               random.Random(2))
            return device_respond(secret, challenge, sample, random.Random(2))

        with one_cpu():
            serial = respond()
        assert protocol._pool is None  # one CPU ran everything in-process
        assert respond() == serial
        assert protocol._pool is not None


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


class TestWorkerPool:
    """The pool computes exactly what the in-process path computes."""

    @pytest.fixture
    def enrolled_a(self):
        features, sample, _ = POOL_RUNS["case-a"]
        profile, secret = build_encrypted_profile("u", features, 128,
                                                  random.Random(4))
        return profile, secret, features, sample

    def in_process_score(self, one_cpu, profile, theta, entries):
        with one_cpu():
            session = SessionState(b"ref", theta, profile, 0.0)
            return carrier_score(session, entries)

    def test_challenge_powers_equal_plain_pow(self, enrolled_a, fresh_pool):
        profile = enrolled_a[0]
        n_squared = profile.public_key.n_squared
        theta = random.Random(5).randrange(1, profile.public_key.n)
        challenge, _ = carrier_challenge(profile, session_exponent=theta)
        assert protocol._pool is not None
        assert challenge.powered_coeffs == tuple(
            pow(c.value, theta, n_squared) for c in profile.enc_coeffs)

    def test_score_equals_in_process_count(self, enrolled_a, fresh_pool,
                                           one_cpu):
        profile, secret, features, sample = enrolled_a
        challenge, session = carrier_challenge(profile, random.Random(6))
        entries = device_respond(secret, challenge, sample, random.Random(7))
        assert len(entries) > 2
        expected = oracle_intersection(features.values, sample.values)
        assert carrier_score(session, entries) == expected == \
            self.in_process_score(one_cpu, profile,
                                  session.session_exponent, entries)

    def test_repeated_class_in_last_entry_still_refused(self, enrolled_a,
                                                        fresh_pool):
        profile, secret, _, sample = enrolled_a
        challenge, session = carrier_challenge(profile, random.Random(8))
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
        challenge, _ = carrier_challenge(profile, random.Random(10))
        with one_cpu():
            serial = device_respond(secret, challenge, sample,
                                    random.Random(11))
        pool = protocol._pool
        os.kill(next(iter(pool._processes)), signal.SIGKILL)
        deadline = time.monotonic() + 30
        while not pool._broken and time.monotonic() < deadline:
            time.sleep(0.01)
        assert pool._broken
        # This call finishes in-process; the next one forks a new pool.
        assert device_respond(secret, challenge, sample,
                              random.Random(11)) == serial
        assert protocol._pool is None
        theta = 0x5EED
        challenge, session = carrier_challenge(profile, session_exponent=theta)
        assert protocol._pool not in (None, pool)
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
            "challenge, session = carrier_challenge(profile, rng)\n"
            "sample = FeatureSet.from_values(FeatureMode.CASE_A, "
            "[5, 13, 21])\n"
            "entries = device_respond(secret, challenge, sample, rng)\n"
            "print(carrier_score(session, entries))\n")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(protocol.__file__).parents[1]))
        done = subprocess.run([sys.executable, str(script)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == \
            f"{oracle_intersection([3, 5, 8, 13], [5, 13, 21])}\n"


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
        challenge, session = carrier_challenge(profile, random.Random(22))
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
            challenge, session = carrier_challenge(profile, rng)
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
            challenge, session = carrier_challenge(profile, rng)
            entries = device_respond(secret, challenge, sample, rng)
            matches = carrier_score(session, entries)
            assert matches == oracle_intersection(features.values,
                                                  sample.values)
            decision = decide(matches, profile, len(entries))
            assert decision.dissimilarity == oracle_l1(u, v)


class TestSplitScoringPower:
    """The carrier splits the n*theta power of the ratio."""

    @pytest.fixture(scope="class")
    def profile(self):
        return build_encrypted_profile("u", case_a([3, 9]), 512,
                                       random.Random(42))[0]

    def score(self, profile, theta, entry):
        return carrier_score(SessionState(b"s", theta, profile, 0.0), [entry])

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
        challenge, session = carrier_challenge(profile, rng)
        sample = case_a(sample_values)
        entries = device_respond(secret, challenge, sample, rng)
        return carrier_score(session, entries)

    def test_partial_overlap(self, enrolled):
        profile, secret = enrolled
        assert self.score_of(profile, secret, [202, 303, 999]) == 2

    def test_textbook_instance(self, rng):
        profile, secret = build_encrypted_profile("u", case_a([1, 2, 3]),
                                                  128, rng)
        challenge, session = carrier_challenge(profile, rng)
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
            challenge, session = carrier_challenge(profile, rng)
            entries = device_respond(secret, challenge, sample_set, rng)
            expected = oracle_intersection(profile_set.values,
                                           sample_set.values)
            assert carrier_score(session, entries) == expected

    def test_session_single_use(self, enrolled, rng):
        profile, secret = enrolled
        challenge, session = carrier_challenge(profile, rng)
        entries = device_respond(secret, challenge, case_a([101]), rng)
        carrier_score(session, entries)
        with pytest.raises(SessionError):
            carrier_score(session, entries)

    def test_empty_response_rejected(self, enrolled, rng):
        profile, _ = enrolled
        _, session = carrier_challenge(profile, rng)
        with pytest.raises(ProtocolError):
            carrier_score(session, [])

    def test_non_unit_entry_rejected(self, enrolled, rng):
        profile, _ = enrolled
        _, session = carrier_challenge(profile, rng)
        bad = AuthResponseEntry(profile.public_key.n, 1)
        with pytest.raises(ProtocolError, match="unit"):
            carrier_score(session, [bad])

    def test_score_is_shuffle_invariant(self, enrolled, rng):
        profile, secret = enrolled
        theta = 12345
        challenge, session = carrier_challenge(profile, rng,
                                               session_exponent=theta)
        entries = device_respond(secret, challenge,
                                 case_a([101, 202, 7, 8]), rng)
        first = carrier_score(session, entries)
        _, replay_session = carrier_challenge(profile, rng,
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
            challenge, session = carrier_challenge(profile, rng)
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
        challenge, _ = carrier_challenge(profile, rng)
        sample = FeatureSet.from_values(FeatureMode.CASE_B, [5])
        entries = device_respond_weighted(secret, challenge, sample, sim, rng)
        assert len(entries) == 4  # weights around 5: 1 + 2 + 1

    def test_equality_kernel_reduces_to_plain_protocol(self, rng):
        values = [10, 20, 30, 40]
        sample_values = [20, 40, 50]
        profile_a, secret_a = build_encrypted_profile(
            "u", case_a(values), 128, rng)
        challenge_a, session_a = carrier_challenge(profile_a, rng)
        plain = device_respond(secret_a, challenge_a,
                               case_a(sample_values), rng)

        features_b = FeatureSet.from_values(FeatureMode.CASE_B, values)
        profile_b, secret_b = build_encrypted_profile(
            "u", features_b, 128, rng)
        challenge_b, session_b = carrier_challenge(profile_b, rng)
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
            challenge, session = carrier_challenge(profile, rng)
            sample = FeatureSet.from_values(FeatureMode.CASE_B, sample_values)
            response = device_respond_weighted(secret, challenge, sample,
                                               sim, rng)
            expected = oracle_weighted(profile_values, sample_values, sim)
            assert carrier_score(session, response) == expected

    def test_uncovered_sample_rejected(self, rng):
        features = FeatureSet.from_values(FeatureMode.CASE_B, [1, 2])
        profile, secret = build_encrypted_profile("u", features, 128, rng)
        challenge, _ = carrier_challenge(profile, rng)
        sample = FeatureSet.from_values(FeatureMode.CASE_B, [9])
        sim = SimilarityFunction.equality([1, 2])
        with pytest.raises(ValueError, match="cover"):
            device_respond_weighted(secret, challenge, sample, sim, rng)


class TestDecide:
    def make_profile(self, rng, mode=FeatureMode.CASE_A, **kwargs):
        if mode is FeatureMode.CASE_C:
            features = encode_numeric((2, 0, 3), 3)
        else:
            features = FeatureSet.from_values(mode, [1, 2, 3, 4, 5])
        return build_encrypted_profile("u", features, 128, rng, **kwargs)[0]

    def test_zero_matches_is_infinitely_dissimilar(self, rng):
        profile = self.make_profile(rng)
        decision = decide(0, profile, sample_size=4)
        assert decision.dissimilarity == INFINITE
        assert not decision.accepted

    def test_boundary_acceptance(self, rng):
        profile = dataclasses.replace(self.make_profile(rng), threshold=2)
        decision = decide(2, profile, sample_size=4)
        assert decision.accepted
        assert decision.dissimilarity == Fraction(1, 2)

    def test_default_threshold_is_majority(self, rng):
        # A majority of the five enrolled features, ceil(5/2) = 3, whatever
        # the entry count.
        profile = self.make_profile(rng)
        for sample_size in (1, 4, 9):
            assert decide(3, profile, sample_size).accepted
            assert not decide(2, profile, sample_size).accepted

    def test_stored_threshold_used(self, rng):
        profile = self.make_profile(rng, threshold=1)
        assert decide(1, profile, sample_size=4).accepted

    def test_case_c_distance_identity(self, rng):
        profile = self.make_profile(rng, mode=FeatureMode.CASE_C)
        # U=(2,0,3), V=(1,1,3): |X|=5, |Y|=5, matches=4, L1=2
        decision = decide(4, profile, sample_size=5)
        assert decision.dissimilarity == Fraction(2)
        assert decision.accepted  # default threshold ceil(3*3/4) = 3

    def test_case_c_negative_distance_flags_corruption(self, rng):
        profile = self.make_profile(rng, mode=FeatureMode.CASE_C)
        with pytest.raises(ProtocolError, match="corrupted"):
            decide(40, profile, sample_size=5)

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
# counts.  Recorded when response entries became (cipher, ratio) pairs; the
# pairs themselves are pinned to the earlier construction below.
PINNED_TRANSCRIPT_DIGEST = ("f872af57f1b88e5881dc2bdadc32bd9f"
                            "3c38dd3cd660fe8ca51f626d650032ca")


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
        challenge, session = carrier_challenge(profile, rng)
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
# from the three-value entries (cipher, correction, tag) that preceded the
# pairs, with ratio = tag * correction**-1 mod n.  The pairs are computed
# from the same randomizers, so every cipher and every ratio is unchanged.
PINNED_PAIR_DIGEST = ("cd239ff6127ac8379e8382c6a6c15375"
                      "81bc648a8861f7aacf2632631dab4392")


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
            challenge, _ = carrier_challenge(profile, rng)
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
