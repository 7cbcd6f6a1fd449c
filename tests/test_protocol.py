import random
from fractions import Fraction

import pytest

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
from psiauth.paillier import draw_unit
from psiauth.protocol import default_threshold

from helpers import distinct_values, overlap_instance


def case_a(values):
    return FeatureSet.from_values(FeatureMode.CASE_A, values)


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
        # shuffle, so the tag sequence of an unshuffled response can be
        # reconstructed from the same seed and compared.
        profile, secret = enrolled
        sample = case_a([7, 14, 21, 28, 35])
        n_squared = profile.public_key.n_squared
        identity_count = 0
        for seed in range(100):
            challenge, _ = carrier_challenge(profile, random.Random(seed))
            rng = random.Random(seed * 1009 + 1)
            entries = device_respond(secret, challenge, sample, rng)
            replay = random.Random(seed * 1009 + 1)
            expected_tags = [
                pow(secret.anchor, draw_unit(replay, n_squared) *
                    secret.secret_exponent, n_squared)
                for _ in sample.values
            ]
            assert sorted(e.tag for e in entries) == sorted(expected_tags)
            if [e.tag for e in entries] == expected_tags:
                identity_count += 1
        assert identity_count <= 5  # expectation is 100/120

    def test_workers_do_not_change_the_response(self, enrolled):
        profile, secret = enrolled
        sample = case_a([5, 10, 15, 20])
        challenge, _ = carrier_challenge(profile, random.Random(1))
        serial = device_respond(secret, challenge, sample, random.Random(2))
        challenge, _ = carrier_challenge(profile, random.Random(1))
        parallel = device_respond(secret, challenge, sample, random.Random(2),
                                  workers=2)
        assert serial == parallel


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
        n, n_squared = profile.public_key.n, profile.public_key.n_squared
        sample = hashed(FeatureMode.CASE_A, self.SAMPLE)
        assert min(sample.values) ** profile.size > n
        challenge, session = carrier_challenge(profile, random.Random(22))
        entries = device_respond(secret, challenge, sample, random.Random(23))

        def raw_product(bases, x):
            acc = 1
            for i, base in enumerate(bases):
                acc = acc * pow(base, x ** i, n_squared) % n_squared
            return acc

        replay = random.Random(23)
        d = secret.secret_exponent
        expected = []
        for x in sample.values:
            rho = draw_unit(replay, n_squared)
            expected.append(AuthResponseEntry(
                pow(raw_product(challenge.powered_coeffs, x), d * rho,
                    n_squared),
                pow(raw_product(challenge.blinded_randomizers, x), rho,
                    n_squared),
                pow(secret.anchor, rho * d, n_squared)))
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
        bad = AuthResponseEntry(profile.public_key.n, 1, 1)
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
        profile = self.make_profile(rng)
        decision = decide(2, profile, sample_size=4, threshold=2)
        assert decision.accepted
        assert decision.dissimilarity == Fraction(1, 2)

    def test_default_threshold_is_majority(self, rng):
        profile = self.make_profile(rng)
        assert decide(2, profile, sample_size=4).accepted  # ceil(4/2) = 2
        assert not decide(1, profile, sample_size=4).accepted

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
        with pytest.raises(ValueError):
            decide(1, profile, sample_size=4, threshold=0)

    def test_default_threshold_values(self):
        assert default_threshold(FeatureMode.CASE_A, 5, None, None) == 3
        assert default_threshold(FeatureMode.CASE_C, 5, 3, 3) == 3
