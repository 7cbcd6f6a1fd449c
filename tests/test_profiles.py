import dataclasses
import logging
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from psiauth import (
    DeviceSecret,
    DuplicateFeatureError,
    EncryptedProfile,
    FeatureMode,
    FeatureSet,
    blinded_randomizers,
    build_encrypted_profile,
    decode_numeric,
    decrypt,
    encode_numeric,
    hash_feature,
    keygen,
    poly_from_roots,
    solve_blinding,
    solve_blinding_gaussian,
)
from psiauth import pool
from psiauth.encoding import DecodeError, encode_bytes, encode_uint, \
    encode_uints
from psiauth.paillier import draw_unit
from psiauth.profiles import BLINDED_SEED_BYTES, \
    _solve_scaled_integer_system, encode_mode

from helpers import audited_setup, blinding_identity_holds, \
    distinct_values, keypair_from_primes, kill_one_worker, \
    unblinded_randomizers


def case_a(values):
    return FeatureSet.from_values(FeatureMode.CASE_A, values)


class TestFeatureSet:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            FeatureSet.from_values(FeatureMode.CASE_A, [])

    def test_zero_and_oversized_rejected(self):
        with pytest.raises(ValueError):
            case_a([0, 1])
        with pytest.raises(ValueError):
            case_a([1, (1 << 128) + 1])

    def test_set_semantics(self):
        assert case_a([3, 1, 2, 3]).values == (1, 2, 3)

    def test_case_c_requires_parameters(self):
        with pytest.raises(ValueError):
            FeatureSet.from_values(FeatureMode.CASE_C, [1, 2])
        with pytest.raises(ValueError):
            FeatureSet(FeatureMode.CASE_A, (1,), count=2, cap=3)


class TestPolyFromRoots:
    def test_two_roots(self, kp128):
        pk, _ = kp128
        coeffs = poly_from_roots(case_a([2, 3]), pk.n)
        assert coeffs == [6, pk.n - 5, 1]  # (x-2)(x-3) = x**2 - 5x + 6

    def test_single_root(self, kp128):
        pk, _ = kp128
        assert poly_from_roots(case_a([7]), pk.n) == [pk.n - 7, 1]

    def test_duplicate_roots_modulo_n_rejected(self, tiny_keypair):
        pk, _ = tiny_keypair
        with pytest.raises(DuplicateFeatureError):
            poly_from_roots(case_a([2, 17]), pk.n)  # 17 = 2 mod 15

    def test_monic_and_vanishing_at_roots(self, kp128):
        pk, _ = kp128
        rng = random.Random(31)
        for _ in range(100):
            values = distinct_values(rng, rng.randint(1, 20), 32)
            coeffs = poly_from_roots(case_a(values), pk.n)
            assert coeffs[-1] == 1
            for root in values:
                total = sum(c * pow(root, k, pk.n) for k, c in enumerate(coeffs))
                assert total % pk.n == 0


class TestBlindingSolvers:
    def test_closed_form_single_root_identity(self, kp128, rng):
        pk, _ = kp128
        root = 12345
        coeffs = poly_from_roots(case_a([root]), pk.n)
        anchor = draw_unit(rng, pk.n_squared)
        solution = solve_blinding(coeffs, anchor, pk, rng)
        r0, r1 = solution.randomizers
        assert r0 * pow(r1, root, pk.n_squared) % pk.n_squared == anchor

    def test_solution_is_nontrivial(self, kp128):
        pk, _ = kp128
        for seed in range(10):
            rng = random.Random(seed)
            values = distinct_values(rng, 5, 32)
            coeffs = poly_from_roots(case_a(values), pk.n)
            solution = solve_blinding(coeffs, draw_unit(rng, pk.n_squared),
                                      pk, rng)
            assert any(r != 1 for r in solution.randomizers[1:])

    def test_anchor_must_be_unit(self, kp128, rng):
        pk, _ = kp128
        with pytest.raises(ValueError):
            solve_blinding([1, 1], pk.n, pk, rng)

    @pytest.mark.parametrize("solver", [solve_blinding, solve_blinding_gaussian])
    def test_identity_on_random_profiles(self, kp128, solver):
        pk, _ = kp128
        rng = random.Random(77)
        for _ in range(30):
            values = distinct_values(rng, rng.randint(1, 12), 32)
            features = case_a(values)
            anchor = draw_unit(rng, pk.n_squared)
            if solver is solve_blinding:
                solution = solver(poly_from_roots(features, pk.n), anchor,
                                  pk, rng)
            else:
                solution = solver(features, anchor, pk, rng)
            assert solution.anchor == anchor
            assert blinding_identity_holds(
                solution.randomizers, solution.anchor, values, pk.n_squared)

    def test_identity_with_reduced_powers_too(self, kp128, rng):
        # The subgroup randomizers depend on feature powers only modulo n,
        # so the identity holds with reduced powers as well as raw ones.
        pk, _ = kp128
        values = distinct_values(rng, 8, 32)
        coeffs = poly_from_roots(case_a(values), pk.n)
        solution = solve_blinding(coeffs, draw_unit(rng, pk.n_squared),
                                  pk, rng)
        for root in values:
            acc = solution.randomizers[0]
            power = 1
            for k in range(1, len(solution.randomizers)):
                power = power * root % pk.n
                acc = acc * pow(solution.randomizers[k], power,
                                pk.n_squared) % pk.n_squared
            assert acc == solution.anchor

    def test_gaussian_two_by_two_hand_example(self):
        # Power matrix of roots {2, 3}: det = 2*3*(3-2) = 6; the scaled
        # system V x = 6*(1,1) has the integer solution x = (5, -1).
        solution, det = _solve_scaled_integer_system([[2, 4], [3, 9]], [1, 1])
        assert det == 6
        assert solution == [5, -1]

    def test_gaussian_falls_back_on_degenerate_input(self, caplog):
        pk, sk = keypair_from_primes(3, 5, insecure_test_mode=True)
        features = case_a([15])  # 15 = 0 mod n: zero row in the power matrix
        rng = random.Random(3)
        anchor = draw_unit(rng, pk.n_squared)
        with caplog.at_level(logging.WARNING, logger="psiauth.profiles"):
            solution = solve_blinding_gaussian(features, anchor, pk, rng)
        assert "falling back" in caplog.text
        assert solution.anchor == anchor
        assert blinding_identity_holds(
            solution.randomizers, solution.anchor, features.values,
            pk.n_squared, reduce_mod=pk.n * sk.lam)

    def test_gaussian_does_not_log_on_clean_input(self, kp128, rng, caplog):
        pk, _ = kp128
        with caplog.at_level(logging.WARNING, logger="psiauth.profiles"):
            solve_blinding_gaussian(case_a([5, 9, 14]),
                                    draw_unit(rng, pk.n_squared), pk, rng)
        assert not caplog.records


@pytest.fixture(scope="module")
def moduli(kp512):
    return {
        "n of 16 bits": keygen(16, random.Random(16))[0].n,
        "n of 512 bits": kp512[0].n,
        "prime": (1 << 127) - 1,
        # Half the residues are non-units, so the counter moves on often.
        "n = 15": 15,
    }


class TestBlindedRandomizers:
    @pytest.mark.parametrize("name", ["n of 16 bits", "n of 512 bits",
                                      "prime", "n = 15"])
    @settings(max_examples=40, deadline=None)
    @given(seed=st.binary(min_size=BLINDED_SEED_BYTES,
                          max_size=BLINDED_SEED_BYTES),
           count=st.integers(min_value=1, max_value=40))
    def test_units_below_the_modulus(self, moduli, name, seed, count):
        modulus = moduli[name]
        values = blinded_randomizers(modulus, seed, count)
        assert len(values) == count
        assert all(1 <= v < modulus and math.gcd(v, modulus) == 1
                   for v in values)

    def test_deterministic_for_a_seed_and_modulus(self, kp128, kp512):
        n = kp512[0].n
        seed = bytes(range(BLINDED_SEED_BYTES))
        values = blinded_randomizers(n, seed, 8)
        assert blinded_randomizers(n, seed, 8) == values
        # A shorter expansion is a prefix: B_k depends on k, not the count.
        assert blinded_randomizers(n, seed, 3) == values[:3]
        assert len(set(values)) == 8
        other_n = kp128[0].n
        assert not set(blinded_randomizers(other_n, seed, 8)) & set(values)
        other_seed = bytes(BLINDED_SEED_BYTES)
        assert not set(blinded_randomizers(n, other_seed, 8)) & set(values)

    def test_setup_draws_d_as_a_unit_modulo_lambda(self):
        for seed in range(12):
            profile, secret, audit = audited_setup(
                "u", case_a([3, 5]), 64, random.Random(seed))
            d = secret.secret_exponent
            assert 1 <= d < profile.public_key.n
            assert math.gcd(d, audit.secret_key.lam) == 1


SETUP_RUNS = {
    "case-a": case_a(distinct_values(random.Random(33), 6, 32)),
    "case-b": FeatureSet.from_values(FeatureMode.CASE_B, [2, 5, 9]),
    "case-c": encode_numeric((3, 0, 5, 2), 5),
}


class TestBuildEncryptedProfile:
    def test_sizes_and_monicity(self, rng):
        features = case_a([10, 20, 30])
        profile, secret, audit = audited_setup("alice", features, 128, rng)
        assert len(profile.enc_coeffs) == 4
        assert len(profile.blinded_seed) == BLINDED_SEED_BYTES
        assert profile.size == 3
        assert decrypt(profile.public_key, audit.secret_key,
                       profile.enc_coeffs[-1]) == 1

    def test_unblinded_randomizer_consistency(self, rng):
        # Enc(p_i) * R_i**n must equal an encryption of p_i whose
        # randomizer is the blinding value r'_i.
        features = case_a([3, 5, 8])
        profile, _, audit = audited_setup("alice", features, 128, rng)
        pk = profile.public_key
        for ct, coeff, big_r, blind in zip(profile.enc_coeffs, audit.coeffs,
                                           unblinded_randomizers(audit, pk.n),
                                           audit.blinding.randomizers):
            lhs = ct * pow(big_r, pk.n, pk.n_squared) % pk.n_squared
            rhs = (1 + coeff * pk.n) * pow(blind, pk.n, pk.n_squared) % pk.n_squared
            assert lhs == rhs

    @pytest.mark.parametrize("solver", ["closed-form", "gaussian"])
    def test_setup_powers_equal_plain_pow(self, solver):
        # Set-up computes r_k**n and the root of B_k by CRT, in the pool
        # when there is more than one CPU; plain powers must agree.
        features = case_a(distinct_values(random.Random(31), 6, 32))
        profile, secret, audit = audited_setup(
            "alice", features, 512, random.Random(32), solver=solver)
        n, n_squared = profile.public_key.n, profile.public_key.n_squared
        for ct, coeff, r in zip(profile.enc_coeffs, audit.coeffs,
                                audit.encryption_randomizers):
            assert ct == (1 + coeff * n) * pow(r, n, n_squared) % \
                n_squared
        assert blinded_randomizers(n, profile.blinded_seed,
                                   len(audit.coeffs)) == tuple(
            pow(x, secret.secret_exponent, n)
            for x in unblinded_randomizers(audit, n))

    @pytest.mark.parametrize("solver", ["closed-form", "gaussian"])
    def test_blinding_shows_only_modulo_n_squared(self, solver):
        # r'_k is 1 modulo n for k >= 1 and r'_0 is R' modulo n, so the
        # blinding shows only in residues modulo n**2.  The seed expands to
        # values modulo n: exactly the blinding-free (r_k**-1)**d mod n,
        # times R'**d for k = 0, and (r'_k * r_k**-1 mod n)**d for every k,
        # in every mode and under both solvers.  Each is the full-width
        # value modulo n**2 reduced modulo n, all the device ever reads of
        # it.
        rng = random.Random(71)
        differ = 0
        for features in (case_a(distinct_values(rng, 6, 32)),
                         FeatureSet.from_values(FeatureMode.CASE_B,
                                                [3, 8, 21]),
                         encode_numeric((3, 0, 2, 1), 4)):
            profile, secret, audit = audited_setup(
                "alice", features, 128, rng, solver=solver)
            n, n_squared = profile.public_key.n, profile.public_key.n_squared
            anchor, d = audit.blinding.anchor, secret.secret_exponent
            assert anchor == secret.anchor
            assert audit.blinding.randomizers[0] % n == anchor % n
            assert all(r % n == 1 for r in audit.blinding.randomizers[1:])
            differ += sum(r != 1 for r in audit.blinding.randomizers[1:])
            free = tuple(pow(pow(r, -1, n) * (anchor if k == 0 else 1), d, n)
                         for k, r in enumerate(audit.encryption_randomizers))
            expanded = blinded_randomizers(n, profile.blinded_seed,
                                           len(audit.coeffs))
            assert expanded == free
            assert expanded == tuple(
                pow(x, d, n) for x in unblinded_randomizers(audit, n))
            for blind, r, stored in zip(audit.blinding.randomizers,
                                        audit.encryption_randomizers, free):
                assert pow(blind * pow(r, -1, n_squared), d,
                           n_squared) % n == stored
        assert differ > 0

    @pytest.mark.parametrize("mode", [*sorted(SETUP_RUNS), "fallback"])
    def test_solver_changes_neither_record_nor_secret(self, mode, caplog):
        # The two kernels differ, but both solvers make the same draws and
        # keep set-up's R', and set-up reads the blinding only modulo n.
        if mode == "fallback":
            # Set-up's key for this seed; a feature of 0 mod n makes the
            # Gaussian solver fall back to the coefficients.
            n = keygen(128, random.Random(35))[0].n
            features = case_a([5, n])
        else:
            features = SETUP_RUNS[mode]
        runs = []
        for solver in ("closed-form", "gaussian"):
            with caplog.at_level(logging.WARNING, logger="psiauth.profiles"):
                profile, secret = build_encrypted_profile(
                    "u", features, 128, random.Random(35), solver=solver)
            runs.append((profile.to_bytes(), secret.to_bytes()))
        assert runs[0] == runs[1]
        assert ("falling back" in caplog.text) == (mode == "fallback")

    @pytest.mark.parametrize("solver", ["closed-form", "gaussian"])
    @pytest.mark.parametrize("mode", sorted(SETUP_RUNS))
    def test_setup_does_not_depend_on_the_cpu_count(self, mode, solver,
                                                    fresh_pool, one_cpu):
        # Every draw is made in this process before the powers go to the
        # pool, so one CPU, the pool and a pool with a dead worker all give
        # the same record and secret.
        def setup_bytes():
            profile, secret = build_encrypted_profile(
                "u", SETUP_RUNS[mode], 512, random.Random(34), solver=solver)
            return profile.to_bytes(), secret.to_bytes()

        with one_cpu():
            serial = setup_bytes()
        assert pool._pool is None  # one CPU ran everything in-process
        assert setup_bytes() == serial
        dead = pool._pool
        assert dead is not None
        kill_one_worker(dead)
        # Key generation's first pooled call finds the pool broken and
        # finishes in-process; the calls after it fork a new pool.
        assert setup_bytes() == serial
        fresh = pool._pool
        assert fresh not in (None, dead)
        assert setup_bytes() == serial
        assert pool._pool is fresh

    def test_device_secret_field_inventory(self, rng):
        secret = build_encrypted_profile("alice", case_a([4, 5]), 128, rng)[1]
        names = {f.name for f in dataclasses.fields(DeviceSecret)}
        assert names == {"user_id", "secret_exponent", "anchor", "mode",
                         "count", "cap"}
        assert secret.user_id == "alice"
        assert secret.count is None and secret.cap is None

    def test_secret_invariant_under_feature_permutation(self):
        # With a fixed seed the retained secret cannot depend on the order
        # in which features were collected.
        values = [111, 222, 333, 444]
        runs = []
        for permuted in (values, values[::-1], [333, 111, 444, 222]):
            rng = random.Random(2024)
            _, secret = build_encrypted_profile(
                "alice", FeatureSet.from_values(FeatureMode.CASE_A, permuted),
                128, rng)
            runs.append(secret.to_bytes())
        assert runs[0] == runs[1] == runs[2]

    def test_unknown_solver_rejected(self, rng):
        with pytest.raises(ValueError):
            build_encrypted_profile("alice", case_a([1]), 128, rng,
                                    solver="cramer")

    def test_threshold_recorded(self, rng):
        profile, _ = build_encrypted_profile("alice", case_a([1, 2]), 128,
                                             rng, threshold=2)
        assert profile.threshold == 2


class TestNumericEncoding:
    def test_documented_example(self):
        features = encode_numeric((2, 0, 3), 3)
        assert features.values == (1, 2, 7, 8, 9)
        assert features.size == 5
        assert features.count == 3 and features.cap == 3

    def test_all_zero_vector_fails_setup(self):
        with pytest.raises(ValueError):
            encode_numeric((0, 0, 0), 3)

    def test_entry_above_cap_rejected(self):
        with pytest.raises(ValueError):
            encode_numeric((1, 4), 3)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=9), min_size=1,
                    max_size=10).filter(lambda u: sum(u) > 0))
    def test_cardinality_is_vector_sum(self, vector):
        assert encode_numeric(vector, 9).size == sum(vector)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=7), min_size=1,
                    max_size=8).filter(lambda u: sum(u) > 0))
    def test_decode_inverts_encode(self, vector):
        assert decode_numeric(encode_numeric(vector, 7)) == tuple(vector)

    def test_decode_rejects_gap(self):
        broken = FeatureSet(FeatureMode.CASE_C, (2,), count=1, cap=3)
        with pytest.raises(ValueError):
            decode_numeric(broken)


class TestHashFeature:
    def test_deterministic(self):
        assert hash_feature(b"cell-tower-17") == hash_feature(b"cell-tower-17")

    def test_range(self):
        for raw in (b"a", b"\x00", b"x" * 1000):
            assert 1 <= hash_feature(raw) <= 1 << 128

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hash_feature(b"")

    def test_no_collisions_over_corpus(self):
        corpus = [f"feature-{i}".encode() for i in range(10_000)]
        digests = {hash_feature(raw) for raw in corpus}
        assert len(digests) == len(corpus)


class TestSerialization:
    def build(self, rng, **kwargs):
        return build_encrypted_profile("alice", case_a([9, 18, 27]), 128,
                                       rng, **kwargs)

    def test_profile_roundtrip(self, rng):
        profile, _ = self.build(rng, threshold=3)
        data = profile.to_bytes()
        restored = EncryptedProfile.from_bytes(data)
        assert restored == profile
        assert restored.to_bytes() == data

    def test_case_c_profile_roundtrip(self, rng):
        features = encode_numeric((2, 1), 3)
        profile, _ = build_encrypted_profile("alice", features, 128, rng)
        restored = EncryptedProfile.from_bytes(profile.to_bytes())
        assert restored == profile
        assert (restored.count, restored.cap) == (2, 3)

    def test_secret_roundtrip(self, rng):
        _, secret = self.build(rng)
        assert DeviceSecret.from_bytes(secret.to_bytes()) == secret

    def test_size_zero_refused(self, kp128, rng):
        # Its default threshold would be 0, which accepts any response.
        pk = kp128[0]
        coeff = draw_unit(rng, pk.n_squared)
        with pytest.raises(ValueError, match="size must be positive"):
            EncryptedProfile(pk, (coeff,), bytes(BLINDED_SEED_BYTES), 0,
                             FeatureMode.CASE_A)
        data = (pk.to_bytes() + encode_uints([coeff]) +
                encode_bytes(bytes(BLINDED_SEED_BYTES)) +
                encode_uint(0) + encode_mode(FeatureMode.CASE_A, None, None) +
                encode_uint(0))
        with pytest.raises(DecodeError, match="size must be positive"):
            EncryptedProfile.from_bytes(data)

    def test_trailing_bytes_rejected(self, rng):
        profile, _ = self.build(rng)
        with pytest.raises(DecodeError, match="trailing"):
            EncryptedProfile.from_bytes(profile.to_bytes() + b"\x00")

    def test_unknown_mode_tag_rejected(self, rng):
        _, secret = self.build(rng)
        data = bytearray(secret.to_bytes())
        data[-1] = 0x7E
        with pytest.raises(DecodeError, match="mode tag"):
            DeviceSecret.from_bytes(bytes(data))

    def test_non_canonical_integer_rejected(self):
        from psiauth.encoding import Reader
        padded = (2).to_bytes(4, "big") + b"\x00\x07"
        with pytest.raises(DecodeError, match="leading zero"):
            Reader(padded).uint()

    def test_secret_serialization_carries_only_declared_fields(self, rng):
        # user id, d, anchor, mode tag: nothing else fits in the byte count.
        _, secret = self.build(rng)
        expected_len = (4 + len(secret.user_id.encode()) +
                        4 + (secret.secret_exponent.bit_length() + 7) // 8 +
                        4 + (secret.anchor.bit_length() + 7) // 8 +
                        1)
        assert len(secret.to_bytes()) == expected_len
