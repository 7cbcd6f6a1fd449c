"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  The full suite performs
hundreds of key generations and protocol rounds; expect several minutes.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from psiauth import (
    FeatureMode,
    FeatureSet,
    SimilarityFunction,
    add_cipher,
    build_encrypted_profile,
    carrier_challenge,
    carrier_score,
    decide,
    decrypt,
    device_respond,
    device_respond_weighted,
    encode_numeric,
    encrypt,
    keygen,
    oracle_intersection,
    oracle_l1,
    oracle_weighted,
    scalar_pow,
)
from psiauth import client, wire
from psiauth.bench import bench_run
from psiauth.service import CarrierConfig, CarrierService

from helpers import distinct_values, overlap_instance
from test_wire import random_message


@contextmanager
def reporting(criterion: int, summary: str):
    try:
        yield
    except BaseException:
        print(f"\nFAIL criterion {criterion}: {summary}", flush=True)
        raise
    print(f"\nPASS criterion {criterion}: {summary}", flush=True)


def verify_blinding_identity(audit, profile, features) -> None:
    """The anchor identity, checked at every root of a generated profile.

    Exponents are reduced by the unit-group exponent n*lambda(n), which
    leaves every unit power unchanged, so this is the raw-power identity.
    """
    n_squared = profile.public_key.n_squared
    group_exponent = profile.public_key.n * audit.secret_key.lam
    randomizers = audit.blinding.randomizers
    for root in features.values:
        acc = randomizers[0]
        power = 1
        for k in range(1, len(randomizers)):
            power = power * root % group_exponent
            acc = acc * pow(randomizers[k], power, n_squared) % n_squared
        assert acc == audit.blinding.anchor, \
            f"blinding identity violated at root {root}"


def checked_profile(user, features, bits, rng, **kwargs):
    """Build a profile and verify the blinding identity before using it."""
    profile, secret, audit = build_encrypted_profile(
        user, features, bits, rng, keep_setup_audit=True, **kwargs)
    verify_blinding_identity(audit, profile, features)
    return profile, secret


def test_criterion_1_case_a_correctness():
    started = time.monotonic()
    rng = random.Random(0xAC01)
    for index in range(200):
        profile_set, sample_set, _ = overlap_instance(
            rng, rng.randint(1, 20), rng.randint(1, 20), 128)
        profile, secret = checked_profile(f"u{index}", profile_set, 512, rng)
        challenge, session = carrier_challenge(profile, rng,
                                               sample_size=sample_set.size)
        entries = device_respond(secret, challenge, sample_set, rng)
        score = carrier_score(session, entries)
        expected = oracle_intersection(profile_set.values, sample_set.values)
        assert score == expected, \
            f"instance {index}: score {score} != oracle {expected}"
    elapsed = time.monotonic() - started
    assert elapsed <= 600, f"criterion 1 exceeded its budget: {elapsed:.0f}s"
    with reporting(1, f"200/200 Case A instances at 512-bit keys match the "
                      f"intersection oracle exactly ({elapsed:.0f}s)"):
        pass


def test_criterion_2_soundness():
    rng = random.Random(0xAC02)
    spurious = 0
    entries_checked = 0
    for index in range(100):
        pool = distinct_values(rng, 103, 32)
        rng.shuffle(pool)
        profile_set = FeatureSet.from_values(FeatureMode.CASE_A, pool[:3])
        non_members = FeatureSet.from_values(FeatureMode.CASE_A, pool[3:])
        profile, secret = checked_profile(f"s{index}", profile_set, 128, rng)
        challenge, session = carrier_challenge(profile, rng,
                                               sample_size=non_members.size)
        entries = device_respond(secret, challenge, non_members, rng)
        entries_checked += len(entries)
        spurious += carrier_score(session, entries)
    assert entries_checked >= 10_000
    assert spurious == 0, f"{spurious} spurious matches"
    with reporting(2, f"{entries_checked} non-member response entries, "
                      f"0 spurious matches"):
        pass


def test_criterion_3_case_b_correctness():
    rng = random.Random(0xAC03)
    max_weight = 4
    for index in range(50):
        universe = distinct_values(rng, 16, 20)
        profile_values = rng.sample(universe, rng.randint(1, 6))
        sample_values = rng.sample(universe, rng.randint(1, 5))
        entries = []
        for y in sample_values:
            for z in rng.sample(universe, rng.randint(1, 4)):
                entries.append((y, z, rng.randint(1, max_weight)))
        assert len(entries) <= 32
        sim = SimilarityFunction.from_entries(entries, max_weight=max_weight)
        features = FeatureSet.from_values(FeatureMode.CASE_B, profile_values)
        sample = FeatureSet.from_values(FeatureMode.CASE_B, sample_values)
        profile, secret = checked_profile(f"w{index}", features, 256, rng)
        challenge, session = carrier_challenge(profile, rng,
                                               sample_size=sample.size)
        expected = oracle_weighted(profile_values, sample_values, sim)
        response = device_respond_weighted(secret, challenge, sample, sim, rng)
        total = carrier_score(session, response)
        assert total == expected, \
            f"instance {index}: weighted total {total} != oracle {expected}"
    with reporting(3, "50/50 Case B instances match the weighted-sum oracle "
                      "exactly"):
        pass


def test_criterion_4_case_c_correctness():
    rng = random.Random(0xAC04)
    for index in range(50):
        t = rng.randint(1, 8)
        cap = rng.randint(1, 8)
        u = [rng.randint(0, cap) for _ in range(t)]
        v = [rng.randint(0, cap) for _ in range(t)]
        if sum(u) == 0 or sum(v) == 0:
            u[rng.randrange(t)] = max(1, u[0])
            v[rng.randrange(t)] = max(1, v[0])
        profile_features = encode_numeric(u, cap)
        sample_features = encode_numeric(v, cap)
        profile, secret = checked_profile(f"n{index}", profile_features,
                                          256, rng)
        challenge, session = carrier_challenge(
            profile, rng, sample_size=sample_features.size)
        entries = device_respond(secret, challenge, sample_features, rng)
        matches = carrier_score(session, entries)
        decision = decide(matches, session)
        assert decision.dissimilarity == Fraction(oracle_l1(u, v)), \
            f"instance {index}: L1 {decision.dissimilarity} != " \
            f"oracle {oracle_l1(u, v)}"
    with reporting(4, "50/50 Case C instances: decide's L1 equals the "
                      "plaintext oracle via the pair-encoding identity"):
        pass


def test_criterion_5_blinding_identity_both_solvers():
    # Criteria 1-4 verify the identity inline for every profile they
    # generate (closed-form solver). This sweep re-checks the closed form
    # and covers the Gaussian solver.
    rng = random.Random(0xAC05)
    checked = 0
    for solver in ("closed-form", "gaussian"):
        for _ in range(20):
            values = distinct_values(rng, rng.randint(1, 15), 64)
            features = FeatureSet.from_values(FeatureMode.CASE_A, values)
            profile, _, audit = build_encrypted_profile(
                "eq", features, 256, rng, solver=solver,
                keep_setup_audit=True)
            verify_blinding_identity(audit, profile, features)
            checked += 1
    with reporting(5, f"blinding identity holds at every root for "
                      f"{checked} fresh profiles (both solvers) plus every "
                      f"profile generated in criteria 1-4"):
        pass


def test_criterion_6_paillier_properties():
    rng = random.Random(0xAC06)
    pk, sk = keygen(512, rng)
    failures = 0
    for _ in range(1000):
        m1 = rng.randrange(pk.n)
        m2 = rng.randrange(pk.n)
        k = rng.randrange(pk.n)
        c1, _ = encrypt(pk, m1, rng=rng)
        c2, _ = encrypt(pk, m2, rng=rng)
        if decrypt(pk, sk, c1) != m1:
            failures += 1
        if decrypt(pk, sk, add_cipher(pk, c1, c2)) != (m1 + m2) % pk.n:
            failures += 1
        if decrypt(pk, sk, scalar_pow(pk, c1, k)) != k * m1 % pk.n:
            failures += 1
    assert failures == 0
    with reporting(6, "1000 random 512-bit cases: roundtrip, additive and "
                      "scalar homomorphism, zero failures"):
        pass


def test_criterion_7_device_state_audit():
    values = [9001, 9002, 9003, 9004, 9005]
    inventories = []
    serializations = []
    for permuted in (values, values[::-1],
                     [values[2], values[0], values[4], values[3], values[1]]):
        rng = random.Random(0xAC07)
        _, secret = build_encrypted_profile(
            "audit-user", FeatureSet.from_values(FeatureMode.CASE_A, permuted),
            256, rng)
        restored = type(secret).from_bytes(secret.to_bytes())
        assert restored == secret
        inventories.append(sorted(vars(secret)))
        serializations.append(secret.to_bytes())
    assert inventories[0] == ["anchor", "cap", "count", "mode",
                              "secret_exponent", "user_id"]
    assert len(set(inventories[0])) == 6
    assert serializations[0] == serializations[1] == serializations[2]
    # Case C metadata counts as mode metadata; nothing else may appear.
    rng = random.Random(0xAC07)
    _, secret_c = build_encrypted_profile(
        "audit-user", encode_numeric((1, 2), 3), 256, rng)
    assert sorted(vars(secret_c)) == inventories[0]
    with reporting(7, "device secret holds exactly (userId, d, R', mode "
                      "metadata); permuted set-ups with fixed seeds "
                      "serialize identically"):
        pass


def test_criterion_8_wire_equivalence(tmp_path):
    rng = random.Random(0xAC08)
    config = CarrierConfig(store_root=tmp_path / "store", seed=0xAC08)
    runs = 0
    with CarrierService(config) as service:
        for index in range(20):
            profile_set, sample_set, _ = overlap_instance(
                rng, rng.randint(1, 8), rng.randint(1, 8), 32)
            build_seed = rng.randrange(1 << 30)
            respond_seed = rng.randrange(1 << 30)
            profile, secret = build_encrypted_profile(
                "wire-user", profile_set, 128, random.Random(build_seed))
            client.store_profile(service.address, "wire-user", profile)
            over_wire = client.authenticate(service.address, secret,
                                            sample_set,
                                            rng=random.Random(respond_seed))
            challenge, session = carrier_challenge(
                profile, random.Random(7), sample_size=sample_set.size)
            entries = device_respond(secret, challenge, sample_set,
                                     random.Random(respond_seed))
            in_process = decide(carrier_score(session, entries), session)
            assert over_wire == in_process, f"run {index} diverged"
            runs += 1
    codec_rng = random.Random(0xAC58)
    for _ in range(1000):
        msg = random_message(codec_rng)
        assert wire.decode_frame(wire.encode_frame(msg)) == msg
    with reporting(8, f"{runs}/20 loopback decisions equal in-process "
                      f"decisions; 1000 generated messages round-trip the "
                      f"frame codec"):
        pass


@pytest.mark.slow
def test_criterion_9_benchmark_trend():
    seed = 0xAC09
    # Seeded, every repetition repeats the same computation, so the median
    # of three filters out load from other processes and nothing else.  At
    # small s set-up is mostly key generation, which does not grow with s.
    grid = bench_run([5, 10, 20, 40], key_bits=1024, solver="gaussian",
                     repetitions=3, seed=seed)
    top, = bench_run([50], key_bits=1024, solver="gaussian", repetitions=1,
                     seed=seed, include_auth=False)
    closed_40, = bench_run([40], key_bits=1024, solver="closed-form",
                           repetitions=1, seed=seed, include_auth=False)

    auth_20 = next(r for r in grid if r.set_size == 20).auth_seconds
    assert auth_20 <= 30, f"authentication at s=t=20 took {auth_20:.1f}s"
    assert top.setup_seconds <= 600, \
        f"gaussian set-up at s=50 took {top.setup_seconds:.1f}s"

    auth_series = [r.auth_seconds for r in grid]
    setup_series = [r.setup_seconds for r in grid]
    for name, series in (("auth", auth_series), ("setup", setup_series)):
        for earlier, later in zip(series, series[1:]):
            assert later >= 0.9 * earlier, \
                f"{name} series not monotone within 10%: {series}"
    gaussian_40 = next(r for r in grid if r.set_size == 40).setup_seconds
    assert gaussian_40 > closed_40.setup_seconds, \
        "gaussian set-up should cost more than closed-form at s=40"
    gaussian_20 = next(r for r in grid if r.set_size == 20).setup_seconds
    assert gaussian_40 > 2 * gaussian_20, \
        f"gaussian set-up should grow superlinearly: " \
        f"t(40)={gaussian_40:.1f}s vs t(20)={gaussian_20:.1f}s"
    with reporting(9, f"trends at 1024-bit keys: auth(20)={auth_20:.1f}s "
                      f"<= 30s, gaussian setup(50)={top.setup_seconds:.1f}s "
                      f"<= 600s, both series monotone within 10% jitter"):
        pass
