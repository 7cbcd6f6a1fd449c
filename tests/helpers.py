"""Shared generators and independent checkers used across the test suite."""

from __future__ import annotations

import os
import random
import signal
import time

from psiauth import EncryptedProfile, FeatureMode, FeatureSet, \
    KeyGenerationError, wire
from psiauth.encoding import (
    MAX_COEFFS,
    MAX_ENTRIES,
    MAX_SESSION_ID_BYTES,
    MAX_USER_ID_BYTES,
    encode_bytes,
    encode_seq,
    encode_str,
    encode_uint,
    encode_uints,
)
from psiauth.paillier import PRIMALITY_ROUNDS, _assemble, _miller_rabin, \
    draw_unit
from psiauth.profiles import BLINDED_SEED_BYTES

# Tests keep feature values far below the smaller prime factor of each key
# size, so the profile polynomial cannot vanish modulo n at a non-member and
# scores are exact, not statistical.


def is_probable_prime(candidate: int,
                      rng: random.Random | None = None) -> bool:
    """Miller-Rabin primality test with ``PRIMALITY_ROUNDS`` random bases.

    A composite passes with probability at most ``4**-PRIMALITY_ROUNDS``,
    Rabin's worst case, which holds for a chosen candidate too; key
    generation's bound for random candidates says nothing about one.
    """
    return _miller_rabin(candidate, rng or random.SystemRandom(),
                         PRIMALITY_ROUNDS)


def keypair_from_primes(p: int, q: int, *, insecure_test_mode: bool = False):
    """A keypair from fixed primes, for reproducible micro-examples.

    Refused unless ``insecure_test_mode`` is set, since caller-chosen primes
    void every security property.
    """
    if not insecure_test_mode:
        raise KeyGenerationError(
            "injected primes are refused outside insecure test mode")
    if p == q:
        raise KeyGenerationError("primes must be distinct")
    if p % 2 == 0 or q % 2 == 0:
        raise KeyGenerationError("primes must be odd")
    for value in (p, q):
        if not is_probable_prime(value):
            raise KeyGenerationError(f"{value} is not prime")
    return _assemble(p, q)


def kill_one_worker(executor) -> None:
    """SIGKILL one worker of a process pool and wait until it is broken."""
    os.kill(next(iter(executor._processes)), signal.SIGKILL)
    deadline = time.monotonic() + 30
    while not executor._broken and time.monotonic() < deadline:
        time.sleep(0.01)
    assert executor._broken


def smallest_profile(pk, rng: random.Random) -> EncryptedProfile:
    """The smallest valid record under ``pk``: size 1, two random unit
    coefficients and a seed of zero bytes."""
    coeffs = (draw_unit(rng, pk.n_squared), draw_unit(rng, pk.n_squared))
    return EncryptedProfile(pk, coeffs, bytes(BLINDED_SEED_BYTES), 1,
                            FeatureMode.CASE_A)


def distinct_values(rng: random.Random, count: int, bits: int) -> list[int]:
    values: set[int] = set()
    while len(values) < count:
        values.add(rng.randrange(1, (1 << bits) + 1))
    return sorted(values)


def overlap_instance(rng: random.Random, profile_size: int, sample_size: int,
                     bits: int) -> tuple[FeatureSet, FeatureSet, int]:
    """Profile and sample with a uniformly drawn overlap size."""
    overlap = rng.randint(0, min(profile_size, sample_size))
    pool = distinct_values(rng, profile_size + sample_size - overlap, bits)
    rng.shuffle(pool)
    profile_values = pool[:profile_size]
    shared = rng.sample(profile_values, overlap)
    fresh = pool[profile_size:profile_size + sample_size - overlap]
    profile = FeatureSet.from_values(FeatureMode.CASE_A, profile_values)
    sample = FeatureSet.from_values(FeatureMode.CASE_A, shared + fresh)
    return profile, sample, overlap


def blinding_identity_holds(randomizers, anchor: int, roots, n_squared: int,
                            *, reduce_mod: int | None = None) -> bool:
    """Check the anchor identity at every root, with raw feature powers.

    ``reduce_mod`` may carry the unit-group exponent ``n * lambda(n)`` to
    keep the power sizes down; unit powers only depend on the exponent
    modulo that value, so the check stays equivalent to the raw one.
    """
    for root in roots:
        acc = randomizers[0]
        power = 1
        for k in range(1, len(randomizers)):
            power = power * root % reduce_mod if reduce_mod else power * root
            acc = acc * pow(randomizers[k], power, n_squared) % n_squared
        if acc != anchor:
            return False
    return True


def sort_merge_intersection(x, y) -> int:
    """Second, independent intersection counter for cross-checking."""
    a = sorted(set(x))
    b = sorted(set(y))
    i = j = count = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            count += 1
            i += 1
            j += 1
        elif a[i] < b[j]:
            i += 1
        else:
            j += 1
    return count


def malformed_frames() -> dict[str, bytes]:
    """Well-framed messages whose payloads a strict decoder must refuse."""
    modulus = encode_uint((1 << 61) - 1)
    session = encode_bytes(b"\x01" * 16)
    user = encode_str("mallory")
    case_a = bytes([FeatureMode.CASE_A])
    # Valid but for one length-prefixed field one byte over its limit.
    long_user = encode_str("m" * (MAX_USER_ID_BYTES + 1))
    long_session = encode_bytes(b"\x01" * (MAX_SESSION_ID_BYTES + 1))

    def seed_of(length):
        return encode_bytes(b"\x01" * length)

    seed = seed_of(BLINDED_SEED_BYTES)
    # Version 0x03 carried the blinded randomizers where the seed is now.
    blinded_list = encode_uints([2, 3])

    def profile(seed_field=seed):
        return modulus + encode_uints([2, 3]) + seed_field + \
            encode_uint(1) + case_a + encode_uint(0)

    def challenge(seed_field):
        return session + modulus + encode_uints([2, 3]) + seed_field + case_a

    payloads = {
        "store user id over limit": (0x01, long_user + profile()),
        "auth-init user id over limit": (0x03, long_user + encode_uint(1)),
        "response session id over limit": (
            0x05, long_session + encode_seq([encode_uint(2) + encode_uint(3)])),
        "challenge session id over limit": (
            0x04, long_session + modulus + encode_uints([2]) + seed + case_a),
        "challenge with no coefficients": (
            0x04, session + modulus + encode_uints([]) + seed + case_a),
        "challenge coefficient count over limit": (
            0x04, session + modulus + (MAX_COEFFS + 1).to_bytes(4, "big")),
        "challenge in the 0x03 layout": (0x04, challenge(blinded_list)),
        "challenge without a seed": (0x04, challenge(b"")),
        "challenge unknown mode tag": (
            0x04, session + modulus + encode_uints([2]) + seed + b"\x7e"),
        "profile coefficient count over limit": (
            0x01, user + modulus + (MAX_COEFFS + 1).to_bytes(4, "big")),
        "profile in the 0x03 layout": (0x01, user + profile(blinded_list)),
        "profile size": (
            0x01, user + modulus + encode_uints([2, 3]) + seed +
            encode_uint(2) + case_a + encode_uint(0)),
        "profile size 0": (
            0x01, user + modulus + encode_uints([2]) + seed +
            encode_uint(0) + case_a + encode_uint(0)),
        "profile seed of 33 bytes": (0x01, user + profile(seed_of(33))),
        "profile seed of 31 bytes": (0x01, user + profile(seed_of(31))),
        "challenge seed of 33 bytes": (0x04, challenge(seed_of(33))),
        "challenge seed of 31 bytes": (0x04, challenge(seed_of(31))),
        "response entry count over limit": (
            0x05, session + (MAX_ENTRIES + 1).to_bytes(4, "big")),
        "decision not in lowest terms": (
            0x06, encode_uint(1) + encode_uint(2) + encode_uint(4) +
            b"\x00" + case_a),
    }
    return {name: bytes([wire.PROTOCOL_VERSION, tag]) +
            len(payload).to_bytes(4, "big") + payload
            for name, (tag, payload) in payloads.items()}
