"""Shared generators and independent checkers used across the test suite."""

from __future__ import annotations

import random

from psiauth import FeatureMode, FeatureSet
from psiauth.encoding import (
    MAX_COEFFS,
    MAX_ENTRIES,
    encode_bytes,
    encode_str,
    encode_uint,
    encode_uints,
)

# Tests keep feature values far below the smaller prime factor of each key
# size, so the profile polynomial cannot vanish modulo n at a non-member and
# scores are exact, not statistical.


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
    payloads = {
        "challenge coefficient count over limit": (
            0x04, session + modulus + (MAX_COEFFS + 1).to_bytes(4, "big")),
        "challenge legs shorter": (
            0x04, session + modulus + encode_uints([2, 3, 4]) +
            encode_uints([2, 3]) + case_a),
        "challenge legs longer": (
            0x04, session + modulus + encode_uints([2, 3]) +
            encode_uints([2, 3, 4]) + case_a),
        "challenge unknown mode tag": (
            0x04, session + modulus + encode_uints([2]) + encode_uints([2]) +
            b"\x7e"),
        "profile coefficient count over limit": (
            0x01, user + modulus + (MAX_COEFFS + 1).to_bytes(4, "big")),
        "profile randomizer count": (
            0x01, user + modulus + encode_uints([2, 3]) + encode_uints([2]) +
            encode_uint(1) + case_a + encode_uint(0)),
        "profile size": (
            0x01, user + modulus + encode_uints([2, 3]) +
            encode_uints([2, 3]) + encode_uint(2) + case_a + encode_uint(0)),
        "response entry count over limit": (
            0x05, session + (MAX_ENTRIES + 1).to_bytes(4, "big")),
        "decision not in lowest terms": (
            0x06, encode_uint(1) + encode_uint(2) + encode_uint(4) +
            b"\x00" + case_a),
    }
    return {name: bytes([0x01, tag]) + len(payload).to_bytes(4, "big") +
            payload for name, (tag, payload) in payloads.items()}
