"""Responses built without the device's secrets must not score.

A misbehaving device controls every value of every triple it sends.  These
tests replay the known secret-free forgeries against a 512-bit profile and
check that the carrier refuses them, and that it refuses to count one
genuine triple twice, whether repeated or disguised as a variant of the
same ratio class.  Powers and products of genuine triples still score, and
the default threshold still follows the entry count the device chooses;
strict ``xfail`` tests pin both gaps.
"""

import random

import pytest

from psiauth import (
    AuthResponseEntry,
    FeatureMode,
    FeatureSet,
    ProtocolError,
    SessionError,
    build_encrypted_profile,
    carrier_challenge,
    carrier_score,
    decide,
    device_respond,
)

from helpers import distinct_values

PROFILE = distinct_values(random.Random(0xF0E), 10, 32)


@pytest.fixture(scope="module")
def enrolled():
    features = FeatureSet.from_values(FeatureMode.CASE_A, PROFILE)
    return build_encrypted_profile("mallory", features, 512,
                                   random.Random(0xAD5))


def score_raises(profile, entries, rng, match):
    _, session = carrier_challenge(profile, rng)
    with pytest.raises(ProtocolError, match=match):
        carrier_score(session, entries)
    # The forged response still burns its challenge.
    assert session.consumed
    with pytest.raises(SessionError):
        carrier_score(session, entries)


def test_unit_cipher_forgery_rejected(enrolled):
    # cipher = 1 and tag = correction satisfy the match predicate for every
    # session exponent.
    profile, _ = enrolled
    rng = random.Random(1)
    n_squared = profile.public_key.n_squared
    forged = [AuthResponseEntry(1, x, x)
              for x in (rng.randrange(2, n_squared) | 1 for _ in range(5))]
    score_raises(profile, forged, rng, "cipher")


def test_minus_one_cipher_forgery_rejected(enrolled):
    # (-1)**(n * theta) == (-1)**theta: this forgery matches in every
    # session with an odd exponent.  Refused in every session, alone or
    # repeated.
    profile, _ = enrolled
    n_squared = profile.public_key.n_squared
    forged = AuthResponseEntry(n_squared - 1, 1, n_squared - 1)
    rng = random.Random(2)
    for _ in range(10):
        score_raises(profile, [forged] * 5, rng, "cipher")
        score_raises(profile, [forged], rng, "cipher")


def test_repeated_genuine_triple_rejected(enrolled):
    profile, secret = enrolled
    rng = random.Random(3)
    challenge, session = carrier_challenge(profile, rng)
    sample = FeatureSet.from_values(FeatureMode.CASE_A, PROFILE[:1])
    genuine = device_respond(secret, challenge, sample, rng)
    assert carrier_score(session, genuine) == 1

    challenge, session = carrier_challenge(profile, rng)
    genuine = device_respond(secret, challenge, sample, rng)
    with pytest.raises(ProtocolError, match="repeat"):
        carrier_score(session, genuine * 2)
    assert session.consumed


def test_honest_response_unaffected(enrolled):
    profile, secret = enrolled
    rng = random.Random(4)
    challenge, session = carrier_challenge(profile, rng)
    sample = FeatureSet.from_values(FeatureMode.CASE_A,
                                    PROFILE[:3] + [1 << 40, 1 << 41])
    assert carrier_score(session,
                         device_respond(secret, challenge, sample, rng)) == 3


def variants(entry, n, n_squared, family):
    # Every variant keeps the match predicate of the genuine triple.
    if family == "unit":
        return [AuthResponseEntry(entry.cipher,
                                  entry.correction * w % n_squared,
                                  entry.tag * w % n_squared)
                for w in (1, 3, 5, 7, 11)]
    return [AuthResponseEntry(entry.cipher, entry.correction,
                              entry.tag * (1 + k * n) % n_squared)
            for k in range(5)]


@pytest.mark.parametrize("family", ["unit", "subgroup"])
def test_variants_of_one_genuine_triple_rejected(enrolled, family):
    # (c, x*w, t*w) and (c, x, t*(1 + k*n)) share the ratio class of one
    # genuine triple; counted separately they would score 5 matches.
    profile, secret = enrolled
    rng = random.Random(5)
    challenge, session = carrier_challenge(profile, rng)
    sample = FeatureSet.from_values(FeatureMode.CASE_A, PROFILE[:1])
    (entry,) = device_respond(secret, challenge, sample, rng)
    pk = profile.public_key
    with pytest.raises(ProtocolError, match="repeat"):
        carrier_score(session, variants(entry, pk.n, pk.n_squared, family))
    assert session.consumed


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="matching triples are closed under multiplication: "
                   "the powers of one genuine triple carry distinct ratio "
                   "classes and each scores")
def test_powers_of_one_genuine_triple_count_once(enrolled):
    # (c**k, x**k, t**k) satisfies the predicate with ratio r**k, a new
    # class for every k; building it needs no secret.
    profile, secret = enrolled
    rng = random.Random(6)
    challenge, session = carrier_challenge(profile, rng)
    sample = FeatureSet.from_values(FeatureMode.CASE_A, PROFILE[:1])
    (entry,) = device_respond(secret, challenge, sample, rng)
    n_squared = profile.public_key.n_squared
    powers = [AuthResponseEntry(pow(entry.cipher, k, n_squared),
                                pow(entry.correction, k, n_squared),
                                pow(entry.tag, k, n_squared))
              for k in range(1, 6)]
    assert carrier_score(session, powers) <= 1


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="without a stored threshold, decide derives the "
                   "default bar from the entry count, which the device "
                   "chooses")
def test_one_feature_alone_is_rejected(enrolled):
    # The profile has no stored threshold: one triple on one known profile
    # feature meets the majority of a one-entry sample, while the same
    # feature inside a five-value sample is rejected.
    profile, secret = enrolled
    rng = random.Random(8)
    challenge, session = carrier_challenge(profile, rng)
    sample = FeatureSet.from_values(FeatureMode.CASE_A, PROFILE[:1])
    entries = device_respond(secret, challenge, sample, rng)
    decision = decide(carrier_score(session, entries), profile, len(entries))
    assert decision.match_count == 1
    assert not decision.accepted
