"""Responses built without the device's secrets must not score.

A misbehaving device controls both values of every entry it sends.  These
tests replay the known secret-free forgeries against a 512-bit profile and
check that the carrier refuses them, and that it refuses to count one
genuine entry twice, whether repeated, sign-flipped or sent with a
non-canonical ratio.  Every refused response, an empty one included, burns
its session.  Without a stored threshold the bar is a majority of the
enrolled profile, so one known feature sent once is rejected.  Powers and
products of genuine entries still score, and a device that holds ``(d, R')``
builds as many genuine matches as it likes from one known feature; strict
``xfail`` tests pin these gaps.
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
    encode_numeric,
)
from psiauth import protocol

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


def one_genuine_entry(profile, secret, rng):
    challenge, session = carrier_challenge(profile, rng)
    sample = FeatureSet.from_values(FeatureMode.CASE_A, PROFILE[:1])
    (entry,) = device_respond(secret, challenge, sample, rng)
    return entry, session


def test_unit_cipher_forgery_rejected(enrolled):
    # cipher = 1 and ratio = 1 satisfy the match predicate for every session
    # exponent; so does (1, r) whenever r**theta == 1 modulo n.
    profile, _ = enrolled
    rng = random.Random(1)
    n = profile.public_key.n
    forged = [AuthResponseEntry(1, r)
              for r in [1] + [rng.randrange(2, n) | 1 for _ in range(4)]]
    score_raises(profile, forged, rng, "cipher")


def test_minus_one_cipher_forgery_rejected(enrolled):
    # (n - 1)**(n * theta) == (-1)**theta modulo n**2: this forgery matches
    # in every session with an odd exponent.  Refused in every session,
    # alone or repeated.
    profile, _ = enrolled
    pk = profile.public_key
    forged = AuthResponseEntry(pk.n_squared - 1, pk.n - 1)
    rng = random.Random(2)
    for _ in range(10):
        score_raises(profile, [forged] * 5, rng, "cipher")
        score_raises(profile, [forged], rng, "cipher")


def test_empty_response_rejected(enrolled):
    # Refused after the session is claimed, like every malformed response.
    profile, _ = enrolled
    score_raises(profile, [], random.Random(7), "empty response")


def test_repeated_genuine_triple_rejected(enrolled):
    # A genuine (cipher, ratio) pair scores once, and is refused when sent
    # twice.
    profile, secret = enrolled
    rng = random.Random(3)
    entry, session = one_genuine_entry(profile, secret, rng)
    assert carrier_score(session, [entry]) == 1

    entry, session = one_genuine_entry(profile, secret, rng)
    with pytest.raises(ProtocolError, match="repeat"):
        carrier_score(session, [entry, entry])
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
    """The genuine entry followed by variants that match in some sessions.

    ``unit`` multiplies both values by the unit -1: ``(n**2 - c, n - r)``
    matches for every odd session exponent.  ``subgroup`` multiplies the
    ratio by ``1 + j*n`` modulo ``n**2``, which gives the non-canonical
    ``(c, r + k*n)``; it matches like ``(c, r)`` for every exponent.
    """
    if family == "unit":
        return [entry, AuthResponseEntry(n_squared - entry.cipher,
                                         n - entry.ratio)]
    return [AuthResponseEntry(entry.cipher, entry.ratio + k * n)
            for k in range(5)]


@pytest.mark.parametrize("family", ["unit", "subgroup"])
def test_variants_of_one_genuine_triple_rejected(enrolled, family):
    # The sign flip shares the genuine entry's ratio class min(r, n - r);
    # the non-canonical ratios lie outside [1, n).  Counted separately, the
    # sign flip would score 2 matches for an odd exponent, the non-canonical
    # ratios 5 for every exponent.
    profile, secret = enrolled
    rng = random.Random(5)
    entry, session = one_genuine_entry(profile, secret, rng)
    pk = profile.public_key
    refusal = "repeat" if family == "unit" else "unit below"
    with pytest.raises(ProtocolError, match=refusal):
        carrier_score(session, variants(entry, pk.n, pk.n_squared, family))
    assert session.consumed


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="matching entries are closed under "
                   "multiplication: the powers of one genuine entry are the "
                   "genuine entries for randomizers k*rho, each with a ratio "
                   "class of its own, and each scores")
def test_powers_of_one_genuine_triple_count_once(enrolled):
    # (c**k mod n**2, r**k mod n) satisfies the predicate with the new class
    # of r**k for every k; building it needs no secret.
    profile, secret = enrolled
    rng = random.Random(6)
    entry, session = one_genuine_entry(profile, secret, rng)
    pk = profile.public_key
    powers = [AuthResponseEntry(pow(entry.cipher, k, pk.n_squared),
                                pow(entry.ratio, k, pk.n))
              for k in range(1, 6)]
    assert carrier_score(session, powers) <= 1


def test_one_feature_alone_is_rejected(enrolled):
    # The profile has no stored threshold, so the bar is a majority of its
    # ten features: one entry on one known feature falls short, although it
    # is every entry of the response.
    profile, secret = enrolled
    rng = random.Random(8)
    challenge, session = carrier_challenge(profile, rng)
    sample = FeatureSet.from_values(FeatureMode.CASE_A, PROFILE[:1])
    entries = device_respond(secret, challenge, sample, rng)
    decision = decide(carrier_score(session, entries), profile, len(entries))
    assert decision.match_count == 1
    assert not decision.accepted


# A stolen device holds (d, R'), so every entry it builds is genuine.  Each
# copy of a known feature gets a fresh randomizer and so a ratio class of its
# own, and b + k*n evaluates like the feature b.  The carrier never sees the
# value, so it cannot refuse either.


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a holder of (d, R') who knows one profile "
                   "feature sends it 5 times and scores 5, accepted")
@pytest.mark.parametrize("spread", ["fresh-randomizers", "plus-k-n"])
def test_stolen_device_repeating_one_feature_is_rejected(enrolled, spread):
    profile, secret = enrolled
    rng = random.Random(9)
    n = profile.public_key.n
    values = [PROFILE[0] + (k * n if spread == "plus-k-n" else 0)
              for k in range(5)]
    challenge, session = carrier_challenge(profile, rng)
    entries = protocol._respond(secret, challenge, values, rng)
    decision = decide(carrier_score(session, entries), profile, len(entries))
    assert decision.match_count <= 1
    assert not decision.accepted


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a holder of (d, R') sends the Case C value 1, a "
                   "root whenever u_1 >= 1, 20 times: distance 0, accepted")
def test_stolen_device_repeating_one_numeric_value_is_rejected():
    u = (2, 3, 1, 4, 0, 5, 3, 2)  # t = 8, M = 5, |X| = 20
    profile, secret = build_encrypted_profile(
        "mallory", encode_numeric(u, 5), 512, random.Random(0xC0), threshold=10)
    rng = random.Random(10)
    challenge, session = carrier_challenge(profile, rng)
    entries = protocol._respond(secret, challenge, [1] * 20, rng)
    decision = decide(carrier_score(session, entries), profile, len(entries))
    assert decision.match_count <= u[0]
    assert not decision.accepted
