"""Responses built without the device's secrets must not score.

A misbehaving device controls both values of every entry it sends.  These
tests replay known forgeries against a 512-bit profile.  A forgery the
carrier refuses is a passing test; one it still counts, and the device's
answer to a challenge under a foreign modulus, is a strict ``xfail`` test.
THREAT_MODEL.md states what each test pins, and against which party.
"""

import dataclasses
import random

import pytest

from psiauth import (
    AuthChallenge,
    AuthResponseEntry,
    FeatureMode,
    FeatureSet,
    ProtocolError,
    SessionError,
    blinded_randomizers,
    build_encrypted_profile,
    carrier_challenge,
    carrier_score,
    decide,
    device_respond,
    encode_numeric,
)
from psiauth import PaillierPublicKey, client, protocol, wire
from psiauth.paillier import draw_unit
from psiauth.service import CarrierConfig, CarrierService

from helpers import audited_setup, distinct_values

PROFILE = distinct_values(random.Random(0xF0E), 10, 32)


@pytest.fixture(scope="module")
def enrolled():
    features = FeatureSet.from_values(FeatureMode.CASE_A, PROFILE)
    return build_encrypted_profile("mallory", features, 512,
                                   random.Random(0xAD5))


def score_raises(profile, entries, rng, match):
    # The forger declares what it sends; an empty response declares one.
    _, session = carrier_challenge(profile, rng,
                                   sample_size=len(entries) or 1)
    with pytest.raises(ProtocolError, match=match):
        carrier_score(session, entries)
    # The forged response still burns its challenge.
    assert session.consumed
    with pytest.raises(SessionError):
        carrier_score(session, entries)


def one_genuine_entry(profile, secret, rng, declared=1):
    """A genuine entry, and its session opened for ``declared`` entries:
    the count a forger built from the entry sends."""
    challenge, session = carrier_challenge(profile, rng,
                                           sample_size=declared)
    sample = FeatureSet.from_values(FeatureMode.CASE_A, PROFILE[:1])
    (entry,) = device_respond(secret, challenge, sample, rng)
    return entry, session


def test_carrier_reading_depends_on_rho_mod_n_only():
    # The carrier reads theta*d*rho*P(b) mod n from the (1+n) part of
    # cipher / ratio**(n*theta), for a matching and a non-matching value.
    # A randomizer's k, rho // n, shows in the ratio only.
    rng = random.Random(0x7A0)
    features = FeatureSet.from_values(FeatureMode.CASE_A, [5, 11, 17])
    profile, secret, audit = audited_setup("u", features, 128, rng)
    pk = profile.public_key
    n, n_squared, d = pk.n, pk.n_squared, secret.secret_exponent
    challenge, session = carrier_challenge(profile, rng, sample_size=2)
    theta = session.session_exponent
    blinded = blinded_randomizers(n, challenge.blinded_seed,
                                  len(challenge.powered_coeffs))
    context = (secret, challenge, blinded, pow(secret.anchor, d, n))

    def reading(entry):
        unmasked = entry.cipher * pow(entry.ratio, -n * theta, n_squared)
        low = unmasked % n_squared - 1
        assert low % n == 0
        return low // n

    bound = protocol.short_exponent_bound(n)
    rho = draw_unit(rng, n) + n * rng.randrange(bound)
    for value in (11, 12):
        p_b = sum(c * value ** i for i, c in enumerate(audit.coeffs)) % n
        assert (p_b == 0) == (value in features.values)
        entry = protocol._response_entry(context, (value, rho))
        shifted = protocol._response_entry(
            context, (value, rho + n * rng.randrange(1, bound)))
        assert reading(entry) == theta * d * rho * p_b % n
        assert reading(shifted) == reading(entry)
        assert shifted.ratio != entry.ratio


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

    entry, session = one_genuine_entry(profile, secret, rng, declared=2)
    with pytest.raises(ProtocolError, match="repeat"):
        carrier_score(session, [entry, entry])
    assert session.consumed


NUMERIC = (2, 3, 1, 4, 0, 5, 3, 2)  # t = 8, M = 5, |X| = 20


@pytest.mark.parametrize("delta", [1, -1], ids=["one-more", "one-fewer"])
@pytest.mark.parametrize("mode", ["case-a", "case-c"])
def test_entry_count_differs_from_declared_size(enrolled, tmp_path, mode,
                                                delta):
    # Cases A and C send one entry per sample value, so the carrier holds
    # the response to the sample size declared in AuthInit; the Case C
    # distance is computed from that size, not from the entry count.
    if mode == "case-a":
        profile, secret = enrolled
        declared = FeatureSet.from_values(FeatureMode.CASE_A, PROFILE[:4])
        sent = FeatureSet.from_values(FeatureMode.CASE_A, PROFILE[:4 + delta])
    else:
        profile, secret = build_encrypted_profile(
            "mallory", encode_numeric(NUMERIC, 5), 512, random.Random(0xC1))
        declared = encode_numeric(NUMERIC, 5)
        sent = encode_numeric(NUMERIC[:-1] + (NUMERIC[-1] + delta,), 5)
    assert sent.size == declared.size + delta
    config = CarrierConfig(store_root=tmp_path / "store", seed=0xC0)
    with CarrierService(config) as service:
        client.store_profile(service.address, "mallory", profile)
        with client.CarrierConnection(service.address) as conn:
            reply = conn.request(wire.AuthInit("mallory", declared.size))
            challenge = reply.challenge
            entries = device_respond(secret, challenge, sent,
                                     random.Random(11))
            response = wire.Response(challenge.session_id, tuple(entries))
            with pytest.raises(client.CarrierReplyError,
                               match="declared") as refused:
                conn.request(response)
            assert refused.value.code == wire.ERR_PROTOCOL
            # The refused response burned its session.
            with pytest.raises(client.CarrierReplyError) as replayed:
                conn.request(response)
            assert replayed.value.code == wire.ERR_SESSION


def test_honest_response_unaffected(enrolled):
    profile, secret = enrolled
    rng = random.Random(4)
    sample = FeatureSet.from_values(FeatureMode.CASE_A,
                                    PROFILE[:3] + [1 << 40, 1 << 41])
    challenge, session = carrier_challenge(profile, rng,
                                           sample_size=sample.size)
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
    entry, session = one_genuine_entry(profile, secret, rng,
                                       declared=2 if family == "unit" else 5)
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
    entry, session = one_genuine_entry(profile, secret, rng, declared=5)
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
    sample = FeatureSet.from_values(FeatureMode.CASE_A, PROFILE[:1])
    challenge, session = carrier_challenge(profile, rng,
                                           sample_size=sample.size)
    entries = device_respond(secret, challenge, sample, rng)
    decision = decide(carrier_score(session, entries), session)
    assert decision.match_count == 1
    assert not decision.accepted


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a holder of the record's C_i, without (d, R'), "
                   "sends (C'_i mod n)**n with the ratio C_i mod n for three "
                   "coefficients and scores 3 of 3, accepted at threshold 3")
def test_record_holder_forges_no_match(enrolled):
    # The record crosses the unauthenticated channel in StoreProfile, and
    # the carrier's store holds it.  For the challenge's powers C'_i =
    # C_i**theta, the ratio C_i mod n raised to n * theta is
    # (C'_i mod n)**n modulo n**2, which needs neither theta nor a secret.
    profile, _ = enrolled
    profile = dataclasses.replace(profile, threshold=3)
    pk = profile.public_key
    n = pk.n
    challenge, session = carrier_challenge(profile, random.Random(14),
                                           sample_size=3)
    forged = [AuthResponseEntry(pow(powered % n, n, pk.n_squared), coeff % n)
              for powered, coeff in zip(challenge.powered_coeffs[:3],
                                        profile.enc_coeffs[:3])]
    decision = decide(carrier_score(session, forged), session)
    assert decision.match_count == 0
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
    challenge, session = carrier_challenge(profile, rng,
                                           sample_size=len(values))
    entries = protocol.respond(secret, challenge, values, rng)
    decision = decide(carrier_score(session, entries), session)
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
    challenge, session = carrier_challenge(profile, rng, sample_size=20)
    entries = protocol.respond(secret, challenge, [1] * 20, rng)
    decision = decide(carrier_score(session, entries), session)
    assert decision.match_count <= u[0]
    assert not decision.accepted


# The device holds no modulus, so it answers a challenge under whatever
# modulus the challenge names: the carrier's, or a prime chosen by a man in
# the middle, for whom discrete logarithms are easy.  P - 1 = 2 * 3 * Q.
P, Q = 1000003, 166667

# The prober chooses the seed, though not the values it expands to.  This
# one was found by trying the seeds i.to_bytes(32, "big") from i = 0 up:
# the first whose B_1 modulo P has an order dividing 6 is i = 88286, with
# B_1 = P - 1.  About one seed in (P - 1) / 6 has such a B_1.
PROBE_SEED = (88286).to_bytes(32, "big")


def forged_challenge(powered):
    """A Case A challenge under the prime ``P`` with the seed
    ``PROBE_SEED``."""
    return AuthChallenge(b"forged", PaillierPublicKey(P),
                         powered, PROBE_SEED, FeatureMode.CASE_A)


def test_probe_seed_expands_to_a_b1_of_order_dividing_6():
    assert pow(blinded_randomizers(P, PROBE_SEED, 2)[1], 6, P) == 1


@pytest.mark.xfail(strict=True, raises=pytest.fail.Exception,
                   reason="the device keeps no modulus and answers a "
                   "challenge under any n")
def test_foreign_modulus_challenge_refused(enrolled):
    _, secret = enrolled
    sample = FeatureSet.from_values(FeatureMode.CASE_A, [7, 17, 23])
    with pytest.raises(ProtocolError):
        device_respond(secret, forged_challenge((2, 1)), sample,
                       random.Random(12))


def recover_sample(secret, sample, rng):
    """The sample as read from the device's answers to two forged
    challenges, or ``None`` if the device refuses them.

    Both legs are read in the order-``Q`` subgroup modulo ``P``, after a
    power of 6.  With ``B_0, B_1`` the seed's blinded randomizers and
    ``A = R'**d / (B_1**b * B_0)``, an entry is ``(2**(d*rho), A**rho)``
    for ``powered = (2, 1)`` and ``(2**(b*d*rho), A**rho)`` for ``(1, 2)``.
    So the logarithm of the cipher over that of the ratio is ``d / log A``
    in the first session and ``b`` times it in the second.  ``PROBE_SEED``
    gives ``B_1**6 == 1``, so after the power of 6 ``A`` no longer depends
    on ``b``, and every entry of the first session has the same slope.
    """
    generator = pow(2, 6, P)
    log, power = {}, 1
    for exponent in range(Q):
        log[power] = exponent
        power = power * generator % P

    def slopes(powered):
        try:
            entries = device_respond(secret, forged_challenge(powered),
                                     sample, rng)
        except ProtocolError:
            return None
        return sorted(log[pow(e.cipher, 6, P)] *
                      pow(log[pow(e.ratio, 6, P)], -1, Q) % Q
                      for e in entries)

    base, scaled = slopes((2, 1)), slopes((1, 2))
    if base is None or scaled is None:
        return None
    return tuple(sorted(s * pow(base[0], -1, Q) % Q for s in scaled))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="two challenges under a chosen prime give back "
                   "the device's fresh sample exactly")
def test_foreign_modulus_probe_learns_no_sample(enrolled):
    _, secret = enrolled
    sample = FeatureSet.from_values(FeatureMode.CASE_A, [7, 17, 23])
    assert recover_sample(secret, sample, random.Random(13)) != sample.values
