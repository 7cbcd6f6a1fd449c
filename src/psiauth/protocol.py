"""The three-message authentication protocol and the decision rule.

One authentication run:

1. The carrier opens a session for the sample size the device declares
   (``carrier_challenge``): it draws a session exponent ``theta``, raises
   every encrypted coefficient to it by a comb over the record's teeth
   (``challenge_teeth``, ``_comb_power``) and sends those powers with the
   record's seed of the blinded randomizers.
2. The device picks the values it answers with (``response_values``),
   builds one (cipher, ratio) entry per value under a fresh randomizer
   ``rho`` and its secret exponent ``d`` (``_response_entry``), and
   shuffles the entries (``respond``; ``device_respond`` and
   ``device_respond_weighted`` chain the two).
3. The carrier counts the entries whose cipher equals the ratio raised to
   ``n * theta`` modulo ``n**2``: those whose value is a profile feature
   (``carrier_score``).

The count is the set-intersection cardinality (Case A), the
similarity-weighted match total (Case B) or the pairwise-min sum of the
numeric vectors (Case C); ``decide`` turns it into a dissimilarity score and
an accept/reject outcome.

Powers modulo ``n**2`` run in digit pairs (``PaillierPublicKey.power``), and
the per-coefficient and per-entry powers run in the worker pool (``pool``).
What the count means against each party, and why the short ``theta`` and
``rho`` are safe, is stated in THREAT_MODEL.md.
"""

from __future__ import annotations

import math
import random
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .encoding import MAX_COEFFS, MAX_ENTRIES, MAX_SESSION_ID_BYTES, \
    Reader, encode_bytes, encode_uint, encode_uints
from .paillier import PaillierPublicKey, draw_unit
from .pool import _in_pool
from .profiles import BLINDED_SEED_BYTES, MAX_FEATURE_VALUE, DeviceSecret, \
    EncryptedProfile, FeatureMode, FeatureSet, blinded_randomizers, \
    encode_mode, read_mode, read_mode_params
from .similarity import SimilarityFunction

__all__ = [
    "INFINITE",
    "AuthChallenge",
    "AuthDecision",
    "AuthResponseEntry",
    "ModeMismatchError",
    "ProtocolError",
    "SessionError",
    "SessionState",
    "carrier_challenge",
    "carrier_score",
    "challenge_teeth",
    "decide",
    "device_respond",
    "device_respond_weighted",
    "respond",
    "response_values",
    "short_exponent_bound",
]

_SYSTEM = random.SystemRandom()

# Dissimilarity of two sets with no overlap at all.
INFINITE = float("inf")


class ProtocolError(RuntimeError):
    """The exchange violated a protocol invariant."""


class ModeMismatchError(ProtocolError):
    """Profile, secret and sample disagree on the scoring mode."""


class SessionError(ProtocolError):
    """Unknown, expired or already-consumed session."""


@dataclass(frozen=True)
class AuthChallenge:
    """Carrier message opening a session (step 1).

    ``blinded_seed`` is the record's seed, which the device expands into
    one blinded randomizer per powered coefficient.
    """

    session_id: bytes
    public_key: PaillierPublicKey
    powered_coeffs: tuple[int, ...]
    blinded_seed: bytes
    mode: FeatureMode
    count: int | None = None
    cap: int | None = None

    def __post_init__(self):
        if not self.powered_coeffs:
            raise ValueError("challenge has no coefficients")
        if len(self.blinded_seed) != BLINDED_SEED_BYTES:
            raise ValueError(f"blinded seed must be {BLINDED_SEED_BYTES} "
                             "bytes")

    def to_bytes(self) -> bytes:
        return (encode_bytes(self.session_id) + self.public_key.to_bytes() +
                encode_uints(self.powered_coeffs) +
                encode_bytes(self.blinded_seed) +
                encode_mode(self.mode, self.count, self.cap))

    @classmethod
    def from_reader(cls, reader: Reader) -> "AuthChallenge":
        session_id = reader.bytes_lp(MAX_SESSION_ID_BYTES)
        pk = PaillierPublicKey.from_reader(reader)
        powered = reader.uints(MAX_COEFFS)
        seed = reader.bytes_lp(BLINDED_SEED_BYTES)
        mode, count, cap = read_mode_params(reader)
        return reader.build(cls, session_id, pk, powered, seed, mode,
                            count=count, cap=cap)


@dataclass
class SessionState:
    """Carrier-private state for one challenge; single use.

    ``sample_size`` is the device's declared ``|Y|``, in
    ``[1, MAX_ENTRIES]``: the entry count a Case A or C response must have,
    and the ``|Y|`` that ``decide`` reads.
    """

    session_id: bytes
    session_exponent: int  # theta, uniform below short_exponent_bound(n)
    profile: EncryptedProfile
    created_at: float
    sample_size: int
    consumed: bool = False
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def consume(self) -> None:
        with self._lock:
            if self.consumed:
                raise SessionError("session already consumed")
            self.consumed = True


@dataclass(frozen=True)
class AuthResponseEntry:
    """One shuffled response pair (step 2).

    ``cipher`` carries the masked polynomial evaluation modulo ``n**2``, and
    ``ratio``, a unit in ``[1, n)``, is what the carrier raises to
    ``n * theta`` and compares against it.
    """

    cipher: int
    ratio: int

    def to_bytes(self) -> bytes:
        return encode_uint(self.cipher) + encode_uint(self.ratio)

    @classmethod
    def from_reader(cls, reader: Reader) -> "AuthResponseEntry":
        return cls(reader.uint(), reader.uint())


@dataclass(frozen=True)
class AuthDecision:
    """Match count, dissimilarity and the threshold comparison outcome."""

    match_count: int
    dissimilarity: Fraction | float
    accepted: bool
    mode: FeatureMode

    def to_bytes(self) -> bytes:
        if self.dissimilarity == INFINITE:
            numerator, denominator = 1, 0
        else:
            numerator = self.dissimilarity.numerator
            denominator = self.dissimilarity.denominator
        return (encode_uint(self.match_count) + encode_uint(numerator) +
                encode_uint(denominator) + bytes([self.accepted]) +
                bytes([self.mode]))

    @classmethod
    def from_reader(cls, reader: Reader) -> "AuthDecision":
        match_count = reader.uint()
        numerator = reader.uint()
        denominator = reader.uint()
        # Lowest terms, and 1/0 as the only infinity: one encoding per value.
        if math.gcd(numerator, denominator) != 1:
            reader.fail(f"non-canonical dissimilarity "
                        f"{numerator}/{denominator}")
        dissimilarity = Fraction(numerator, denominator) if denominator \
            else INFINITE
        accepted_byte = reader.byte()
        if accepted_byte > 1:
            reader.fail("accepted flag must be 0 or 1")
        return cls(match_count, dissimilarity, bool(accepted_byte),
                   read_mode(reader))


def short_exponent_bound(n: int) -> int:
    """The exclusive upper bound of both short exponents, a session
    exponent ``theta`` and a randomizer's ``k``: ``min(n, 2**256)``."""
    return min(n, 1 << 256)


# Teeth per challenged coefficient: the coefficient itself and four more.
_TEETH = 5


def _comb_width(n: int) -> int:
    """Bits per comb limb: ``_TEETH`` limbs cover any session exponent."""
    return -(-(short_exponent_bound(n) - 1).bit_length() // _TEETH)


def _coeff_teeth(pk: PaillierPublicKey, coeff: int) -> list[int]:
    """The teeth of ``coeff`` after ``coeff`` itself, in digit pairs."""
    width = _comb_width(pk.n)
    teeth = [coeff]
    for _ in range(_TEETH - 1):
        teeth.append(pk.power(teeth[-1], 1 << width))
    return teeth[1:]


def challenge_teeth(profile: EncryptedProfile) -> tuple[int, ...]:
    """``C_i**(2**(j * w))`` for each ``C_i`` and ``0 < j < _TEETH``, flat:
    the teeth ``carrier_challenge`` combs over, in one pooled job."""
    return tuple(tooth for teeth in _in_pool(_coeff_teeth, profile.public_key,
                                             list(profile.enc_coeffs))
                 for tooth in teeth)


def _comb_power(context: tuple[PaillierPublicKey, list[tuple[int, int]]],
                item: tuple[int, Sequence[int]]) -> int:
    """``C**theta`` for an item ``(C, teeth)``, over ``theta``'s steps.

    A fixed-base comb (Lim and Lee, CRYPTO 1994).  The teeth of ``C`` are
    ``C**(2**(j * w))`` for ``j < _TEETH``, with ``w = ceil(256 / 5) = 52``
    bits (``ceil(|n| / 5)`` for ``n`` below ``2**256``); the first is ``C``
    itself, so ``teeth`` holds the others.  Their ``2**_TEETH`` products
    form the comb's table, and ``theta``'s limbs, read one bit column at a
    time from the top, pick one entry per squaring: ``w`` squarings and up
    to ``w`` products, where a plain power takes 256 squarings.  The table
    and the walk run in base-``n`` digit pairs.  The teeth depend on the
    record alone, never on ``theta``, so a carrier keeps them beside the
    record (``service.ProfileStore.teeth``).  At 1024-bit keys the comb
    over stored teeth costs about 0.3 of a plain ``pow`` to a 256-bit
    ``theta``, and about 0.9 with the squarings to the teeth.
    """
    pk, steps = context
    base, teeth = item
    table = [(1, 0), pk.digits(base)]
    for tooth in teeth:
        tooth = pk.digits(tooth)
        table += [pk.times(entry, tooth) for entry in table]
    return pk.walk(table, steps)


def carrier_challenge(profile: EncryptedProfile,
                      rng: random.Random | None = None,
                      *,
                      sample_size: int,
                      teeth: Sequence[int] | None = None,
                      session_exponent: int | None = None,
                      ) -> tuple[AuthChallenge, SessionState]:
    """Open a session for a declared ``sample_size``: raise the encrypted
    coefficients to a fresh exponent.

    A ``sample_size`` outside ``[1, MAX_ENTRIES]`` raises ``ProtocolError``
    before anything is drawn.  The session keeps it: ``carrier_score``
    holds a Case A or C response to that many entries, and ``decide``
    reads it as ``|Y|``, so the device never picks its own denominator.

    Each power ``C_i**theta`` is a comb (``_comb_power``) over ``teeth``,
    the profile's ``challenge_teeth``, computed first if not given.
    ``theta`` is drawn from ``rng`` first, uniform in
    ``[1, short_exponent_bound(n))``, and the session id second;
    ``session_exponent`` replaces the draw of ``theta``, and one outside
    that range raises ``ValueError``.  THREAT_MODEL.md, "Short session
    exponents", says why 256 bits suffice.
    """
    if not 1 <= sample_size <= MAX_ENTRIES:
        raise ProtocolError(f"declared sample size outside [1, {MAX_ENTRIES}]")
    rng = rng or _SYSTEM
    bound = short_exponent_bound(profile.public_key.n)
    theta = session_exponent if session_exponent is not None \
        else rng.randrange(1, bound)
    if not 1 <= theta < bound:
        raise ValueError("session exponent outside [1, min(n, 2**256))")
    sid = rng.getrandbits(128).to_bytes(16, "big")
    if teeth is None:
        teeth = challenge_teeth(profile)
    per_coeff = _TEETH - 1
    if len(teeth) != per_coeff * len(profile.enc_coeffs):
        raise ValueError("teeth do not fit the profile's coefficients")
    items = [(coeff, teeth[k * per_coeff:(k + 1) * per_coeff])
             for k, coeff in enumerate(profile.enc_coeffs)]
    width = _comb_width(profile.public_key.n)
    steps = [(1, sum(((theta >> (j * width + bit)) & 1) << j
                     for j in range(_TEETH)))
             for bit in reversed(range(width))]
    powered = tuple(_in_pool(_comb_power, (profile.public_key, steps), items))
    challenge = AuthChallenge(sid, profile.public_key, powered,
                              profile.blinded_seed, profile.mode,
                              count=profile.count, cap=profile.cap)
    state = SessionState(sid, theta, profile, time.monotonic(), sample_size)
    return challenge, state


def _response_entry(
        context: tuple[DeviceSecret, AuthChallenge, Sequence[int], int],
        job: tuple[int, int]) -> AuthResponseEntry:
    """The entry for a job ``(value, rho)``.

    Both legs evaluate by Horner's rule in the exponent,
    ``acc = acc**value * C_i`` from the top coefficient down, so every
    exponent is the raw value on both legs and the encryption randomizers
    cancel carrier-side.  The carrier's ``n * theta`` power of a ratio
    depends on the ratio modulo ``n`` only, so the ratio leg runs modulo
    ``n``: the expanded blinded randomizers, ``anchor_d = R'**d mod n``, the
    Horner steps and the ``rho`` power.
    """
    secret, challenge, expanded, anchor_d = context
    value, randomizer = job
    pk = challenge.public_key
    n, n_squared = pk.n, pk.n_squared
    *lower_coeffs, cipher_acc = challenge.powered_coeffs
    *lower_blinded, blinded_acc = expanded
    for coeff, blinded in zip(reversed(lower_coeffs), reversed(lower_blinded)):
        cipher_acc = pk.power(cipher_acc, value) * coeff % n_squared
        blinded_acc = pow(blinded_acc, value, n) * blinded % n
    cipher = pk.power(cipher_acc, secret.secret_exponent * randomizer)
    ratio = pow(anchor_d * pow(blinded_acc, -1, n) % n, randomizer, n)
    return AuthResponseEntry(cipher, ratio)


def _check_params(secret: DeviceSecret, other: FeatureSet | AuthChallenge,
                  what: str) -> None:
    if (other.mode, other.count, other.cap) != \
            (secret.mode, secret.count, secret.cap):
        raise ModeMismatchError(
            f"modes or numeric parameters differ: {what} {other.mode.name} "
            f"t={other.count} M={other.cap} vs enrolled {secret.mode.name} "
            f"t={secret.count} M={secret.cap}")


def response_values(secret: DeviceSecret, sample: FeatureSet,
                    similarity: SimilarityFunction | None = None
                    ) -> list[int]:
    """The ascending values a response answers ``sample`` with.

    Cases A and C answer with the sample itself.  Case B answers with every
    value ``z`` in the union of supports, once per unit of its total weight
    against the sample, so profile features collect exactly their
    similarity weight in matches; Case A is Case B under the equality
    kernel.  The device refuses, before any session, a sample of another
    mode or another Case C ``(t, M)``, a Case B sample without a similarity
    table or with a value outside it, and a support that yields no entry or
    a value outside the feature domain.
    """
    _check_params(secret, sample, "sample")
    if secret.mode is not FeatureMode.CASE_B:
        return list(sample.values)
    if similarity is None:
        raise ValueError("Case B authentication needs a similarity table")
    totals: dict[int, int] = {}
    for y in sample.values:
        for z, weight in similarity.support_for(y):
            if not 1 <= z <= MAX_FEATURE_VALUE:
                raise ValueError(f"support value {z} outside [1, 2**128]")
            totals[z] = totals.get(z, 0) + weight
    if not totals:
        raise ProtocolError("similarity support yields an empty response")
    return [z for z in sorted(totals) for _ in range(totals[z])]


def respond(secret: DeviceSecret, challenge: AuthChallenge,
            values: Sequence[int], rng: random.Random | None = None
            ) -> list[AuthResponseEntry]:
    """One entry per listed value, randomizers drawn in list order, shuffled.

    The challenge must carry the secret's mode and Case C ``(t, M)``, or
    ``ModeMismatchError`` is raised.  Each randomizer is ``rho = t + n*k``:
    ``t`` is drawn first, a uniform unit below ``n``, then ``k``, uniform
    below ``short_exponent_bound(n)`` like ``theta``.  The entries are
    built in the worker pool, one process per usable CPU; on one CPU they
    are built in this process.  The randomizers and the shuffle come from
    ``rng`` in this process, so a seeded run is fully reproducible whatever
    the number of CPUs.  The blinded randomizers are expanded from the
    challenge's seed here, once, and they are units modulo ``n``, so every
    ratio is defined.  The secret holds no modulus, so a challenge under
    any other ``n`` is answered too, an open gap.  THREAT_MODEL.md, "Short
    device randomizers" and "Whoever answers under a foreign modulus", says
    what an entry shows and to whom.
    """
    _check_params(secret, challenge, "challenge")
    rng = rng or _SYSTEM
    pk = challenge.public_key
    anchor_d = pow(secret.anchor, secret.secret_exponent, pk.n)
    bound = short_exponent_bound(pk.n)
    jobs = [(value, draw_unit(rng, pk.n) + pk.n * rng.randrange(bound))
            for value in values]
    blinded = blinded_randomizers(pk.n, challenge.blinded_seed,
                                  len(challenge.powered_coeffs))
    entries = _in_pool(_response_entry, (secret, challenge, blinded, anchor_d),
                       jobs)
    rng.shuffle(entries)
    return entries


def device_respond(secret: DeviceSecret, challenge: AuthChallenge,
                   sample: FeatureSet, rng: random.Random | None = None
                   ) -> list[AuthResponseEntry]:
    """Answer ``sample`` in Case A or C (step 2): ``respond`` over its
    ``response_values``, one entry per sample value."""
    return respond(secret, challenge, response_values(secret, sample), rng)


def device_respond_weighted(secret: DeviceSecret, challenge: AuthChallenge,
                            sample: FeatureSet, sim: SimilarityFunction,
                            rng: random.Random | None = None
                            ) -> list[AuthResponseEntry]:
    """Answer a Case B ``sample`` (step 2'): ``respond`` over its
    ``response_values`` under ``sim``, one entry per unit of similarity, so
    the carrier's count is the double similarity sum."""
    if sample.mode is not FeatureMode.CASE_B:
        raise ModeMismatchError("weighted responses require a Case B sample")
    return respond(secret, challenge, response_values(secret, sample, sim),
                   rng)


def _matches(context: tuple[int, PaillierPublicKey],
             entry: AuthResponseEntry) -> bool:
    theta, pk = context
    return entry.cipher == pk.power(entry.ratio, theta * pk.n)


def carrier_score(session: SessionState,
                  entries: list[AuthResponseEntry]) -> int:
    """Count recognized entries (step 3) and consume the session.

    An entry matches when ``cipher == ratio ** (n * theta)`` modulo
    ``n**2``.  The session is claimed before any validation, so a
    malformed response, an empty one included, still burns its challenge.
    Then ``ProtocolError`` is raised for:

    * an empty response;
    * in Cases A and C, an entry count other than the session's declared
      ``sample_size``;
    * a cipher that is not a unit modulo ``n**2``, or a ratio that is not a
      unit in ``[1, n)``;
    * a cipher of ``1`` or ``n**2 - 1``;
    * a ratio whose class ``min(r, n - r)`` an earlier entry has.

    Every check runs on every entry, in this process and in entry order,
    before any match test starts; only the match tests run in the worker
    pool.  Why each refusal is there, and which forgeries still count, is
    in THREAT_MODEL.md, "The match count".
    """
    session.consume()
    if not entries:
        raise ProtocolError("empty response")
    if len(entries) != session.sample_size and \
            session.profile.mode is not FeatureMode.CASE_B:
        raise ProtocolError(f"response has {len(entries)} entries, "
                            f"{session.sample_size} declared")
    pk = session.profile.public_key
    n, n_squared = pk.n, pk.n_squared
    theta = session.session_exponent
    seen: set[int] = set()
    for entry in entries:
        for value, bound in ((entry.cipher, n_squared), (entry.ratio, n)):
            if not 1 <= value < bound or math.gcd(value, n) != 1:
                raise ProtocolError("response entry is not a unit below "
                                    "its modulus")
        if entry.cipher in (1, n_squared - 1):
            raise ProtocolError("response cipher is +-1, which scores "
                                "without the device's secrets")
        ratio_class = min(entry.ratio, n - entry.ratio)
        if ratio_class in seen:
            raise ProtocolError("response repeats a ratio class")
        seen.add(ratio_class)
    return sum(_in_pool(_matches, (theta, pk), list(entries)))


def default_threshold(profile: EncryptedProfile) -> int:
    """The bar for a profile stored without a threshold: a majority of the
    enrolled profile in Cases A and B, a quarter of the maximum L1 distance
    in Case C.  Both come from stored facts, never from the response."""
    if profile.mode is FeatureMode.CASE_C:
        assert profile.count is not None and profile.cap is not None
        return (profile.count * profile.cap + 3) // 4
    return (profile.size + 1) // 2


def decide(match_count: int, session: SessionState) -> AuthDecision:
    """Turn a match count into a dissimilarity score and an outcome.

    Everything but the count comes from ``session``: the stored record and
    the declared sample size ``|Y|``.  The threshold is the record's stored
    one, or ``default_threshold``.  Case A/B accept when the (weighted)
    match count reaches it; the dissimilarity is its reciprocal, infinite
    for zero matches.  Case C computes the L1 distance
    ``|X| + |Y| - 2 * matches`` from the stored profile size and the
    declared ``|Y|``, which ``carrier_score`` holds the entry count to, and
    accepts when it stays at or below the threshold.  The outcome is only
    as sound as the count: THREAT_MODEL.md, "The match count".
    """
    if match_count < 0:
        raise ValueError("match count must be >= 0")
    profile = session.profile
    threshold = profile.threshold or default_threshold(profile)
    if profile.mode is FeatureMode.CASE_C:
        distance = profile.size + session.sample_size - 2 * match_count
        if distance < 0:
            raise ProtocolError(
                "negative L1 distance signals a corrupted exchange")
        return AuthDecision(match_count, Fraction(distance),
                            distance <= threshold, profile.mode)
    dissimilarity = Fraction(1, match_count) if match_count else INFINITE
    return AuthDecision(match_count, dissimilarity,
                        match_count >= threshold, profile.mode)
