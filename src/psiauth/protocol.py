"""The three-message authentication protocol and the decision rule.

One authentication run:

1. The carrier draws a fresh session exponent, raises every encrypted
   coefficient to it and sends those powers plus the stored blinded
   randomizers (``carrier_challenge``).
2. The device picks the values it answers with (``response_values``): the
   sample itself in Cases A and C, and in Case B every support value once
   per unit of its similarity weight, so Case A is Case B under the
   equality kernel.  For each value it evaluates the powered polynomial in
   the exponent and masks it with a per-value randomizer ``rho`` and its
   secret exponent ``d``.  It evaluates the blinded randomizers the same
   way, modulo ``n``, and emits the pair (cipher, ratio), where the ratio
   is ``(R'**d / blinded evaluation) ** rho mod n``; the pairs are shuffled
   before transmission (``respond``; ``device_respond`` and
   ``device_respond_weighted`` chain the two).
3. The carrier raises each ratio to ``n * theta`` and compares it against
   the cipher; the two collide exactly when the value is a profile feature
   (``carrier_score``).

The count of collisions is the set-intersection cardinality (Case A), the
similarity-weighted match total (Case B) or the pairwise-min sum of the
numeric vectors (Case C); ``decide`` turns it into a dissimilarity score and
an accept/reject outcome.

The carrier only ever needs the ratio modulo ``n``: its ``n * theta`` power
depends on nothing else.  So the whole ratio leg lives modulo ``n``: the
record and the challenge carry the blinded randomizers in ``[1, n)``, and
the device computes ``R'**d`` once per response, the Horner steps and the
``rho`` power modulo ``n``.

Every full-width power modulo ``n**2`` after set-up runs in base-``n``
digit pairs (``PaillierPublicKey.power`` and ``walk``), which reduce each
product by ``n`` rather than by ``n**2`` and give the same integer as
``pow`` at about two thirds to three quarters of its cost at 1024-bit keys:
the device's Horner steps and its cipher mask ``acc**(d * rho)``, the
carrier's ``n * theta`` power in each match test, and the challenge comb with
the squarings to its teeth.  ``power`` splits every exponent of at least
``n`` at ``n``, into a half-width ``pow`` modulo ``n`` and one chain of
``|n|`` squarings modulo ``n**2``: the mask's exponent of about ``3|n|``
bits takes ``|n|`` squarings there instead of ``3|n|``, and the match test
is a power to ``theta`` modulo ``n`` and an ``n``-th power.

The device evaluates both response legs by Horner's rule in the exponent,
``acc = acc**b * C_i`` from the top coefficient down, so every exponent is the
raw feature ``b`` rather than a power ``b**i``.  Both legs use the same
exponents, so the encryption randomizers cancel carrier-side.

The challenge powers ``C_i**theta`` have the same bases in every session, so
the carrier computes each as a fixed-base comb (Lim and Lee, CRYPTO 1994)
over the coefficient's teeth ``C_i**(2**(j * w))``, ``j < 6``,
``w = ceil(|n| / 6)``: ``w`` squarings and up to ``w`` products, where a
plain power takes ``|n|`` squarings.  The teeth are public values derived
from the stored record alone, never from ``theta``, so the carrier keeps
them beside the record (``service.ProfileStore.teeth``) from its first
challenge on.  Squaring to them (``challenge_teeth``) and then running the
comb costs about 0.8 of a plain ``pow`` at 1024 bits; the comb over stored
teeth costs about 0.28.

The per-entry powers are independent, so they run in one persistent pool of
forked worker processes, one per usable CPU, created on first use (``pool``):
key generation's Miller-Rabin rounds after a candidate's first
(``paillier.is_probable_prime``), set-up's coefficient encryptions and
blinded randomizers (``profiles``), the challenge's teeth and
``C_i**theta``, the device's entries and the carrier's match tests.
Everything else stays in the calling process: every random draw,
``R'**d``, the shuffle, and every check ``carrier_score`` makes before it
tests a match.  The secrets ``p``, ``q``, ``d``, ``rho`` and ``theta``
thus cross a pipe only to forked children of the process that holds them.  A dead worker costs one call its parallelism, not its result:
the call finishes in-process and the next one builds a new pool.
"""

from __future__ import annotations

import math
import random
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .encoding import MAX_COEFFS, MAX_SESSION_ID_BYTES, Reader, \
    encode_bytes, encode_uint, encode_uints
from .paillier import PaillierPublicKey, draw_unit
from .pool import _in_pool
from .profiles import MAX_FEATURE_VALUE, DeviceSecret, EncryptedProfile, \
    FeatureMode, FeatureSet, _check_blinded, encode_mode, read_mode, \
    read_mode_params
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
    """Carrier message opening a session (step 1)."""

    session_id: bytes
    public_key: PaillierPublicKey
    powered_coeffs: tuple[int, ...]
    blinded_randomizers: tuple[int, ...]
    mode: FeatureMode
    count: int | None = None
    cap: int | None = None

    def __post_init__(self):
        if not self.powered_coeffs:
            raise ValueError("challenge has no coefficients")
        if len(self.powered_coeffs) != len(self.blinded_randomizers):
            raise ValueError("challenge legs differ in length")
        _check_blinded(self.public_key, self.blinded_randomizers)

    def to_bytes(self) -> bytes:
        return (encode_bytes(self.session_id) + self.public_key.to_bytes() +
                encode_uints(self.powered_coeffs) +
                encode_uints(self.blinded_randomizers) +
                encode_mode(self.mode, self.count, self.cap))

    @classmethod
    def from_reader(cls, reader: Reader) -> "AuthChallenge":
        session_id = reader.bytes_lp(MAX_SESSION_ID_BYTES)
        pk = PaillierPublicKey.from_reader(reader)
        powered = reader.uints(MAX_COEFFS)
        blinded = reader.uints(MAX_COEFFS)
        mode, count, cap = read_mode_params(reader)
        return reader.build(cls, session_id, pk, powered, blinded, mode,
                            count=count, cap=cap)


@dataclass
class SessionState:
    """Carrier-private state for one challenge; single use."""

    session_id: bytes
    session_exponent: int  # theta, uniform in [1, n)
    profile: EncryptedProfile
    created_at: float
    sample_size: int | None = None  # declared by the device, if it did
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


# Teeth per challenged coefficient: the coefficient itself and five more.
_TEETH = 6


def _comb_width(n: int) -> int:
    """Bits per comb limb: ``_TEETH`` limbs cover any exponent below ``n``."""
    return -(-n.bit_length() // _TEETH)


def _teeth_chunk(pk: PaillierPublicKey, coeffs: list[int]) -> list[int]:
    """The teeth of each ``C`` after ``C`` itself, flat, in digit pairs."""
    width = _comb_width(pk.n)
    out = []
    for tooth in coeffs:
        for _ in range(_TEETH - 1):
            tooth = pk.power(tooth, 1 << width)
            out.append(tooth)
    return out


def challenge_teeth(profile: EncryptedProfile) -> tuple[int, ...]:
    """``C_i**(2**(j * w))`` for each coefficient ``C_i`` and ``0 < j < 6``,
    flat: the teeth ``carrier_challenge`` combs over, in one pooled job."""
    return tuple(_in_pool(_teeth_chunk, profile.public_key,
                          list(profile.enc_coeffs)))


def _challenge_chunk(context: tuple[int, PaillierPublicKey],
                     items: list[tuple[int, Sequence[int]]]) -> list[int]:
    """``C**theta`` for each ``(C, teeth)``.

    The teeth of ``C`` are ``C**(2**(j * w))`` for ``j < _TEETH``; the
    first is ``C`` itself, so ``teeth`` holds the others.  Their
    ``2**_TEETH`` products form the comb's table, and ``theta``'s limbs,
    read one bit column at a time from the top, pick one entry per squaring
    (Lim and Lee, CRYPTO 1994).  The table and the walk run in base-``n``
    digit pairs.
    """
    theta, pk = context
    width = _comb_width(pk.n)
    steps = [(1, sum(((theta >> (j * width + bit)) & 1) << j
                     for j in range(_TEETH)))
             for bit in reversed(range(width))]
    out = []
    for base, teeth in items:
        table = [(1, 0), pk.digits(base)]
        for tooth in teeth:
            tooth = pk.digits(tooth)
            table += [pk.times(entry, tooth) for entry in table]
        out.append(pk.walk(table, steps))
    return out


def carrier_challenge(profile: EncryptedProfile,
                      rng: random.Random | None = None,
                      *,
                      teeth: Sequence[int] | None = None,
                      session_exponent: int | None = None,
                      session_id: bytes | None = None,
                      ) -> tuple[AuthChallenge, SessionState]:
    """Open a session: raise the encrypted coefficients to a fresh exponent.

    Each power ``C_i**theta`` is a comb over ``teeth``, the profile's
    ``challenge_teeth``, computed first if not given (see the module
    docstring).  ``session_exponent`` and ``session_id`` replace the draws
    from ``rng``, so a carrier can lock its generator for the draws only.
    """
    rng = rng or _SYSTEM
    n = profile.public_key.n
    theta = session_exponent if session_exponent is not None \
        else rng.randrange(1, n)
    if not 1 <= theta < n:
        raise ValueError("session exponent outside [1, n)")
    sid = session_id if session_id is not None \
        else rng.getrandbits(128).to_bytes(16, "big")
    if teeth is None:
        teeth = challenge_teeth(profile)
    per_coeff = _TEETH - 1
    if len(teeth) != per_coeff * len(profile.enc_coeffs):
        raise ValueError("teeth do not fit the profile's coefficients")
    items = [(coeff, teeth[k * per_coeff:(k + 1) * per_coeff])
             for k, coeff in enumerate(profile.enc_coeffs)]
    powered = tuple(_in_pool(_challenge_chunk, (theta, profile.public_key),
                             items))
    challenge = AuthChallenge(sid, profile.public_key, powered,
                              profile.blinded_randomizers, profile.mode,
                              count=profile.count, cap=profile.cap)
    state = SessionState(sid, theta, profile, time.monotonic())
    return challenge, state


def _response_entry(value: int, randomizer: int, secret: DeviceSecret,
                    challenge: AuthChallenge,
                    anchor_d: int) -> AuthResponseEntry:
    pk = challenge.public_key
    n, n_squared = pk.n, pk.n_squared
    # Horner's rule in the exponent, top coefficient first: the exponents are
    # the raw feature on both legs, so the encryption randomizers still cancel.
    *lower_coeffs, cipher_acc = challenge.powered_coeffs
    *lower_blinded, blinded_acc = challenge.blinded_randomizers
    for coeff, blinded in zip(reversed(lower_coeffs), reversed(lower_blinded)):
        cipher_acc = pk.power(cipher_acc, value) * coeff % n_squared
        blinded_acc = pow(blinded_acc, value, n) * blinded % n
    if math.gcd(blinded_acc, n) != 1:
        raise ProtocolError("challenge's blinded randomizers evaluate to a "
                            "non-unit modulo n")
    cipher = pk.power(cipher_acc, secret.secret_exponent * randomizer)
    ratio = pow(anchor_d * pow(blinded_acc, -1, n) % n, randomizer, n)
    return AuthResponseEntry(cipher, ratio)


def _response_chunk(context: tuple[DeviceSecret, AuthChallenge, int],
                    jobs: list[tuple[int, int]]) -> list[AuthResponseEntry]:
    secret, challenge, anchor_d = context
    return [_response_entry(value, randomizer, secret, challenge, anchor_d)
            for value, randomizer in jobs]


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

    The challenge must carry the secret's mode and Case C ``(t, M)``.  The
    entries are built in the worker pool, one process per usable CPU; on
    one CPU they are built in this process.  The randomizers and the
    shuffle come from ``rng`` in this process, so a seeded run is fully
    reproducible whatever the number of CPUs.  A challenge whose blinded
    randomizers evaluate to a non-unit modulo ``n`` raises
    ``ProtocolError``.  The secret holds no modulus, so any other ``n`` is
    answered too (an open gap, see the README threat model).
    """
    _check_params(secret, challenge, "challenge")
    rng = rng or _SYSTEM
    pk = challenge.public_key
    anchor_d = pow(secret.anchor, secret.secret_exponent, pk.n)
    jobs = [(value, draw_unit(rng, pk.n_squared)) for value in values]
    entries = _in_pool(_response_chunk, (secret, challenge, anchor_d), jobs)
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


def _match_chunk(context: tuple[int, PaillierPublicKey],
                 entries: list[AuthResponseEntry]) -> list[bool]:
    theta, pk = context
    return [entry.cipher == pk.power(entry.ratio, theta * pk.n)
            for entry in entries]


def carrier_score(session: SessionState,
                  entries: list[AuthResponseEntry]) -> int:
    """Count recognized entries (step 3) and consume the session.

    An entry matches when ``cipher == ratio ** (n * theta)`` modulo
    ``n**2``.  ``PaillierPublicKey.power`` splits that exponent at ``n``
    into a half-width power to ``theta`` modulo ``n`` and an ``n``-th power
    in digit pairs.  The session is claimed before any validation, so a
    malformed response, an empty one included, still burns its challenge.
    Every check below runs on every entry, in this process and in entry
    order, before any match test starts; only the match tests run in the
    worker pool.

    The cipher must be a unit modulo ``n**2`` and the ratio a unit in
    ``[1, n)``.  The range keeps ``(c, r + k*n)``, which matches like
    ``(c, r)``, from posing as an entry of its own.

    A party that knows neither ``d`` nor ``R'`` can still satisfy the
    predicate with a ratio ``w`` of small order ``k`` modulo ``n``: the
    ``n * theta`` power then takes one of only ``k`` values, whatever
    ``theta`` is, and a guessed cipher scores with probability about
    ``1/k``.  ``w = 1`` always gives ``cipher = 1`` and ``w = n - 1`` gives
    ``cipher = n**2 - 1`` for every odd ``theta``; both ciphers are refused.
    Every other unit of small known order modulo ``n`` is a nontrivial root
    of unity, and writing one down is believed to need the factorization of
    ``n``: a square root of 1 other than ``+-1``, for instance, splits ``n``
    through ``gcd(w - 1, n)``.

    Such a party can also reuse the genuine entries of the current session,
    as a man in the middle could: send one twice, or flip its sign as
    ``(n**2 - c, n - r)``, which matches for every odd ``theta``.  A response
    that repeats a ratio class ``min(r, n - r)`` is refused; honest entries
    carry independent randomizers, so their classes collide with negligible
    probability.  Matching entries are closed under multiplication, though:
    the powers ``(c**k, r**k)`` of a genuine entry, and the products of two,
    match with classes of their own, and no check on repeated classes can
    refuse them.

    Against a party without ``(d, R')`` the count is otherwise sound.  A
    party that holds them, a thief with the phone or its secret file, builds
    genuine entries at will: knowing k profile features, it reaches any
    count by sending each with fresh randomizers, or as ``b + j*n``, which
    evaluates like the feature ``b``.  The ratio-class refusal does not stop
    it.  In Cases A and C, a session opened for a declared sample size
    refuses a response with any other entry count, so ``decide`` takes
    Case C's ``|Y|`` from the declaration, not from the entries.  The device
    declares that size too, so a thief declares what it sends.  Case B
    sends one entry per unit of similarity, and bounding its entry count
    needs a bound stored at set-up, which is still open.
    """
    session.consume()
    if not entries:
        raise ProtocolError("empty response")
    declared = session.sample_size
    if declared is not None and len(entries) != declared and \
            session.profile.mode is not FeatureMode.CASE_B:
        raise ProtocolError(f"response has {len(entries)} entries, "
                            f"{declared} declared")
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
    return sum(_in_pool(_match_chunk, (theta, pk), list(entries)))


def default_threshold(profile: EncryptedProfile) -> int:
    """The bar for a profile stored without a threshold: a majority of the
    enrolled profile in Cases A and B, a quarter of the maximum L1 distance
    in Case C.  Both come from stored facts, never from the response."""
    if profile.mode is FeatureMode.CASE_C:
        assert profile.count is not None and profile.cap is not None
        return (profile.count * profile.cap + 3) // 4
    return (profile.size + 1) // 2


def decide(match_count: int, profile: EncryptedProfile,
           sample_size: int) -> AuthDecision:
    """Turn a match count into a dissimilarity score and an outcome.

    The threshold is the profile's stored one, or ``default_threshold``.
    Case A/B accept when the (weighted) match count reaches it; the
    dissimilarity is its reciprocal, infinite for zero matches.  Case C
    computes the L1 distance ``|X| + |Y| - 2 * matches`` from the stored
    profile size and the sample size ``|Y|`` and accepts when it stays at
    or below the threshold; the carrier passes the declared sample size,
    which ``carrier_score`` holds the entry count to.

    The outcome is only as sound as the count (see ``carrier_score``): it
    holds against a party without the device's ``(d, R')``, but a party
    that holds them and knows k profile features can reach any count, and
    so any outcome.
    """
    if match_count < 0 or sample_size < 1:
        raise ValueError("match count must be >= 0 and sample size >= 1")
    threshold = profile.threshold or default_threshold(profile)
    if profile.mode is FeatureMode.CASE_C:
        distance = profile.size + sample_size - 2 * match_count
        if distance < 0:
            raise ProtocolError(
                "negative L1 distance signals a corrupted exchange")
        return AuthDecision(match_count, Fraction(distance),
                            distance <= threshold, profile.mode)
    dissimilarity = Fraction(1, match_count) if match_count else INFINITE
    return AuthDecision(match_count, dissimilarity,
                        match_count >= threshold, profile.mode)
