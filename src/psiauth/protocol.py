"""The three-message authentication protocol and the decision rule.

One authentication run:

1. The carrier draws a fresh session exponent, raises every encrypted
   coefficient to it and sends those powers plus the record's seed of the
   blinded randomizers (``carrier_challenge``).
2. The device picks the values it answers with (``response_values``): the
   sample itself in Cases A and C, and in Case B every support value once
   per unit of its similarity weight, so Case A is Case B under the
   equality kernel.  For each value it evaluates the powered polynomial in
   the exponent and masks it with a per-value randomizer ``rho`` and its
   secret exponent ``d``.  It expands the seed into the blinded
   randomizers once per challenge (``profiles.blinded_randomizers``),
   evaluates them the same way, modulo ``n``, and emits the pair (cipher,
   ratio), where the ratio is ``(R'**d / blinded evaluation) ** rho mod
   n``; the pairs are shuffled before transmission (``respond``;
   ``device_respond`` and ``device_respond_weighted`` chain the two).
3. The carrier raises each ratio to ``n * theta`` and compares it against
   the cipher; the two collide exactly when the value is a profile feature
   (``carrier_score``).

The count of collisions is the set-intersection cardinality (Case A), the
similarity-weighted match total (Case B) or the pairwise-min sum of the
numeric vectors (Case C); ``decide`` turns it into a dissimilarity score and
an accept/reject outcome.

The carrier only ever needs the ratio modulo ``n``: its ``n * theta`` power
depends on nothing else.  So the whole ratio leg lives modulo ``n``: the
seed expands to units in ``[1, n)``, and the device computes ``R'**d``
once per response, the Horner steps and the ``rho`` power modulo ``n``.

Every full-width power modulo ``n**2`` after set-up runs in base-``n``
digit pairs (``PaillierPublicKey.power`` and ``walk``), which reduce each
product by ``n`` rather than by ``n**2`` and give the same integer as
``pow`` at about two thirds to three quarters of its cost at 1024-bit keys:
the device's Horner steps and its cipher mask ``acc**(d * rho)``, the
carrier's ``n * theta`` power in each match test, and the challenge comb with
the squarings to its teeth.  ``power`` splits every exponent of at least
``n`` at ``n``, into a half-width ``pow`` modulo ``n`` and one chain of
``|n|`` squarings modulo ``n**2``: the mask's exponent ``d * rho``, of
about ``2|n| + 256`` bits, takes ``|n|`` squarings there and a half-width
power to ``|n| + 256`` bits, and the match test is a power to ``theta``
modulo ``n`` and an ``n``-th power.

Each randomizer is ``rho = t + n*k``, with ``t`` a uniform unit below
``n`` and ``k`` uniform below ``short_exponent_bound(n)``, so the ratio
power and the mask's half-width power take exponents of ``|n| + 256``
bits; ``respond`` says why the short ``k`` is safe.

The device evaluates both response legs by Horner's rule in the exponent,
``acc = acc**b * C_i`` from the top coefficient down, so every exponent is the
raw feature ``b`` rather than a power ``b**i``.  Both legs use the same
exponents, so the encryption randomizers cancel carrier-side.

The session exponent ``theta`` is drawn below ``short_exponent_bound(n)``,
``min(n, 2**256)``; ``carrier_challenge`` says why 256 bits suffice.  The
challenge powers ``C_i**theta`` have the same bases in every session, so
the carrier computes each as a fixed-base comb (Lim and Lee, CRYPTO 1994)
over the coefficient's teeth ``C_i**(2**(j * w))``, ``j < 5``,
``w = ceil(256 / 5) = 52`` bits (``ceil(|n| / 5)`` for ``n`` below
``2**256``): ``w`` squarings and up to ``w`` products, where a plain power
takes 256 squarings.  The teeth are public values derived from the stored
record alone, never from ``theta``, so the carrier keeps them beside the
record (``service.ProfileStore.teeth``) from its first challenge on.
Squaring to them (``challenge_teeth``) and then running the comb costs
about 0.9 of a plain ``pow`` to a 256-bit ``theta`` at 1024 bits; the comb
over stored teeth costs about 0.3.

The per-entry powers are independent, so they run in one persistent pool of
forked worker processes, one per usable CPU, created on first use (``pool``):
key generation's Miller-Rabin rounds after a candidate's first
(``paillier._miller_rabin``), set-up's coefficient encryptions with the
roots of the blinded randomizers they need (``profiles``), the challenge's
teeth and ``C_i**theta``, the device's entries and the carrier's match
tests.  Everything else stays in the calling process: every random draw,
the seed's expansion, ``R'**d``, the shuffle, and every check
``carrier_score`` makes before it tests a match.  The secrets ``p``,
``q``, ``d``, ``rho`` and ``theta`` thus cross a pipe only to forked
children of the process that holds them.

A dead worker costs one call its parallelism, not its result: the call
finishes in-process and the next one builds a new pool.
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

    The teeth of ``C`` are ``C**(2**(j * w))`` for ``j < _TEETH``; the
    first is ``C`` itself, so ``teeth`` holds the others.  Their
    ``2**_TEETH`` products form the comb's table, and ``theta``'s limbs,
    read one bit column at a time from the top, pick one entry per squaring
    (Lim and Lee, CRYPTO 1994).  The table and the walk run in base-``n``
    digit pairs.
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

    Each power ``C_i**theta`` is a comb over ``teeth``, the profile's
    ``challenge_teeth``, computed first if not given (see the module
    docstring).  ``theta`` is drawn from ``rng`` first and the session id
    second; ``session_exponent`` replaces the draw of ``theta``.

    ``theta`` is uniform in ``[1, short_exponent_bound(n))``: 256 bits
    at 1024-bit keys and up, where it is always a unit modulo ``n``; at
    512 bits it is a multiple of ``p`` or ``q`` with probability below
    ``2**-250``.  The short exponent rests on the short-exponent
    assumption in groups of unknown order (Koshiba and Kurosawa, PKC
    2004), and on these points:

    * The carrier picks ``theta``, so the device's privacy cannot rest on
      it; the tests run ``theta = 1``.
    * A party that holds the record's ``C_i`` (it read the unauthenticated
      ``StoreProfile`` frame, or the carrier's store) forges matches
      without ``theta`` (see ``carrier_score``), so ``theta``'s length
      changes nothing for it.
    * A party without the ``C_i`` sees no pair ``(g, g**theta)`` to search
      before a response: the challenge carries the powers only.  A man in
      the middle that holds a genuine matching entry ``(c, r)`` holds one,
      ``c = (r**n)**theta``, for the session in flight only, and already
      scores that entry's powers without ``theta`` (see
      ``carrier_score``).
    * Once the record holder's forgery is closed, recovering ``theta``
      from ``(C_i, C_i**theta)`` takes about ``2**128`` kangaroo steps,
      which must finish within the session timeout; factoring a 1024-bit
      or 2048-bit ``n`` costs less.  The order of ``Z*_{n**2}`` is unknown
      without the factors, so the small-factor attack of van Oorschot and
      Wiener (EUROCRYPT 1996) has no subgroup to project into but the one
      the Jacobi symbol reads, which leaks ``theta mod 2`` at most.
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
    secret, challenge, expanded, anchor_d = context
    value, randomizer = job
    pk = challenge.public_key
    n, n_squared = pk.n, pk.n_squared
    # Horner's rule in the exponent, top coefficient first: the exponents are
    # the raw feature on both legs, so the encryption randomizers still cancel.
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

    The challenge must carry the secret's mode and Case C ``(t, M)``.  The
    entries are built in the worker pool, one process per usable CPU; on
    one CPU they are built in this process.  The randomizers and the
    shuffle come from ``rng`` in this process, so a seeded run is fully
    reproducible whatever the number of CPUs.  The blinded randomizers are
    expanded from the challenge's seed here, once, and they are units
    modulo ``n``, so every ratio is defined; a carrier chooses only the
    seed, never the values.  The secret holds no modulus, so any other
    ``n`` is answered too (an open gap, see the README threat model).

    Each randomizer is ``rho = t + n*k``: ``t`` is drawn first, a uniform
    unit below ``n``, then ``k``, uniform below ``short_exponent_bound(n)``
    like ``theta``.  Below ``n = 2**256`` that is a uniform unit below
    ``n**2``, the draw of a full-width ``rho``.  Above it, ``k`` has 256
    bits, and the ratio power and the mask's half-width power take
    exponents of ``|n| + 256`` bits instead of ``2|n|``.  The adversary
    here is the carrier, which sees every response and picks every
    ``theta``.  With ``Y = R'**d / B(b) mod n``, where ``B(b)`` is the
    blinded leg evaluated at the entry's value ``b``, an entry shows it two
    things:

    * The ``(1+n)`` part of ``cipher / ratio**(n*theta) mod n**2``, which
      reads ``theta*d*rho*P(b) = theta*d*t*P(b) mod n``.  Only ``t`` enters
      it, and the ``t`` are independent uniform units, for repeated Case B
      values and across sessions too.  So this reading keeps the law it
      had under a full-width ``rho``.  The carrier's choice of ``theta``
      only scales ``t``'s multiplier.
    * The ratio ``Y**t * (Y**n)**k mod n``, the only place ``k`` shows.
      The order of ``Y`` divides ``lambda(n)``, and ``n`` is ``p + q - 1``
      modulo it.  So ``Y**t`` alone is uniform in the group ``Y`` generates,
      to within about ``2*(p + q)/n``, whatever ``k`` is.

    A test on ``k`` needs both ``Y`` and ``t``.  ``Y`` needs ``R'**d``, the
    record and a guessed value.  ``t`` needs the first reading divided by
    ``theta*d*P(b)``.  A party without the device secret ``(d, R')`` has
    neither, so it has no test.  A party that holds the secret, ``theta``
    and ``P(b)`` still needs about ``2**128`` kangaroo steps per guess to
    find ``k < 2**256`` in ``(Y**n)**k``.  Factoring a 1024-bit or
    2048-bit ``n`` costs less than that and breaks a full-width ``rho`` as
    well: the Legendre symbols of a ratio modulo ``p`` and ``q`` are those
    of ``Y`` raised to ``rho``, so they refute wrong guesses whatever
    ``rho``'s length, and the factors decrypt the record too.  The Jacobi
    symbol of a ratio reads at most ``rho``'s parity, that of ``t + k``.
    ``t`` and ``n - t`` are both units and differ in parity, so that parity
    is uniform under either draw.  A challenge under a foreign modulus
    reads the sample through ``rho`` of any length (the README threat
    model).  The argument rests on the short-exponent assumption in groups
    of unknown order (Koshiba and Kurosawa, PKC 2004).  ``d`` stays full
    width, a unit modulo ``lambda(n)``: each public ``B_k`` is
    ``r_k**-d`` (times ``R'**d`` for ``k = 0``), so ``d`` is what keeps
    the encryption randomizers ``r_k``, and with them the coefficients,
    from the carrier.
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

    A party that holds the record's ``C_i`` without ``(d, R')``, one that
    read the unauthenticated ``StoreProfile`` frame or the carrier's store,
    forges matches too.  With ``C'_i`` the challenge's powered coefficients,
    the entry ``(pow(C'_i % n, n, n**2), C_i % n)`` matches, since
    ``(C_i % n)**(n * theta)`` depends on ``C_i**theta mod n`` only, and
    each ``i`` brings a ratio class of its own.

    Against every other party without ``(d, R')`` the count is otherwise
    sound.  A party that holds them, a thief with the phone or its secret
    file, builds genuine entries at will: knowing k profile features, it
    reaches any count by sending each with fresh randomizers, or as
    ``b + j*n``, which evaluates like the feature ``b``.  The ratio-class
    refusal does not stop it.  In Cases A and C, the session refuses a
    response with any other entry count than its declared sample size, so
    ``decide`` takes Case C's ``|Y|`` from the declaration, not from the
    entries.  The device declares that size too, so a thief declares what
    it sends.  Case B sends one entry per unit of similarity, and bounding
    its entry count needs a bound stored at set-up, which is still open.
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
    accepts when it stays at or below the threshold.

    The outcome is only as sound as the count (see ``carrier_score``): it
    holds against a party without the device's ``(d, R')``, with two
    exceptions.  A party that holds the record's ``C_i`` forges a match per
    coefficient without the secrets, and a party that holds ``(d, R')`` and
    knows k profile features can reach any count; either reaches any
    outcome it can count to.
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
