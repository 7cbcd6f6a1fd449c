"""The three-message authentication protocol and the decision rule.

One authentication run:

1. The carrier draws a fresh session exponent, raises every encrypted
   coefficient to it and sends those powers plus the stored blinded
   randomizers (``carrier_challenge``).
2. For each sample value the device evaluates the powered polynomial in the
   exponent, masks it with a per-value randomizer and its secret exponent,
   and emits the triple (cipher, correction, tag); the triples are shuffled
   before transmission (``device_respond``).
3. The carrier divides each tag by its correction, raises the quotient to
   ``n * theta`` and compares it against the cipher; the two collide exactly
   when the sample value is a profile feature (``carrier_score``).

The count of collisions is the set-intersection cardinality (Case A), the
similarity-weighted match total (Case B, ``device_respond_weighted``) or the
pairwise-min sum of the numeric vectors (Case C); ``decide`` turns it into a
dissimilarity score and an accept/reject outcome.

The device evaluates both response legs by Horner's rule in the exponent,
``acc = acc**b * C_i`` from the top coefficient down, so every exponent is the
raw feature ``b`` rather than a power ``b**i``.  Both legs use the same
exponents, so the encryption randomizers cancel carrier-side, and the blinding
randomizers ``r'_i`` (``i >= 1``) lie in the order-``n`` subgroup, which the
carrier's ``n * theta`` power removes (see ``profiles``).
"""

from __future__ import annotations

import math
import random
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .encoding import MAX_COEFFS, Reader, encode_bytes, encode_uint, \
    encode_uints
from .paillier import PaillierPublicKey, draw_unit
from .profiles import DeviceSecret, EncryptedProfile, FeatureMode, \
    FeatureSet, encode_mode, read_mode, read_mode_params
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
    "decide",
    "device_respond",
    "device_respond_weighted",
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
        if len(self.powered_coeffs) != len(self.blinded_randomizers):
            raise ValueError("challenge legs differ in length")

    def to_bytes(self) -> bytes:
        return (encode_bytes(self.session_id) + self.public_key.to_bytes() +
                encode_uints(self.powered_coeffs) +
                encode_uints(self.blinded_randomizers) +
                encode_mode(self.mode, self.count, self.cap))

    @classmethod
    def from_reader(cls, reader: Reader) -> "AuthChallenge":
        session_id = reader.bytes_lp(64)
        pk = PaillierPublicKey.from_reader(reader)
        powered = reader.uints(MAX_COEFFS)
        blinded = reader.uints(len(powered))
        if len(blinded) != len(powered):
            reader.fail("challenge legs differ in length")
        mode, count, cap = read_mode_params(reader)
        return cls(session_id, pk, powered, blinded, mode, count=count, cap=cap)


@dataclass
class SessionState:
    """Carrier-private state for one challenge; single use."""

    session_id: bytes
    session_exponent: int  # theta, uniform in [1, n)
    profile: EncryptedProfile
    created_at: float
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
    """One shuffled response triple (step 2).

    ``cipher`` carries the masked polynomial evaluation, ``correction``
    cancels the encryption randomizers carrier-side, and ``tag`` is the
    anchor power the carrier compares against.
    """

    cipher: int
    correction: int
    tag: int

    def to_bytes(self) -> bytes:
        return encode_uint(self.cipher) + encode_uint(self.correction) + \
            encode_uint(self.tag)

    @classmethod
    def from_reader(cls, reader: Reader) -> "AuthResponseEntry":
        return cls(reader.uint(), reader.uint(), reader.uint())


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


def carrier_challenge(profile: EncryptedProfile,
                      rng: random.Random | None = None,
                      *,
                      session_exponent: int | None = None,
                      session_id: bytes | None = None,
                      ) -> tuple[AuthChallenge, SessionState]:
    """Open a session: raise the encrypted coefficients to a fresh exponent.

    ``session_exponent`` and ``session_id`` are test hooks; production use
    leaves both to the entropy source.
    """
    rng = rng or _SYSTEM
    n = profile.public_key.n
    theta = session_exponent if session_exponent is not None \
        else rng.randrange(1, n)
    if not 1 <= theta < n:
        raise ValueError("session exponent outside [1, n)")
    sid = session_id if session_id is not None \
        else rng.getrandbits(128).to_bytes(16, "big")
    n_squared = profile.public_key.n_squared
    powered = tuple(pow(c.value, theta, n_squared) for c in profile.enc_coeffs)
    challenge = AuthChallenge(sid, profile.public_key, powered,
                              profile.blinded_randomizers, profile.mode,
                              count=profile.count, cap=profile.cap)
    state = SessionState(sid, theta, profile, time.monotonic())
    return challenge, state


def _response_entry(value: int, randomizer: int, secret: DeviceSecret,
                    challenge: AuthChallenge,
                    anchor_d: int) -> AuthResponseEntry:
    n_squared = challenge.public_key.n_squared
    # Horner's rule in the exponent, top coefficient first: the exponents are
    # the raw feature on both legs, so the encryption randomizers still cancel.
    *lower_coeffs, cipher_acc = challenge.powered_coeffs
    *lower_blinded, correction_acc = challenge.blinded_randomizers
    for coeff, blinded in zip(reversed(lower_coeffs), reversed(lower_blinded)):
        cipher_acc = pow(cipher_acc, value, n_squared) * coeff % n_squared
        correction_acc = pow(correction_acc, value, n_squared) * \
            blinded % n_squared
    cipher = pow(cipher_acc, secret.secret_exponent * randomizer, n_squared)
    correction = pow(correction_acc, randomizer, n_squared)
    tag = pow(anchor_d, randomizer, n_squared)
    return AuthResponseEntry(cipher, correction, tag)


def _response_entry_args(args) -> AuthResponseEntry:
    return _response_entry(*args)


def _respond(secret: DeviceSecret, challenge: AuthChallenge,
             values: Sequence[int], rng: random.Random,
             workers: int) -> list[AuthResponseEntry]:
    """One triple per listed value, randomizers drawn in list order, shuffled.

    The finished triples are shuffled with the same entropy source, so a
    seeded run is fully reproducible regardless of ``workers``.
    """
    n_squared = challenge.public_key.n_squared
    anchor_d = pow(secret.anchor, secret.secret_exponent, n_squared)
    jobs = [(value, draw_unit(rng, n_squared), secret, challenge, anchor_d)
            for value in values]
    if workers > 1 and len(jobs) > 1:
        # Per-value triples are independent; spread them over processes.
        with ProcessPoolExecutor(max_workers=workers) as pool:
            entries = list(pool.map(_response_entry_args, jobs, chunksize=1))
    else:
        entries = [_response_entry(*job) for job in jobs]
    rng.shuffle(entries)
    return entries


def _check_modes(secret: DeviceSecret, challenge: AuthChallenge,
                 sample: FeatureSet) -> None:
    if secret.mode is not challenge.mode or sample.mode is not challenge.mode:
        raise ModeMismatchError(
            f"modes differ: secret={secret.mode.name} "
            f"challenge={challenge.mode.name} sample={sample.mode.name}")
    if challenge.mode is FeatureMode.CASE_C and \
            (sample.count != challenge.count or sample.cap != challenge.cap):
        raise ModeMismatchError(
            f"numeric parameters differ: sample t={sample.count} M={sample.cap}"
            f" vs enrolled t={challenge.count} M={challenge.cap}")


def device_respond(secret: DeviceSecret, challenge: AuthChallenge,
                   sample: FeatureSet, rng: random.Random | None = None,
                   *, workers: int = 1) -> list[AuthResponseEntry]:
    """Build one response triple per sample value, shuffled (step 2).

    Per-value randomizers are drawn in ascending sample-value order.
    """
    _check_modes(secret, challenge, sample)
    return _respond(secret, challenge, sample.values, rng or _SYSTEM, workers)


def device_respond_weighted(secret: DeviceSecret, challenge: AuthChallenge,
                            sample: FeatureSet, sim: SimilarityFunction,
                            rng: random.Random | None = None,
                            *, workers: int = 1) -> list[AuthResponseEntry]:
    """Weighted variant (step 2'): emit one triple per unit of similarity.

    For every value ``z`` in the union of supports, the total weight of ``z``
    against the sample determines how many independent triples are built on
    ``z``; profile features then collect exactly their similarity weight in
    matches, so the carrier's count is the double similarity sum.
    """
    if sample.mode is not FeatureMode.CASE_B:
        raise ModeMismatchError("weighted responses require a Case B sample")
    _check_modes(secret, challenge, sample)
    totals: dict[int, int] = {}
    for y in sample.values:
        for z, weight in sim.support_for(y):
            totals[z] = totals.get(z, 0) + weight
    values = [z for z in sorted(totals) for _ in range(totals[z])]
    if not values:
        raise ProtocolError("similarity support yields an empty response")
    return _respond(secret, challenge, values, rng or _SYSTEM, workers)


def carrier_score(session: SessionState,
                  entries: list[AuthResponseEntry]) -> int:
    """Count recognized triples (step 3) and consume the session.

    A triple matches when ``cipher == (tag * correction**-1) ** (n * theta)``
    modulo ``n**2``, one exponentiation per entry.  The session is claimed
    before any validation so that a malformed response still burns its
    challenge.

    A device that knows neither ``d`` nor the anchor can still satisfy the
    predicate when ``tag * correction**-1`` reduces modulo ``n`` to a unit
    ``w`` of small order ``k``: the ``n * theta`` power then takes one of
    only ``k`` values, whatever ``theta`` is, and a guessed cipher scores
    with probability about ``1/k``.  ``w = 1`` always gives ``cipher = 1``
    and ``w = -1`` gives ``cipher = n**2 - 1`` for every odd ``theta``; both
    ciphers are refused, as is any triple sent twice.  Every other unit of
    small known order modulo ``n`` is a nontrivial root of unity, and writing
    one down is believed to need the factorization of ``n``: a square root
    of 1 other than ``+-1``, for instance, splits ``n`` through
    ``gcd(w - 1, n)``.

    Variants of one genuine triple also match: ``(c, x * w, t * w)`` keeps
    the ratio ``r = t * x**-1``, ``(c, x, t * (1 + k*n))`` moves it within
    its class modulo ``n`` and ``(-c, x, -t)`` flips its sign.  A response
    that repeats a ratio class ``min(r mod n, n - r mod n)``, an identical
    triple included, is refused; honest triples carry independent
    randomizers, so their classes collide with negligible probability.

    Remaining gap: this check only mitigates.  Matching triples are closed
    under multiplication, so the powers ``(c**k, x**k, t**k)`` of one genuine
    triple, and the products of two, match with ratio classes of their own;
    a device that holds one matching feature builds as many matches as it
    likes without any secret, and no check on repeated classes can stop it.
    ``decide`` also takes the sample size (``|Y|`` in Case C, the default
    threshold in Cases A and B) from the entry count, which the device
    chooses; pinning it to the declared sample size, or to a bound stored at
    set-up in Case B, is still open.
    """
    if not entries:
        raise ProtocolError("empty response")
    session.consume()
    pk = session.profile.public_key
    n, n_squared = pk.n, pk.n_squared
    exponent = n * session.session_exponent
    matches = 0
    seen: set[int] = set()
    for entry in entries:
        for value in (entry.cipher, entry.correction, entry.tag):
            if not 1 <= value < n_squared or math.gcd(value, n) != 1:
                raise ProtocolError("response entry is not a unit modulo n**2")
        if entry.cipher in (1, n_squared - 1):
            raise ProtocolError("response cipher is +-1, which scores "
                                "without the device's secrets")
        ratio = entry.tag * pow(entry.correction, -1, n_squared) % n_squared
        ratio_class = min(ratio % n, n - ratio % n)
        if ratio_class in seen:
            raise ProtocolError("response repeats a triple")
        seen.add(ratio_class)
        if entry.cipher == pow(ratio, exponent, n_squared):
            matches += 1
    return matches


def default_threshold(mode: FeatureMode, sample_size: int,
                      count: int | None, cap: int | None) -> int:
    """Deployment-knob defaults: majority overlap, or a quarter of the
    maximum L1 distance in Case C."""
    if mode is FeatureMode.CASE_C:
        assert count is not None and cap is not None
        return (count * cap + 3) // 4
    return (sample_size + 1) // 2


def decide(match_count: int, profile: EncryptedProfile, sample_size: int,
           threshold: int | None = None) -> AuthDecision:
    """Turn a match count into a dissimilarity score and an outcome.

    Case A/B accept when the (weighted) match count reaches the threshold;
    the dissimilarity is its reciprocal, infinite for zero matches.  Case C
    computes the L1 distance ``|X| + |Y| - 2 * matches`` from the stored
    profile size and the received entry count (``sample_size``) and accepts
    when it stays at or below the threshold.
    """
    if match_count < 0 or sample_size < 1:
        raise ValueError("match count must be >= 0 and sample size >= 1")
    if threshold is None:
        threshold = profile.threshold
    if threshold is None:
        threshold = default_threshold(profile.mode, sample_size,
                                      profile.count, profile.cap)
    if threshold < 1:
        raise ValueError("threshold must be positive")
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
