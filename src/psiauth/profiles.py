"""Device-side set-up: turn a plaintext feature set into the carrier record.

Set-up encodes the profile ``{a_1, .., a_s}`` as the monic polynomial
``prod(x - a_i)`` and ships the carrier the encrypted coefficients together
with blinded randomizer powers.  The blinding randomizers ``r'_0 .. r'_s``
satisfy, for every profile feature ``a``,

    r'_0 * r'_1**a * r'_2**(a**2) * ... * r'_s**(a**s) == R'  (mod n**2)

Both solvers draw ``r'_1 .. r'_s`` from the order-``n`` subgroup, so each is
``1`` modulo ``n`` and ``r'_0 == R' (mod n)``: modulo ``n`` the product is
``R'`` at every value, a root or not.  The device reads the blinded
randomizers only modulo ``n``, and the record holds them modulo ``n``: the
blinding-free ``(r_k**-1)**d``, times ``R'**d`` for ``k = 0``.  No stored,
sent or computed value depends on the blinding, ``R'`` cancels from every
ratio, and the cipher leg alone decides membership.

After set-up the device keeps only its user id, the secret exponent ``d`` and
the anchor ``R'``; every other intermediate (secret key, coefficients,
randomizers, plaintext features) is dropped.  While it still holds ``p`` and
``q``, set-up computes ``r**n`` in each coefficient encryption by CRT
through ``r mod p`` and ``r mod q``, at about two fifths of a plain power
(``PaillierSecretKey.pow_n_mod_n_squared``), and each blinded randomizer
``x**d mod n`` by CRT through ``x mod p`` and ``x mod q``, at about three
tenths of a plain ``pow`` modulo ``n`` (``PaillierSecretKey.pow_mod_n``).
Every randomizer, the blinding solve and ``d`` are drawn first, in this
process; then all ``2(s+1)`` powers go to the worker pool in one call
(``pool``), so a seeded set-up gives the same record whatever the number
of CPUs.  Key generation, before them, tests each candidate prime's
Miller-Rabin rounds after the first in the same pool, and draws every base
in this process.

Two solvers produce the blinding randomizers:

* ``solve_blinding`` assigns exponents proportional to the polynomial
  coefficients, which is exact and linear-time because the polynomial
  vanishes at every profile feature.
* ``solve_blinding_gaussian`` solves the underlying s-by-s power-matrix
  system by fraction-free Gaussian elimination over the integers.  It is the
  cubic-cost reference used to benchmark set-up against the cheap solver.

Both draw the exponent base from the order-``n`` subgroup of units modulo
``n**2`` (the elements ``1 + k*n``).  Powers of such a base depend on the
exponent only modulo ``n``, so neither solver needs the secret key to reduce
its exponents, and the blinding identity stays exact whether evaluation
powers ``a**k`` are used raw or reduced modulo ``n``; the authentication
protocol evaluates by Horner's rule, which amounts to raw powers.
"""

from __future__ import annotations

import hashlib
import logging
import math
import random
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Sequence

from .encoding import MAX_COEFFS, MAX_USER_ID_BYTES, Reader, encode_str, \
    encode_uint, encode_uints
from .paillier import (
    PaillierPublicKey,
    PaillierSecretKey,
    draw_unit,
    encrypt,
    keygen,
)
from .pool import _in_pool

__all__ = [
    "BlindingSolution",
    "DegenerateSystemError",
    "DeviceSecret",
    "DuplicateFeatureError",
    "EncryptedProfile",
    "FeatureMode",
    "FeatureSet",
    "MAX_FEATURE_VALUE",
    "SetupAudit",
    "build_encrypted_profile",
    "decode_numeric",
    "encode_mode",
    "encode_numeric",
    "hash_feature",
    "poly_from_roots",
    "read_mode",
    "read_mode_params",
    "solve_blinding",
    "solve_blinding_gaussian",
]

log = logging.getLogger(__name__)

_SYSTEM = random.SystemRandom()

MAX_FEATURE_VALUE = 1 << 128


class FeatureMode(IntEnum):
    """How a profile is scored; doubles as the 1-byte wire tag."""

    CASE_A = 0x01  # independent nominal values: intersection size
    CASE_B = 0x02  # correlated values: weighted similarity sum
    CASE_C = 0x03  # bounded numeric vectors: L1 distance via pair encoding


def encode_mode(mode: FeatureMode, count: int | None,
                cap: int | None) -> bytes:
    """The mode tag, followed in Case C by the vector length and the cap."""
    if mode is FeatureMode.CASE_C:
        return bytes([mode]) + encode_uint(count) + encode_uint(cap)
    return bytes([mode])


def read_mode(reader: Reader) -> FeatureMode:
    tag = reader.byte()
    try:
        return FeatureMode(tag)
    except ValueError:
        reader.fail(f"unknown mode tag 0x{tag:02x}")


def read_mode_params(reader: Reader
                     ) -> tuple[FeatureMode, int | None, int | None]:
    """Inverse of ``encode_mode``: ``(mode, count, cap)``."""
    mode = read_mode(reader)
    if mode is FeatureMode.CASE_C:
        return mode, reader.uint(), reader.uint()
    return mode, None, None


class DuplicateFeatureError(ValueError):
    """Feature values collide (possibly only modulo the key modulus)."""


class DegenerateSystemError(ValueError):
    """The power-matrix system cannot be solved for these features."""


@dataclass(frozen=True)
class FeatureSet:
    """A nonempty set of distinct positive integers with a scoring mode.

    ``count`` and ``cap`` are only set in Case C, where they carry the vector
    length ``t`` and the public per-entry magnitude cap ``M``.
    """

    mode: FeatureMode
    values: tuple[int, ...]
    count: int | None = None
    cap: int | None = None

    def __post_init__(self):
        if not self.values:
            raise ValueError("feature set is empty")
        previous = 0
        for v in self.values:
            if v <= previous:
                raise ValueError("values must be sorted and distinct")
            previous = v
        if self.values[0] < 1 or self.values[-1] > MAX_FEATURE_VALUE:
            raise ValueError("values must lie in [1, 2**128]")
        if self.mode is FeatureMode.CASE_C:
            if self.count is None or self.cap is None:
                raise ValueError("Case C requires count and cap")
            if self.count < 1 or self.cap < 1:
                raise ValueError("count and cap must be positive")
            if self.values[-1] > self.count * self.cap:
                raise ValueError("encoded value exceeds count*cap")
        elif self.count is not None or self.cap is not None:
            raise ValueError("count/cap only apply to Case C")

    @classmethod
    def from_values(cls, mode: FeatureMode,
                    values: Iterable[int]) -> "FeatureSet":
        return cls(mode, tuple(sorted(set(values))))

    @property
    def size(self) -> int:
        return len(self.values)


def hash_feature(raw: bytes) -> int:
    """Map a raw feature (tower id, app name, ...) into ``[1, 2**128]``."""
    if not raw:
        raise ValueError("empty feature")
    digest = hashlib.blake2b(raw, digest_size=16).digest()
    return int.from_bytes(digest, "big") or MAX_FEATURE_VALUE


def encode_numeric(values: Sequence[int], cap: int) -> FeatureSet:
    """Unary pair encoding of a bounded numeric vector (Case C).

    Entry ``u_i`` contributes the encodings of ``(i, 1) .. (i, u_i)``, i.e.
    the integers ``(i-1)*cap + j``.  The encoded set has ``sum(values)``
    elements, so intersecting two encodings counts ``sum(min(u_i, v_i))``.
    """
    if not values:
        raise ValueError("empty numeric vector")
    if cap < 1:
        raise ValueError("cap must be positive")
    encoded = []
    for i, u in enumerate(values, start=1):
        if not 0 <= u <= cap:
            raise ValueError(f"entry {u} at position {i} outside [0, {cap}]")
        encoded.extend((i - 1) * cap + j for j in range(1, u + 1))
    if not encoded:
        raise ValueError("all-zero vector encodes to an empty feature set")
    return FeatureSet(FeatureMode.CASE_C, tuple(encoded),
                      count=len(values), cap=cap)


def decode_numeric(features: FeatureSet) -> tuple[int, ...]:
    """Inverse of ``encode_numeric`` on valid pair-encoded sets."""
    if features.mode is not FeatureMode.CASE_C:
        raise ValueError("not a Case C feature set")
    assert features.count is not None and features.cap is not None
    values = [0] * features.count
    for v in features.values:
        i, j = divmod(v - 1, features.cap)
        if i >= features.count:
            raise ValueError(f"encoded value {v} outside the vector range")
        if j + 1 != values[i] + 1:
            raise ValueError(f"non-contiguous unary block at position {i + 1}")
        values[i] = j + 1
    return tuple(values)


def poly_from_roots(features: FeatureSet, n: int) -> list[int]:
    """Coefficients of ``prod(x - a_i)`` reduced into ``[0, n)``, low degree first.

    The result is monic (last coefficient 1) and vanishes modulo ``n`` at
    every feature value.
    """
    roots = [v % n for v in features.values]
    if len(set(roots)) != len(roots):
        raise DuplicateFeatureError("feature values collide modulo n")
    coeffs = [1]
    for root in roots:
        shifted = [0] + coeffs
        for i, c in enumerate(coeffs):
            shifted[i] = (shifted[i] - c * root) % n
        coeffs = shifted
    return coeffs


@dataclass(frozen=True)
class BlindingSolution:
    """Randomizers ``r'_0 .. r'_s`` and the anchor ``R'`` they satisfy."""

    randomizers: tuple[int, ...]
    anchor: int


def _subgroup_pow(k: int, exponent: int, n: int, n_squared: int) -> int:
    # (1 + k*n) ** exponent == 1 + (k * exponent % n) * n  (mod n**2)
    return (1 + (k * exponent % n) * n) % n_squared


def solve_blinding(coeffs: Sequence[int], anchor: int, pk: PaillierPublicKey,
                   rng: random.Random | None = None) -> BlindingSolution:
    """Closed-form blinding randomizers for the given polynomial.

    With base ``w`` and a nonzero scale ``c``, setting the exponent of
    ``r'_k`` to ``-c * p_k`` makes the product telescope to
    ``w**(-c * p(a)) == 1`` at every root ``a``, so the identity holds with
    ``r'_0`` absorbing the anchor.  The scale is never zero, which rules out
    the trivial solution ``r'_1 = .. = r'_s = 1``.
    """
    rng = rng or _SYSTEM
    n, n_squared = pk.n, pk.n_squared
    if not 1 <= anchor < n_squared or math.gcd(anchor, n) != 1:
        raise ValueError("anchor must be a unit modulo n**2")
    while True:
        k = rng.randrange(1, n)
        scale = rng.randrange(1, n)
        if k * scale % n:  # keep the top randomizer visibly non-trivial
            break
    randomizers = []
    for index, coeff in enumerate(coeffs):
        value = _subgroup_pow(k, -scale * coeff, n, n_squared)
        if index == 0:
            value = value * anchor % n_squared
        randomizers.append(value)
    return BlindingSolution(tuple(randomizers), anchor)


def _solve_scaled_integer_system(matrix: list[list[int]],
                                 rhs: list[int]) -> tuple[list[int], int]:
    """Solve ``M @ x == det(M) * rhs`` exactly over the integers.

    Fraction-free (Bareiss) forward elimination followed by exact-division
    back substitution.  Raises DegenerateSystemError on a zero pivot or a
    non-exact division, which for power matrices means repeated or zero
    features.
    """
    size = len(matrix)
    rows = [list(row) + [r] for row, r in zip(matrix, rhs)]
    previous = 1
    for k in range(size - 1):
        pivot = rows[k][k]
        if pivot == 0:
            raise DegenerateSystemError("zero pivot during elimination")
        for i in range(k + 1, size):
            factor = rows[i][k]
            row_i, row_k = rows[i], rows[k]
            for j in range(k + 1, size + 1):
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // previous
            row_i[k] = 0
        previous = pivot
    det = rows[size - 1][size - 1]
    if det == 0:
        raise DegenerateSystemError("singular system")
    solution = [0] * size
    for k in range(size - 1, -1, -1):
        numerator = det * rows[k][size]
        for j in range(k + 1, size):
            numerator -= rows[k][j] * solution[j]
        quotient, remainder = divmod(numerator, rows[k][k])
        if remainder:
            raise DegenerateSystemError("non-exact division in back substitution")
        solution[k] = quotient
    return solution, det


def solve_blinding_gaussian(features: FeatureSet, anchor: int,
                            pk: PaillierPublicKey,
                            rng: random.Random | None = None) -> BlindingSolution:
    """Blinding randomizers via exact Gaussian elimination (benchmark path).

    Builds the s-by-s matrix of feature powers ``a_j**k`` over the integers
    and solves it fraction-free for exponents hitting a common random target,
    scaling the target by the determinant so the solution stays integral.
    The anchor of the returned solution is recomputed from the target; the
    supplied unit serves as ``r'_0``.  Any degeneracy (zero or colliding
    features) falls back to the closed-form solver with a logged warning.
    """
    rng = rng or _SYSTEM
    n, n_squared = pk.n, pk.n_squared
    if not 1 <= anchor < n_squared or math.gcd(anchor, n) != 1:
        raise ValueError("anchor must be a unit modulo n**2")
    roots = features.values
    size = len(roots)
    try:
        if any(root % n == 0 for root in roots):
            raise DegenerateSystemError("feature value divisible by n")
        if len({root % n for root in roots}) != size:
            raise DegenerateSystemError("feature values collide modulo n")
        matrix = []
        for root in roots:
            power = 1
            row = []
            for _ in range(size):
                power *= root
                row.append(power)
            matrix.append(row)
        solution, det = _solve_scaled_integer_system(matrix, [1] * size)
        if det % n == 0:
            raise DegenerateSystemError("determinant divisible by n")
    except DegenerateSystemError as exc:
        log.warning("gaussian blinding solve degenerate (%s); "
                    "falling back to the closed-form solver", exc)
        coeffs = poly_from_roots(features, n)
        return solve_blinding(coeffs, anchor, pk, rng)
    while True:
        k = rng.randrange(1, n)
        target = rng.randrange(1, n)
        if k * target * det % n:
            break
    randomizers = [anchor]
    for x in solution:
        randomizers.append(_subgroup_pow(k, target * x, n, n_squared))
    anchor_out = anchor * _subgroup_pow(k, target * det, n, n_squared) \
        % n_squared
    return BlindingSolution(tuple(randomizers), anchor_out)


def _check_blinded(pk: PaillierPublicKey, blinded: Sequence[int]) -> None:
    """Refuse a blinded randomizer outside ``[1, n)``, its one encoding."""
    if not all(1 <= value < pk.n for value in blinded):
        raise ValueError("blinded randomizer outside [1, n)")


@dataclass(frozen=True)
class EncryptedProfile:
    """The carrier-side record: everything the carrier ever holds.

    ``enc_coeffs`` are the encrypted polynomial coefficients ``Enc(p_0) ..
    Enc(p_s)`` and ``blinded_randomizers`` the values ``R_0**d .. R_s**d``
    modulo ``n``, each in ``[1, n)``.  ``threshold`` is the per-user
    decision parameter; ``None`` selects the documented default rule at
    decision time.
    """

    public_key: PaillierPublicKey
    enc_coeffs: tuple[int, ...]
    blinded_randomizers: tuple[int, ...]
    size: int
    mode: FeatureMode
    count: int | None = None
    cap: int | None = None
    threshold: int | None = None

    def __post_init__(self):
        if len(self.enc_coeffs) != self.size + 1:
            raise ValueError("coefficient count must be size + 1")
        if len(self.blinded_randomizers) != self.size + 1:
            raise ValueError("randomizer count must be size + 1")
        _check_blinded(self.public_key, self.blinded_randomizers)
        if self.threshold is not None and self.threshold < 1:
            raise ValueError("threshold must be positive")

    def to_bytes(self) -> bytes:
        return (self.public_key.to_bytes() +
                encode_uints(self.enc_coeffs) +
                encode_uints(self.blinded_randomizers) +
                encode_uint(self.size) +
                encode_mode(self.mode, self.count, self.cap) +
                encode_uint(self.threshold or 0))

    @classmethod
    def from_reader(cls, reader: Reader) -> "EncryptedProfile":
        pk = PaillierPublicKey.from_reader(reader)
        coeffs = reader.uints(MAX_COEFFS)
        blinded = reader.uints(MAX_COEFFS)
        size = reader.uint()
        mode, count, cap = read_mode_params(reader)
        threshold = reader.uint() or None
        return reader.build(cls, pk, coeffs, blinded, size, mode,
                            count=count, cap=cap, threshold=threshold)

    @classmethod
    def from_bytes(cls, data: bytes) -> "EncryptedProfile":
        reader = Reader(data)
        profile = cls.from_reader(reader)
        reader.expect_end()
        return profile


@dataclass(frozen=True)
class DeviceSecret:
    """Everything the device keeps after set-up: ``(d, R')`` plus metadata.

    No field derives from the feature values, the polynomial coefficients,
    the encryption randomizers or the secret key.
    """

    user_id: str
    secret_exponent: int  # d, uniform in [1, n)
    anchor: int           # R', a unit modulo n**2
    mode: FeatureMode
    count: int | None = None
    cap: int | None = None

    def to_bytes(self) -> bytes:
        return (encode_str(self.user_id) + encode_uint(self.secret_exponent) +
                encode_uint(self.anchor) +
                encode_mode(self.mode, self.count, self.cap))

    @classmethod
    def from_bytes(cls, data: bytes) -> "DeviceSecret":
        reader = Reader(data)
        user_id = reader.str_lp(MAX_USER_ID_BYTES)
        exponent = reader.uint()
        anchor = reader.uint()
        mode, count, cap = read_mode_params(reader)
        reader.expect_end()
        return cls(user_id, exponent, anchor, mode, count=count, cap=cap)


@dataclass(frozen=True)
class SetupAudit:
    """Set-up intermediates, exposed to tests only.

    Production set-up drops all of this; tests use it to check monicity,
    randomizer consistency and the blinding identity before key destruction.
    """

    secret_key: PaillierSecretKey
    coeffs: tuple[int, ...]
    encryption_randomizers: tuple[int, ...]
    blinding: BlindingSolution
    unblinded_randomizers: tuple[int, ...]


def _setup_chunk(context: tuple[PaillierPublicKey, PaillierSecretKey, int],
                 jobs: list[tuple[int | None, int]]) -> list[int]:
    """The cipher of ``coeff`` under randomizer ``base`` for a job
    ``(coeff, base)``, and ``base**d mod n`` by CRT for a job
    ``(None, base)``, ``base`` a unit."""
    pk, sk, d = context
    return [sk.pow_mod_n(base, d) if coeff is None
            else encrypt(pk, coeff, base, sk=sk)[0] for coeff, base in jobs]


def build_encrypted_profile(
    user_id: str,
    features: FeatureSet,
    bits: int = 1024,
    rng: random.Random | None = None,
    *,
    solver: str = "closed-form",
    threshold: int | None = None,
    keep_setup_audit: bool = False,
):
    """Run the whole set-up flow for one user.

    Generates a fresh keypair, encrypts the profile polynomial, solves the
    blinding system, divides out the encryption randomizers and raises the
    results to ``d``, both modulo ``n``.  Returns ``(profile, secret)``, or
    ``(profile, secret, audit)`` when ``keep_setup_audit`` is set.

    Args:
        solver: ``"closed-form"`` (default) or ``"gaussian"``.
        threshold: per-user decision parameter stored with the profile.
        keep_setup_audit: also return the intermediates that set-up normally
            destroys; for tests only.
    """
    if solver not in ("closed-form", "gaussian"):
        raise ValueError(f"unknown solver {solver!r}")
    rng = rng or _SYSTEM
    pk, sk = keygen(bits, rng)
    coeffs = poly_from_roots(features, pk.n)
    enc_randomizers = [draw_unit(rng, pk.n) for _ in coeffs]
    anchor_seed = draw_unit(rng, pk.n_squared)
    if solver == "gaussian":
        blinding = solve_blinding_gaussian(features, anchor_seed, pk, rng)
    else:
        blinding = solve_blinding(coeffs, anchor_seed, pk, rng)
    unblinded = [rp * pow(r, -1, pk.n) % pk.n
                 for rp, r in zip(blinding.randomizers, enc_randomizers)]
    d = rng.randrange(1, pk.n)
    # Every draw is made; the two kinds of power alternate, so each worker's
    # contiguous chunk gets a like share of the cheaper encryptions.
    jobs = []
    for coeff, r, value in zip(coeffs, enc_randomizers, unblinded):
        jobs += [(coeff, r), (None, value)]
    powers = _in_pool(_setup_chunk, (pk, sk, d), jobs)
    profile = EncryptedProfile(
        pk, tuple(powers[0::2]), tuple(powers[1::2]), features.size,
        features.mode, count=features.count, cap=features.cap,
        threshold=threshold)
    secret = DeviceSecret(user_id, d, blinding.anchor, features.mode,
                          count=features.count, cap=features.cap)
    if keep_setup_audit:
        audit = SetupAudit(sk, tuple(coeffs), tuple(enc_randomizers),
                           blinding, tuple(unblinded))
        return profile, secret, audit
    return profile, secret
