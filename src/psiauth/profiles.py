"""Device-side set-up: turn a plaintext feature set into the carrier record.

``build_encrypted_profile`` encodes the profile ``{a_1, .., a_s}`` as the
monic polynomial ``prod(x - a_i)`` (``poly_from_roots``) and gives the
carrier its coefficients, Paillier-encrypted, with a 32-byte seed that
anyone expands into the blinded randomizers ``B_0 .. B_s``
(``blinded_randomizers``).  The blinding randomizers ``r'_0 .. r'_s``
satisfy, for every profile feature ``a``,

    r'_0 * r'_1**a * r'_2**(a**2) * ... * r'_s**(a**s) == R'  (mod n**2)

(``solve_blinding``, ``solve_blinding_gaussian``), and each encryption
randomizer comes from ``r'_k`` and ``B_k`` by a root
(``_setup_encryption``).  After set-up the device keeps only its
``DeviceSecret``; every other intermediate (secret key, coefficients,
randomizers, plaintext features) is dropped.

Every draw is made in this process; the roots and encryptions then run in
the worker pool (``pool``), by CRT while set-up still holds ``p`` and ``q``
(``PaillierSecretKey.pow_mod_n`` and ``pow_n_mod_n_squared``), so a seeded
set-up gives the same record whatever the number of CPUs.  Why the public
seed and the ``B_k`` it expands to are safe is stated in THREAT_MODEL.md,
"The blinded randomizers and their seed".
"""

from __future__ import annotations

import hashlib
import logging
import math
import random
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Sequence

from .encoding import MAX_COEFFS, MAX_USER_ID_BYTES, Reader, encode_bytes, \
    encode_str, encode_uint, encode_uints
from .paillier import (
    DEFAULT_KEY_BITS,
    PaillierPublicKey,
    PaillierSecretKey,
    draw_unit,
    encrypt,
    keygen,
)
from .pool import _in_pool

__all__ = [
    "BLINDED_SEED_BYTES",
    "BlindingSolution",
    "DegenerateSystemError",
    "DeviceSecret",
    "DuplicateFeatureError",
    "EncryptedProfile",
    "FeatureMode",
    "FeatureSet",
    "MAX_FEATURE_VALUE",
    "blinded_randomizers",
    "build_encrypted_profile",
    "check_mode_params",
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

# The length of the seed the blinded randomizers are expanded from.
BLINDED_SEED_BYTES = 32
# Domain tag of that expansion.
_BLINDED_TAG = b"psiauth blinded randomizers"


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


def check_mode_params(mode: FeatureMode, count: int | None,
                      cap: int | None) -> None:
    """Raise ``ValueError`` unless ``count`` and ``cap`` are set, and at
    least 1, exactly in Case C: every record, secret, challenge and
    feature set holds its ``(t, M)`` by this one rule, so each has one
    encoding (``encode_mode``)."""
    if mode is FeatureMode.CASE_C:
        if count is None or cap is None:
            raise ValueError("Case C requires count and cap")
        if count < 1 or cap < 1:
            raise ValueError("count and cap must be positive")
    elif count is not None or cap is not None:
        raise ValueError("count/cap only apply to Case C")


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
        check_mode_params(self.mode, self.count, self.cap)
        if self.mode is FeatureMode.CASE_C and \
                self.values[-1] > self.count * self.cap:
            raise ValueError("encoded value exceeds count*cap")

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


def solve_blinding(kernel: Sequence[int], anchor: int, pk: PaillierPublicKey,
                   rng: random.Random | None = None) -> BlindingSolution:
    """Blinding randomizers from a kernel of the power matrix.

    A kernel is an integer vector ``(e_0 .. e_s)`` with
    ``sum(e_k * a**k) == 0`` at every profile feature ``a``; set-up passes
    the polynomial's coefficients, which is exact and linear-time.  The
    base ``w = 1 + k*n`` lies in the order-``n`` subgroup of units modulo
    ``n**2``, whose powers depend on the exponent only modulo ``n``, so no
    solver needs the secret key to reduce its exponents, and the identity
    holds whether the powers ``a**k`` are raw or reduced modulo ``n``.
    With a nonzero scale ``c``, setting
    ``r'_k = w**(-c * e_k)`` makes the product telescope to
    ``w**(-c * sum(e_k * a**k)) == 1`` at every feature ``a``, so the
    identity holds with ``r'_0`` absorbing the given anchor, which is
    returned as is.  ``k * c`` is never ``0`` modulo ``n``, which rules out
    the trivial solution ``r'_1 = .. = r'_s = 1`` for the coefficients,
    whose top entry is ``1``.  The draws do not depend on the kernel, so
    neither do the caller's draws after them.
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
    # (1 + k*n) ** x == 1 + (k * x % n) * n  (mod n**2)
    randomizers = [1 + (k * -scale * e % n) * n for e in kernel]
    randomizers[0] = randomizers[0] * anchor % n_squared
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
    """Blinding randomizers from a kernel found by Gaussian elimination.

    Builds the s-by-s matrix of feature powers ``a_j**k`` (``k = 1 .. s``)
    over the integers and solves ``M x == det * (1, .., 1)`` fraction-free,
    so ``(det, -x_1, .., -x_s)`` is a kernel, which ``solve_blinding``
    randomizes under the given anchor.  Any degeneracy (zero or colliding
    features) falls back to the coefficients with a logged warning.  This is
    the cubic-cost reference used to benchmark set-up against the cheap
    solver.  Both solvers keep the anchor they are given and make the same
    draws, and set-up reads the blinding only modulo ``n``, so the solver
    changes set-up's time, never its record or secret.
    """
    n = pk.n
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
        kernel = [det] + [-x for x in solution]
    except DegenerateSystemError as exc:
        log.warning("gaussian blinding solve degenerate (%s); "
                    "falling back to the closed-form solver", exc)
        kernel = poly_from_roots(features, n)
    return solve_blinding(kernel, anchor, pk, rng)


def blinded_randomizers(modulus: int, seed: bytes,
                        count: int) -> tuple[int, ...]:
    """The ``count`` blinded randomizers that ``seed`` expands to.

    ``B_k`` is SHAKE-256 of a domain tag, ``encode_uint(modulus)``, the
    seed, ``k`` and a counter, ``ceil(|modulus| / 8) + 16`` bytes long,
    reduced modulo ``modulus``; a 0 or a non-unit moves the counter on.  So
    every ``B_k`` is a unit in ``[1, modulus)``, within ``2**-128`` of
    uniform when SHAKE-256 is modelled as a random oracle.  Set-up and the
    device call it with ``n``; a unit modulo ``n**2`` comes from the same
    expansion with ``modulus = n**2``.
    """
    prefix = _BLINDED_TAG + encode_uint(modulus) + encode_bytes(seed)
    size = (modulus.bit_length() + 7) // 8 + 16
    values = []
    for k in range(count):
        counter = 0
        while True:
            digest = hashlib.shake_256(prefix + k.to_bytes(4, "big") +
                                       counter.to_bytes(4, "big"))
            value = int.from_bytes(digest.digest(size), "big") % modulus
            if math.gcd(value, modulus) == 1:
                break
            counter += 1
        values.append(value)
    return tuple(values)


@dataclass(frozen=True)
class EncryptedProfile:
    """The carrier-side record: everything the carrier ever holds.

    ``enc_coeffs`` are the encrypted polynomial coefficients ``Enc(p_0) ..
    Enc(p_s)``, and ``blinded_seed`` the 32 bytes that expand to the
    blinded randomizers ``B_0 .. B_s`` (``blinded_randomizers``).
    ``threshold`` is the per-user decision parameter; ``None`` selects the
    documented default rule at decision time.
    """

    public_key: PaillierPublicKey
    enc_coeffs: tuple[int, ...]
    blinded_seed: bytes
    size: int
    mode: FeatureMode
    count: int | None = None
    cap: int | None = None
    threshold: int | None = None

    def __post_init__(self):
        # A record of size 0 would default to threshold 0 and accept any
        # response; no set-up builds one, since a feature set is never empty.
        if self.size < 1:
            raise ValueError("profile size must be positive")
        if len(self.enc_coeffs) != self.size + 1:
            raise ValueError("coefficient count must be size + 1")
        if len(self.blinded_seed) != BLINDED_SEED_BYTES:
            raise ValueError(f"blinded seed must be {BLINDED_SEED_BYTES} "
                             "bytes")
        if self.threshold is not None and self.threshold < 1:
            raise ValueError("threshold must be positive")
        check_mode_params(self.mode, self.count, self.cap)

    def to_bytes(self) -> bytes:
        return (self.public_key.to_bytes() +
                encode_uints(self.enc_coeffs) +
                encode_bytes(self.blinded_seed) +
                encode_uint(self.size) +
                encode_mode(self.mode, self.count, self.cap) +
                encode_uint(self.threshold or 0))

    @classmethod
    def from_reader(cls, reader: Reader) -> "EncryptedProfile":
        pk = PaillierPublicKey.from_reader(reader)
        coeffs = reader.uints(MAX_COEFFS)
        seed = reader.bytes_lp(BLINDED_SEED_BYTES)
        size = reader.uint()
        mode, count, cap = read_mode_params(reader)
        threshold = reader.uint() or None
        return reader.build(cls, pk, coeffs, seed, size, mode,
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
    the encryption randomizers or the secret key.  ``d`` is drawn only among
    the units modulo ``lambda(n)``.
    """

    user_id: str
    secret_exponent: int  # d in [1, n), drawn until a unit mod lambda(n)
    anchor: int           # R', a unit modulo n**2
    mode: FeatureMode
    count: int | None = None
    cap: int | None = None

    def __post_init__(self):
        check_mode_params(self.mode, self.count, self.cap)

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
        return reader.build(cls, user_id, exponent, anchor, mode,
                            count=count, cap=cap)


@dataclass(frozen=True)
class SetupAudit:
    """Set-up intermediates that the device destroys, which only
    ``_setup`` returns: tests check monicity, the encryption randomizers
    and the blinding identity against them."""

    secret_key: PaillierSecretKey
    coeffs: tuple[int, ...]
    encryption_randomizers: tuple[int, ...]
    blinding: BlindingSolution


def _setup_encryption(
        context: tuple[PaillierPublicKey, PaillierSecretKey, int],
        job: tuple[int, int, int]) -> tuple[int, int]:
    """``encrypt``'s ``(cipher, r)`` for a job ``(coeff, blinding, B)``,
    with ``r = blinding * B**root mod n``, ``root = -d**-1 mod lambda(n)``,
    the root by CRT: then ``(blinding * r**-1)**d == B (mod n)``."""
    pk, sk, root = context
    coeff, blinding, blinded = job
    r = blinding * sk.pow_mod_n(blinded, root) % pk.n
    return encrypt(pk, coeff, r, sk=sk)


def build_encrypted_profile(
    user_id: str,
    features: FeatureSet,
    bits: int = DEFAULT_KEY_BITS,
    rng: random.Random | None = None,
    *,
    solver: str = "closed-form",
    threshold: int | None = None,
) -> tuple[EncryptedProfile, DeviceSecret]:
    """Run the whole set-up flow for one user; return ``(profile, secret)``.

    Generates a fresh keypair, draws ``R'``, solves the blinding system,
    draws ``d`` below ``n`` until it is a unit modulo ``lambda(n)``, draws
    the seed, and encrypts the profile polynomial under the randomizers
    that the seed's blinded randomizers call for.  The secret key and every
    other intermediate are dropped.

    Args:
        solver: ``"closed-form"`` (default) or ``"gaussian"``.
        threshold: per-user decision parameter stored with the profile.
    """
    profile, secret, _ = _setup(user_id, features, bits, rng, solver,
                                threshold)
    return profile, secret


def _setup(user_id: str, features: FeatureSet, bits: int,
           rng: random.Random | None, solver: str, threshold: int | None
           ) -> tuple[EncryptedProfile, DeviceSecret, SetupAudit]:
    """``build_encrypted_profile``'s flow, which also returns the
    ``SetupAudit`` of what it drops."""
    if solver not in ("closed-form", "gaussian"):
        raise ValueError(f"unknown solver {solver!r}")
    rng = rng or _SYSTEM
    pk, sk = keygen(bits, rng)
    n = pk.n
    coeffs = poly_from_roots(features, n)
    anchor = draw_unit(rng, pk.n_squared)
    if solver == "gaussian":
        blinding = solve_blinding_gaussian(features, anchor, pk, rng)
    else:
        blinding = solve_blinding(coeffs, anchor, pk, rng)
    d = rng.randrange(1, n)
    while math.gcd(d, sk.lam) != 1:
        d = rng.randrange(1, n)
    seed = rng.randbytes(BLINDED_SEED_BYTES)
    jobs = [(coeff, rp % n, blinded) for coeff, rp, blinded in zip(
        coeffs, blinding.randomizers,
        blinded_randomizers(n, seed, len(coeffs)))]
    ciphers, enc_randomizers = zip(*_in_pool(
        _setup_encryption, (pk, sk, -pow(d, -1, sk.lam) % sk.lam), jobs))
    profile = EncryptedProfile(
        pk, ciphers, seed, features.size, features.mode,
        count=features.count, cap=features.cap, threshold=threshold)
    secret = DeviceSecret(user_id, d, anchor, features.mode,
                          count=features.count, cap=features.cap)
    return profile, secret, SetupAudit(sk, tuple(coeffs), enc_randomizers,
                                       blinding)
