"""Paillier cryptosystem with the two homomorphic operations the protocol uses.

This is the ``g = 1 + n`` variant: the public key is the RSA-style modulus
``n``, ciphertexts live modulo ``n**2``, and encryption needs a single modular
power for the randomizer because ``g**m = 1 + m*n (mod n**2)``.  The secret
key stores the Carmichael exponent ``lambda(n) = lcm(p-1, q-1)`` together with
its inverse ``mu`` modulo ``n``; decryption is ``L(c**lambda mod n**2) * mu
mod n`` with ``L(u) = (u - 1) / n`` an exact integer division.

Homomorphic identities, for plaintexts reduced modulo ``n``:

* ``decrypt(add_cipher(E(m1), E(m2))) == m1 + m2``
* ``decrypt(scalar_pow(E(m), k)) == k * m``

All operations are pure; keys and ciphertexts are immutable and safe to share
across concurrent sessions.  Functions that need randomness accept any
``random.Random``-compatible source and default to ``random.SystemRandom``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .encoding import Reader, encode_uint

__all__ = [
    "Ciphertext",
    "KeyGenerationError",
    "MalformedCiphertextError",
    "PaillierPublicKey",
    "PaillierSecretKey",
    "add_cipher",
    "decrypt",
    "draw_unit",
    "encrypt",
    "is_probable_prime",
    "keygen",
    "keypair_from_primes",
    "scalar_pow",
]

DEFAULT_KEY_BITS = 1024
MIN_KEY_BITS = 16

# Miller-Rabin rounds; error probability at most 4**-60 per candidate.
PRIMALITY_ROUNDS = 60

_SMALL_PRIMES = (
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
    73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227,
    229, 233, 239, 241, 251,
)

_SYSTEM = random.SystemRandom()


class KeyGenerationError(RuntimeError):
    """Key generation failed (retry budget exhausted or invalid parameters)."""


class MalformedCiphertextError(ValueError):
    """The value is not a valid ciphertext under the given key."""


@dataclass(frozen=True)
class PaillierPublicKey:
    """Public key ``(n, g)`` with ``g = 1 + n`` and ``n**2`` cached."""

    n: int
    g: int
    n_squared: int

    @classmethod
    def from_modulus(cls, n: int) -> "PaillierPublicKey":
        if n < 3:
            raise ValueError("modulus too small")
        return cls(n=n, g=n + 1, n_squared=n * n)

    def to_bytes(self) -> bytes:
        return encode_uint(self.n)

    @classmethod
    def from_reader(cls, reader: Reader) -> "PaillierPublicKey":
        n = reader.uint()
        if n < 3:
            reader.fail("public modulus too small")
        return cls.from_modulus(n)


@dataclass(frozen=True)
class PaillierSecretKey:
    """Prime factors plus ``lambda(n)`` and ``mu = lambda(n)**-1 mod n``."""

    p: int
    q: int
    lam: int
    mu: int


@dataclass(frozen=True)
class Ciphertext:
    """An element of ``[1, n**2 - 1]`` coprime to ``n``."""

    value: int


def is_probable_prime(candidate: int, rounds: int = PRIMALITY_ROUNDS,
                      rng: random.Random | None = None) -> bool:
    """Miller-Rabin primality test with randomly chosen bases."""
    if candidate < 2:
        return False
    if candidate == 2:
        return True
    if candidate % 2 == 0:
        return False
    for p in _SMALL_PRIMES:
        if candidate % p == 0:
            return candidate == p
    rng = rng or _SYSTEM
    d = candidate - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randrange(2, candidate - 1)
        x = pow(a, d, candidate)
        if x == 1 or x == candidate - 1:
            continue
        for _ in range(r - 1):
            x = x * x % candidate
            if x == candidate - 1:
                break
        else:
            return False
    return True


def _random_prime(bits: int, rng: random.Random) -> int:
    """Random prime with exactly ``bits`` bits and the top two bits set.

    Forcing the two leading bits makes the product of two such primes always
    have the full target bit length.
    """
    if bits < 8:
        raise KeyGenerationError("prime size below 8 bits")
    top = (1 << (bits - 1)) | (1 << (bits - 2))
    for _ in range(128 * bits):
        candidate = rng.getrandbits(bits) | top | 1
        if is_probable_prime(candidate, rng=rng):
            return candidate
    raise KeyGenerationError(f"no {bits}-bit prime found within retry budget")


def _assemble(p: int, q: int) -> tuple[PaillierPublicKey, PaillierSecretKey]:
    n = p * q
    lam = math.lcm(p - 1, q - 1)
    if math.gcd(n, lam) != 1:
        raise KeyGenerationError("gcd(n, lambda(n)) != 1")
    pk = PaillierPublicKey.from_modulus(n)
    sk = PaillierSecretKey(p=p, q=q, lam=lam, mu=pow(lam, -1, n))
    return pk, sk


def keygen(bits: int = DEFAULT_KEY_BITS,
           rng: random.Random | None = None) -> tuple[PaillierPublicKey, PaillierSecretKey]:
    """Generate a keypair whose modulus has exactly ``bits`` bits.

    Args:
        bits: modulus size; at least 16 (small sizes are for tests only,
            production use should keep the 1024-bit default or larger).
        rng: seedable entropy source; defaults to ``random.SystemRandom``.

    Raises:
        KeyGenerationError: no suitable primes within the retry budget.
    """
    if bits < MIN_KEY_BITS:
        raise ValueError(f"key size below {MIN_KEY_BITS} bits")
    rng = rng or _SYSTEM
    for _ in range(64):
        p = _random_prime(bits - bits // 2, rng)
        q = _random_prime(bits // 2, rng)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != bits or math.gcd(n, math.lcm(p - 1, q - 1)) != 1:
            continue
        return _assemble(p, q)
    raise KeyGenerationError("no valid modulus within retry budget")


def keypair_from_primes(p: int, q: int, *, insecure_test_mode: bool = False
                        ) -> tuple[PaillierPublicKey, PaillierSecretKey]:
    """Build a keypair from fixed primes; reproducible micro-examples only.

    Refused unless ``insecure_test_mode`` is set, since caller-chosen primes
    void every security property.
    """
    if not insecure_test_mode:
        raise KeyGenerationError(
            "injected primes are refused outside insecure test mode")
    if p == q:
        raise KeyGenerationError("primes must be distinct")
    if p % 2 == 0 or q % 2 == 0:
        raise KeyGenerationError("primes must be odd")
    for value in (p, q):
        if not is_probable_prime(value):
            raise KeyGenerationError(f"{value} is not prime")
    return _assemble(p, q)


def draw_unit(rng: random.Random, modulus: int) -> int:
    """Uniform element of ``[1, modulus)`` coprime to ``modulus``."""
    while True:
        value = rng.randrange(1, modulus)
        if math.gcd(value, modulus) == 1:
            return value


def _check_cipher(pk: PaillierPublicKey, c: Ciphertext) -> None:
    if not 1 <= c.value < pk.n_squared:
        raise MalformedCiphertextError("ciphertext outside [1, n**2 - 1]")
    if math.gcd(c.value, pk.n) != 1:
        raise MalformedCiphertextError("ciphertext shares a factor with n")


def encrypt(pk: PaillierPublicKey, m: int, r: int | None = None,
            rng: random.Random | None = None) -> tuple[Ciphertext, int]:
    """Encrypt ``m`` as ``(1 + m*n) * r**n mod n**2``.

    Args:
        m: plaintext in ``[0, n)``.
        r: randomizer, a unit in ``[1, n)``; drawn uniformly when omitted.
        rng: entropy source used when ``r`` is omitted.

    Returns:
        The ciphertext together with the randomizer actually used (the
        profile set-up needs the per-coefficient randomizers).
    """
    if not 0 <= m < pk.n:
        raise ValueError("plaintext outside [0, n)")
    if r is None:
        r = draw_unit(rng or _SYSTEM, pk.n)
    elif not 1 <= r < pk.n or math.gcd(r, pk.n) != 1:
        raise ValueError("randomizer must be a unit in [1, n)")
    value = (1 + m * pk.n) * pow(r, pk.n, pk.n_squared) % pk.n_squared
    return Ciphertext(value), r


def decrypt(pk: PaillierPublicKey, sk: PaillierSecretKey, c: Ciphertext) -> int:
    """Recover the plaintext in ``[0, n)``.

    Raises:
        MalformedCiphertextError: the value is not a unit modulo ``n**2`` or
            the L-function division is not exact.
    """
    _check_cipher(pk, c)
    u = pow(c.value, sk.lam, pk.n_squared)
    quotient, remainder = divmod(u - 1, pk.n)
    if remainder:
        raise MalformedCiphertextError("L-function division not exact")
    return quotient * sk.mu % pk.n


def add_cipher(pk: PaillierPublicKey, c1: Ciphertext, c2: Ciphertext) -> Ciphertext:
    """Ciphertext of ``m1 + m2 mod n``: the product ``c1 * c2 mod n**2``."""
    _check_cipher(pk, c1)
    _check_cipher(pk, c2)
    return Ciphertext(c1.value * c2.value % pk.n_squared)


def scalar_pow(pk: PaillierPublicKey, c: Ciphertext, k: int) -> Ciphertext:
    """Ciphertext of ``k * m mod n``: the power ``c**k mod n**2``."""
    if k < 0:
        raise ValueError("exponent must be nonnegative")
    _check_cipher(pk, c)
    return Ciphertext(pow(c.value, k, pk.n_squared))
