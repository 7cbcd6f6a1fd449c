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

Powers modulo ``n**2`` use the shape of the modulus
(``PaillierPublicKey.power`` and ``walk``): a residue is the digit pair ``a0 + a1*n``.
The term ``a1*b1*n**2`` of a product vanishes, so a product needs ``a0*b0``
in full and ``a0*b1 + a1*b0`` only modulo ``n``, and every reduction is by
the half-width ``n``.  CPython's ``pow`` reduces each double-width product
by ``n**2`` with schoolbook long division, and two reductions by ``n`` cost
about half of one by ``n**2``.  At 1024-bit keys a power costs two thirds
to three quarters of ``pow``'s, and the result is the same integer.

An exponent of at least ``n`` is split at ``n``.  Since ``a**n mod n**2``
depends only on ``a mod n`` (Paillier, EUROCRYPT 1999), for
``e = q*n + r`` the identity ``x**e == x**r * (x**q mod n)**n (mod n**2)``
holds for every integer ``x``, units or not.  So ``power`` runs one
half-width ``pow`` modulo ``n`` and one chain of ``|n|`` squarings for both
powers on the right.  The device's mask ``acc**(d * rho)``, an exponent of
about ``2|n| + 256`` bits (``rho = t + n*k`` with ``k`` below ``2**256``),
takes ``|n|`` squarings modulo ``n**2`` and a half-width power to
``|n| + 256`` bits.  ``power`` stays exact for every exponent.  Like
``pow``, a power takes a time that depends on the exponent.

A ciphertext is a plain integer in ``[1, n**2)``; every operation that takes
one checks that it is a unit modulo ``n**2``.  All operations are pure; keys
are immutable and safe to share across concurrent sessions.  Functions that
need randomness accept any ``random.Random``-compatible source and default
to ``random.SystemRandom``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .encoding import Reader, encode_uint
from .pool import _in_pool

__all__ = [
    "KeyGenerationError",
    "MalformedCiphertextError",
    "PaillierPublicKey",
    "PaillierSecretKey",
    "add_cipher",
    "decrypt",
    "draw_unit",
    "encrypt",
    "keygen",
    "scalar_pow",
]

DEFAULT_KEY_BITS = 1024
MIN_KEY_BITS = 16

# Miller-Rabin rounds where the bound for random candidates reaches no
# count (``_random_rounds``).  4**-60 bounds the chance that a composite
# passes in the worst case, whoever chose it.
PRIMALITY_ROUNDS = 60

# A random prime's error bound, in bits: 2**-128, with two bits spare for
# drawing only from the half of the range whose top two bits are set.
_RANDOM_ERROR_BITS = 130


def _sieve(split: int, high: int) -> tuple[tuple[int, ...], int]:
    """The odd primes below ``split``, and the product of the primes from
    ``split`` to ``high``, from one sieve of Eratosthenes."""
    sieve = bytearray([1]) * high
    for i in range(2, math.isqrt(high) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, high, i)))
    return (tuple(i for i in range(3, split) if sieve[i]),
            math.prod(i for i in range(split, high) if sieve[i]))


# The odd primes below 256, tried by division (``_miller_rabin``), and
# the product of the primes from 257 to 2**16, past trial division.
_SMALL_PRIMES, _SIEVE_PRODUCT = _sieve(256, 1 << 16)

_SYSTEM = random.SystemRandom()


class KeyGenerationError(RuntimeError):
    """Key generation failed (retry budget exhausted or invalid parameters)."""


class MalformedCiphertextError(ValueError):
    """The value is not a valid ciphertext under the given key."""


@dataclass(frozen=True)
class PaillierPublicKey:
    """Public key ``n`` (the generator is ``g = 1 + n``), ``n**2`` cached."""

    n: int
    n_squared: int

    @classmethod
    def from_modulus(cls, n: int) -> "PaillierPublicKey":
        if n < 3:
            raise ValueError("modulus too small")
        return cls(n=n, n_squared=n * n)

    def to_bytes(self) -> bytes:
        return encode_uint(self.n)

    @classmethod
    def from_reader(cls, reader: Reader) -> "PaillierPublicKey":
        return reader.build(cls.from_modulus, reader.uint())

    def digits(self, x: int) -> tuple[int, int]:
        """``x mod n**2`` as its base-``n`` digit pair ``(low, high)``."""
        high, low = divmod(x % self.n_squared, self.n)
        return low, high

    def times(self, x: tuple[int, int], y: tuple[int, int]
              ) -> tuple[int, int]:
        """The digit pair of the product of two digit pairs modulo ``n**2``."""
        carry, low = divmod(x[0] * y[0], self.n)
        return low, (x[0] * y[1] + x[1] * y[0] + carry) % self.n

    def walk(self, table: Sequence[tuple[int, int]],
             steps: Iterable[tuple[int, int]]) -> int:
        """A left-to-right chain of digit pairs, returned as ``[0, n**2)``.

        From ``1``, each step ``(squarings, index)`` squares that many times
        and then multiplies by ``table[index]``, unless ``index`` is 0.
        """
        n = self.n
        a_low, a_high = 1, 0
        for squarings, index in steps:
            for _ in range(squarings):
                carry, out = divmod(a_low * a_low, n)
                a_low, a_high = out, (2 * a_low * a_high + carry) % n
            if index:
                t_low, t_high = table[index]
                carry, out = divmod(a_low * t_low, n)
                a_low, a_high = out, (a_low * t_high + a_high * t_low +
                                      carry) % n
        return a_low + a_high * n

    def power(self, base: int, exponent: int) -> int:
        """``pow(base, exponent, n**2)``, by one ``walk`` over digit pairs.

        An exponent of at least ``n`` is split as ``q*n + r``, and the power
        is ``base**r * w**n`` with ``w = base**q mod n``, a half-width
        ``pow``.  This is exact for every integer base, units or not:
        ``a == b (mod n)`` implies ``a**n == b**n (mod n**2)``, so
        ``base**(q*n) = (base**q)**n`` depends on ``base**q`` modulo ``n``
        only.  The two powers, to exponents below ``n``, then share one
        chain of ``|n|`` squarings (interleaved windows, Moeller, SAC
        2001), however long the exponent.

        Each exponent is read left to right in windows of up to ``width``
        bits that start and end with a one, ``width`` growing with its
        length; a window multiplies the chain by its base to the window's
        value after the last of its bits is squared in.  The table holds
        ``1`` and the odd powers the windows use.  Like ``pow``, it takes a
        time that depends on the exponent.
        """
        if exponent < 0:
            raise ValueError("exponent must be nonnegative")
        if exponent < self.n:
            parts = [(base, exponent)]
        else:
            q, r = divmod(exponent, self.n)
            parts = [(base, r), (pow(base % self.n, q, self.n), self.n)]
        # (bits below the window, table index of its power), per part.
        table, windows = [(1, 0)], []
        for part_base, part_exponent in parts:
            bits = bin(part_exponent)[2:]
            width = 1 + sum(len(bits) > size for size in (23, 79, 239, 671))
            # part_base**window sits at table[offset + (window + 1) // 2].
            offset, largest, i = len(table) - 1, 1, 0
            while (start := bits.find("1", i)) >= 0:
                i = bits.rindex("1", start, start + width) + 1
                window = int(bits[start:i], 2)
                windows.append((len(bits) - i, offset + (window + 1) // 2))
                largest = max(largest, window)
            table.append(self.digits(part_base))
            if largest > 1:
                square = self.times(table[-1], table[-1])
                while len(table) - offset <= (largest + 1) // 2:
                    table.append(self.times(table[-1], square))
        # Top bit first; a second window at the same place adds (0, index).
        windows.sort(key=lambda window: -window[0])
        steps, place = [], max(part_exponent.bit_length()
                                for _, part_exponent in parts)
        for below, index in windows:
            steps.append((place - below, index))
            place = below
        steps.append((place, 0))
        return self.walk(table, steps)


@dataclass(frozen=True)
class PaillierSecretKey:
    """Prime factors plus ``lambda(n)`` and ``mu = lambda(n)**-1 mod n``.

    ``crt_lift``, the CRT constant ``(q**2)**-1 mod p**2``, is derived once
    per key.
    """

    p: int
    q: int
    lam: int
    mu: int
    crt_lift: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "crt_lift",
                           pow(self.q * self.q, -1, self.p * self.p))

    def _combine(self, at_p: int, at_q: int) -> int:
        """The residue modulo ``n**2`` of ones modulo ``p**2`` and ``q**2``."""
        q_squared = self.q * self.q
        return at_q + q_squared * ((at_p - at_q) * self.crt_lift %
                                   (self.p * self.p))

    def pow_n_mod_n_squared(self, base: int) -> int:
        """``base**n mod n**2``, the randomizer power of an encryption.

        Modulo ``p**2``, ``x**p`` depends only on ``x mod p``, and by Fermat
        ``base**q == base**(q mod (p-1)) (mod p)``; so ``base**n`` is
        ``(base**(q mod (p-1)) mod p)**p`` modulo ``p**2``, and the same
        with ``p`` and ``q`` swapped modulo ``q**2``.  A base divisible by
        ``p`` gives ``0`` on both sides.  Each half costs about two thirds
        of a power to ``n`` modulo ``p**2``; the value equals
        ``pow(base, n, n**2)``.
        """
        p, q = self.p, self.q
        return self._combine(pow(pow(base, q % (p - 1), p), p, p * p),
                             pow(pow(base, p % (q - 1), q), q, q * q))

    def pow_mod_n(self, unit: int, exponent: int) -> int:
        """``pow(unit, exponent, n)`` for a unit modulo ``n``, by CRT.

        Takes units only.  By Fermat ``unit**exponent`` is
        ``unit**(exponent mod (p-1))`` modulo ``p`` and likewise modulo
        ``q``, two half-width powers to half-width exponents; a multiple of
        ``p`` to an exponent divisible by ``p - 1`` would come out ``1``
        there instead of ``0``.  The halves are joined by Garner's step,
        with ``q**-1 mod p`` read off ``crt_lift`` as ``q * crt_lift``.
        About three tenths of a plain ``pow`` modulo ``n``.
        """
        p, q = self.p, self.q
        at_p = pow(unit, exponent % (p - 1), p)
        at_q = pow(unit, exponent % (q - 1), q)
        return at_q + q * ((at_p - at_q) * q * self.crt_lift % p)


def _passes_round(base: int, d: int, r: int, modulus: int) -> bool:
    """One Miller-Rabin round, ``modulus - 1 == d * 2**r`` with ``d`` odd:
    ``base**d`` is ``+-1`` or one of its ``r - 1`` squarings is ``-1``."""
    x = pow(base, d, modulus)
    if x == 1 or x == modulus - 1:
        return True
    for _ in range(r - 1):
        x = x * x % modulus
        if x == modulus - 1:
            return True
    return False


def _base_passes(context: tuple[int, int, int, int], base: int) -> bool:
    """Whether ``base`` passes its round modulo ``small`` (past ``1``) and
    then modulo the candidate, for ``context = (candidate, d, r, small)``."""
    candidate, d, r, small = context
    return (small == 1 or _passes_round(base, d, r, small)) and \
        _passes_round(base, d, r, candidate)


def _miller_rabin(candidate: int, rng: random.Random, rounds: int) -> bool:
    """Miller-Rabin primality test with ``rounds`` randomly chosen bases.

    A candidate with a prime factor below ``2**16`` is rejected by the
    first round that fails modulo ``g``, the product of those factors: a
    round that passes modulo the candidate passes modulo ``g``.  That is the
    round, and so the number of bases drawn, at which the plain test
    rejects it, at a small fraction of the cost.

    The first round runs here.  A random composite that passes it is rare
    (Damgard, Landrock and Pomerance, Math. Comp. 1993), so the other
    ``rounds - 1`` bases are drawn at once and tested together on the
    worker pool (``pool``), whose forked workers see the candidate as
    set-up's see ``p`` and ``q``.  If one fails, ``rng`` is rewound to just
    past the first failing base: the plain test draws exactly the bases up
    to it, so a seeded key is unchanged.
    """
    if candidate < 2:
        return False
    if candidate == 2:
        return True
    if candidate % 2 == 0:
        return False
    for p in _SMALL_PRIMES:
        if candidate % p == 0:
            return candidate == p
    d = candidate - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    context = (candidate, d, r, math.gcd(candidate, _SIEVE_PRODUCT))
    if not _base_passes(context, rng.randrange(2, candidate - 1)):
        return False
    try:
        state = rng.getstate()
    except NotImplementedError:  # SystemRandom: no state to replay
        state = None
    bases = [rng.randrange(2, candidate - 1) for _ in range(rounds - 1)]
    passed = _in_pool(_base_passes, context, bases)
    if all(passed):
        return True
    if state is not None:
        rng.setstate(state)
        for _ in range(passed.index(False) + 1):
            rng.randrange(2, candidate - 1)
    return False


def _random_error_log2(bits: int, rounds: int) -> float:
    """``log2`` of ``_random_prime``'s bound on the chance that a random
    ``bits``-bit candidate that passed ``rounds`` rounds is composite."""
    return (1.5 * math.log2(bits) + rounds - 0.5 * math.log2(rounds) +
            2 * (2 - math.sqrt(rounds * bits)))


def _random_rounds(bits: int) -> int:
    """Miller-Rabin rounds for a uniformly drawn ``bits``-bit candidate:
    the smallest ``t`` with ``3 <= t <= bits/9`` whose bound
    (``_random_error_log2``) is at most ``2**-_RANDOM_ERROR_BITS``, or
    ``PRIMALITY_ROUNDS`` where there is none.  13 at 512 bits, 6 at 1024,
    and 60 for every size up to 256 bits."""
    for rounds in range(3, bits // 9 + 1):
        if _random_error_log2(bits, rounds) <= -_RANDOM_ERROR_BITS:
            return rounds
    return PRIMALITY_ROUNDS


def _random_prime(bits: int, rng: random.Random) -> int:
    """Random prime with exactly ``bits`` bits and the top two bits set.

    Forcing the two leading bits makes the product of two such primes always
    have the full target bit length.

    Each candidate is drawn uniformly, so it takes ``_random_rounds(bits)``
    Miller-Rabin rounds.  For a random odd ``k``-bit number, the chance
    that it is composite given that it passed ``t`` rounds is at most
    ``k**(3/2) * 2**t * t**(-1/2) * 4**(2 - sqrt(t*k))`` for ``k >= 21``
    and ``3 <= t <= k/9`` (Damgard, Landrock and Pomerance, Math. Comp.
    1993; Handbook of Applied Cryptography, Fact 4.48(ii)).  The count
    keeps that below ``2**-130``: ``2**-128``, with two bits spare for
    drawing from only the half of the ``k``-bit range whose second bit is
    set.  Where no ``t`` in range reaches it, as up to 256 bits, the count
    is ``PRIMALITY_ROUNDS``.  The bound averages over random candidates,
    so it says nothing about a candidate someone chose.
    """
    if bits < 8:
        raise KeyGenerationError("prime size below 8 bits")
    top = (1 << (bits - 1)) | (1 << (bits - 2))
    rounds = _random_rounds(bits)
    for _ in range(128 * bits):
        candidate = rng.getrandbits(bits) | top | 1
        if _miller_rabin(candidate, rng, rounds):
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
        # Both primes have their top two bits set, so p*q has exactly bits
        # bits: at least 9 * 2**(bits - 4) and below 2**bits.
        p = _random_prime(bits - bits // 2, rng)
        q = _random_prime(bits // 2, rng)
        if p == q or math.gcd(p * q, math.lcm(p - 1, q - 1)) != 1:
            continue
        return _assemble(p, q)
    raise KeyGenerationError("no valid modulus within retry budget")


def draw_unit(rng: random.Random, modulus: int) -> int:
    """Uniform element of ``[1, modulus)`` coprime to ``modulus``."""
    while True:
        value = rng.randrange(1, modulus)
        if math.gcd(value, modulus) == 1:
            return value


def _check_cipher(pk: PaillierPublicKey, c: int) -> None:
    if not 1 <= c < pk.n_squared:
        raise MalformedCiphertextError("ciphertext outside [1, n**2 - 1]")
    if math.gcd(c, pk.n) != 1:
        raise MalformedCiphertextError("ciphertext shares a factor with n")


def encrypt(pk: PaillierPublicKey, m: int, r: int | None = None,
            rng: random.Random | None = None, *,
            sk: PaillierSecretKey | None = None) -> tuple[int, int]:
    """Encrypt ``m`` as ``(1 + m*n) * r**n mod n**2``.

    Args:
        m: plaintext in ``[0, n)``.
        r: randomizer, a unit in ``[1, n)``; drawn uniformly when omitted.
        rng: entropy source used when ``r`` is omitted.
        sk: the matching secret key, if the caller holds it; ``r**n`` is
            then computed by CRT through ``r mod p`` and ``r mod q``
            (``PaillierSecretKey.pow_n_mod_n_squared``), with the same
            result.

    Returns:
        The ciphertext together with the randomizer actually used, which
        a caller that let ``encrypt`` draw it can keep.
    """
    if not 0 <= m < pk.n:
        raise ValueError("plaintext outside [0, n)")
    if sk is not None and sk.p * sk.q != pk.n:
        raise ValueError("secret key does not match the public key")
    if r is None:
        r = draw_unit(rng or _SYSTEM, pk.n)
    elif not 1 <= r < pk.n or math.gcd(r, pk.n) != 1:
        raise ValueError("randomizer must be a unit in [1, n)")
    r_to_n = sk.pow_n_mod_n_squared(r) if sk else pk.power(r, pk.n)
    return (1 + m * pk.n) * r_to_n % pk.n_squared, r


def decrypt(pk: PaillierPublicKey, sk: PaillierSecretKey, c: int) -> int:
    """Recover the plaintext in ``[0, n)``.

    Raises:
        MalformedCiphertextError: the value is not a unit modulo ``n**2`` or
            the L-function division is not exact.
    """
    _check_cipher(pk, c)
    u = pk.power(c, sk.lam)
    quotient, remainder = divmod(u - 1, pk.n)
    if remainder:
        raise MalformedCiphertextError("L-function division not exact")
    return quotient * sk.mu % pk.n


def add_cipher(pk: PaillierPublicKey, c1: int, c2: int) -> int:
    """Ciphertext of ``m1 + m2 mod n``: the product ``c1 * c2 mod n**2``."""
    _check_cipher(pk, c1)
    _check_cipher(pk, c2)
    return c1 * c2 % pk.n_squared


def scalar_pow(pk: PaillierPublicKey, c: int, k: int) -> int:
    """Ciphertext of ``k * m mod n``: the power ``c**k mod n**2``; a
    negative ``k`` raises ``ValueError``."""
    _check_cipher(pk, c)
    return pk.power(c, k)
