import hashlib
import math
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from psiauth import (
    KeyGenerationError,
    MalformedCiphertextError,
    PaillierPublicKey,
    add_cipher,
    decrypt,
    draw_unit,
    encrypt,
    keygen,
    keypair_from_primes,
    scalar_pow,
)
from psiauth import paillier
from psiauth.encoding import encode_uint
from psiauth.paillier import PRIMALITY_ROUNDS, _SIEVE_PRODUCT, \
    _SMALL_PRIMES, _miller_rabin, _random_error_log2, _random_prime, \
    _random_rounds, is_probable_prime
from psiauth.protocol import short_exponent_bound


# Cofactors ``k * _PERIOD + unit`` are odd, at least 257 and coprime to every
# prime in ``_SMALL_PRIMES``, so they pass trial division by construction.
_PERIOD = 2 * math.prod(_SMALL_PRIMES)
_UNITS = [p for p in range(257, 1000, 2) if is_probable_prime(p)]


def plain_miller_rabin(candidate, rng, rounds=PRIMALITY_ROUNDS):
    """Reference: the Miller-Rabin test without the small-factor shortcut."""
    d, r = candidate - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for _ in range(rounds):
        a = rng.randrange(2, candidate - 1)
        x = pow(a, d, candidate)
        if x in (1, candidate - 1):
            continue
        for _ in range(r - 1):
            x = x * x % candidate
            if x == candidate - 1:
                break
        else:
            return False
    return True


# SHA-256 over (n, p) of ``keygen(1024, rng)`` with ``rng`` seeded 0 to 3,
# and the next 64 bits that ``rng`` draws, each as ``encode_uint`` writes
# it.  Its 512-bit primes take the reduced round count, which no other
# pinned digest reaches: those use 512-bit keys, whose 256-bit primes take
# all 60 rounds.  The keys alone hide the count: a 512-bit base takes as
# many draws as a 512-bit candidate, so a prime search that draws one base
# more or fewer often meets the same prime; the next draw shows it.
# Recorded from the tree before the change that added this pin had edited
# any other file, with _random_rounds(512) == 13.
PINNED_KEYGEN_DIGEST = ("7513c7964b75406275acb826010f7e23"
                        "dda328f82c289c87cc0cc816cc90ebcf")


class TestKeygen:
    def test_micro_parameters(self, tiny_keypair):
        pk, sk = tiny_keypair
        assert (pk.n, pk.n_squared) == (15, 225)
        assert sk.lam == 4  # lcm(2, 4)
        assert sk.lam * sk.mu % pk.n == 1

    def test_injected_primes_refused_without_flag(self):
        with pytest.raises(KeyGenerationError, match="insecure"):
            keypair_from_primes(3, 5)

    def test_injected_primes_validated(self):
        with pytest.raises(KeyGenerationError):
            keypair_from_primes(9, 5, insecure_test_mode=True)
        with pytest.raises(KeyGenerationError):
            keypair_from_primes(5, 5, insecure_test_mode=True)

    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError):
            keygen(8)

    def test_invariants_hold_for_100_random_64bit_keys(self):
        rng = random.Random(1234)
        for _ in range(100):
            pk, sk = keygen(64, rng)
            assert pk.n.bit_length() == 64
            assert pk.n_squared == pk.n * pk.n
            assert sk.p != sk.q and sk.p * sk.q == pk.n
            assert sk.lam == math.lcm(sk.p - 1, sk.q - 1)
            assert math.gcd(pk.n, sk.lam) == 1
            assert sk.lam * sk.mu % pk.n == 1

    def test_requested_bit_lengths(self, rng):
        for bits in (16, 33, 128):
            pk, _ = keygen(bits, rng)
            assert pk.n.bit_length() == bits

    @settings(max_examples=60, deadline=None)
    @given(bits=st.integers(min_value=16, max_value=640),
           seed=st.integers(min_value=0, max_value=1 << 32))
    @example(bits=16, seed=0)
    @example(bits=17, seed=0)
    def test_prime_pairs_have_the_full_bit_length(self, bits, seed):
        # keygen takes p*q without a bit-length check: both primes' top two
        # bits are set, so the product can be neither short nor long.
        rng = random.Random(seed)
        p = _random_prime(bits - bits // 2, rng)
        q = _random_prime(bits // 2, rng)
        assert (p * q).bit_length() == bits

    def test_generator_order(self, kp128):
        pk, _ = kp128
        g = 1 + pk.n
        assert pow(g, pk.n, pk.n_squared) == 1
        assert pow(g, 1, pk.n_squared) != 1
        assert pow(g, 2, pk.n_squared) != 1

    @settings(max_examples=150, deadline=None)
    @given(small=st.sampled_from([1, 257, 4099, 65521]),
           cofactor=st.builds(lambda k, unit: k * _PERIOD + unit,
                              st.integers(min_value=0, max_value=1 << 64),
                              st.sampled_from(_UNITS)),
           seed=st.integers(min_value=0, max_value=1 << 32))
    # Strong pseudoprimes to small bases, each with a factor below 2**16.
    @example(small=1, cofactor=1373653, seed=1)
    @example(small=1, cofactor=25326001, seed=2)
    @example(small=1, cofactor=2152302898747, seed=3)
    @example(small=1, cofactor=3474749660383, seed=4)
    # The first base is a strong liar, so the second round fails: the
    # rounds after the first, tested together, must leave the generator
    # just past the first failing base.
    @example(small=1, cofactor=1373653, seed=6)
    @example(small=1, cofactor=25326001, seed=15)
    @example(small=1, cofactor=2152302898747, seed=5)
    @example(small=1, cofactor=3474749660383, seed=1)
    def test_small_factor_shortcut_draws_like_the_plain_test(self, small,
                                                             cofactor, seed):
        # Same answer and the same bases drawn, so a seeded key generation
        # finds the same primes.
        candidate = small * (cofactor | 1)
        assume(all(candidate % p for p in _SMALL_PRIMES))
        fast, plain = random.Random(seed), random.Random(seed)
        assert is_probable_prime(candidate, fast) == \
            plain_miller_rabin(candidate, plain)
        assert fast.getstate() == plain.getstate()

    @pytest.mark.parametrize("rounds", [13, 6])
    @settings(max_examples=150, deadline=None)
    @given(small=st.sampled_from([1, 257, 4099, 65521]),
           cofactor=st.builds(lambda k, unit: k * _PERIOD + unit,
                              st.integers(min_value=0, max_value=1 << 64),
                              st.sampled_from(_UNITS)),
           seed=st.integers(min_value=0, max_value=1 << 32))
    # Strong pseudoprimes to small bases, each with a factor below 2**16.
    @example(small=1, cofactor=1373653, seed=1)
    @example(small=1, cofactor=25326001, seed=2)
    @example(small=1, cofactor=2152302898747, seed=3)
    @example(small=1, cofactor=3474749660383, seed=4)
    # The first base is a strong liar, so the second round fails.
    @example(small=1, cofactor=1373653, seed=6)
    @example(small=1, cofactor=25326001, seed=15)
    @example(small=1, cofactor=2152302898747, seed=5)
    @example(small=1, cofactor=3474749660383, seed=1)
    # A prime: every round passes, and exactly ``rounds`` bases are drawn.
    @example(small=1, cofactor=2**61 - 1, seed=7)
    def test_random_candidate_rounds_draw_like_the_plain_test(
            self, rounds, small, cofactor, seed):
        # Key generation's count for 512-bit and 1024-bit primes.
        candidate = small * (cofactor | 1)
        assume(all(candidate % p for p in _SMALL_PRIMES))
        fast, plain = random.Random(seed), random.Random(seed)
        assert _miller_rabin(candidate, fast, rounds) == \
            plain_miller_rabin(candidate, plain, rounds)
        assert fast.getstate() == plain.getstate()

    def test_random_rounds_keep_60_up_to_256_bits(self):
        # Every 512-bit key, the seeded ones in the tests included, draws
        # as it did with 60 rounds for each prime.
        assert all(_random_rounds(bits) == PRIMALITY_ROUNDS
                   for bits in range(8, 257))

    def test_random_rounds_at_512_and_1024_bits(self):
        assert (_random_rounds(512), _random_rounds(1024)) == (13, 6)
        # The bound itself, k**1.5 * 2**t / sqrt(t) * 4**(2 - sqrt(t*k)):
        # below 2**-130 at the count, above it one round fewer.
        for bits, rounds in ((512, 13), (1024, 6)):
            def bound(t):
                return bits ** 1.5 * 2 ** t / math.sqrt(t) * \
                    4 ** (2 - math.sqrt(t * bits))
            assert bound(rounds) <= 2 ** -130 < bound(rounds - 1)

    def test_each_random_round_count_is_the_least_that_meets_the_bound(self):
        for bits in range(21, 2049):
            rounds = _random_rounds(bits)
            allowed = range(3, bits // 9 + 1)
            meets = [t for t in allowed if _random_error_log2(bits, t) <= -130]
            if rounds == PRIMALITY_ROUNDS:
                assert not meets, bits
            else:
                assert rounds == meets[0], bits

    def test_caller_chosen_candidates_keep_every_round(self, monkeypatch):
        bases = []

        def counting(job, context, items):
            bases.append(len(items))
            return in_pool(job, context, items)

        in_pool = paillier._in_pool
        monkeypatch.setattr(paillier, "_in_pool", counting)
        _, sk = keygen(1024, random.Random(3))
        # Key generation: each first round in-process, 12 on the pool.
        assert set(bases) == {_random_rounds(512) - 1}
        bases.clear()
        assert is_probable_prime(sk.p, random.Random(3))
        assert bases == [PRIMALITY_ROUNDS - 1]

    def test_seeded_1024_bit_keys_pass_60_rounds(self):
        for seed in range(5):
            _, sk = keygen(1024, random.Random(seed))
            for prime in (sk.p, sk.q):
                assert prime.bit_length() == 512
                assert plain_miller_rabin(prime, random.Random(seed))

    def test_seeded_1024_bit_keys_are_pinned(self):
        digest = hashlib.sha256()
        for seed in range(4):
            rng = random.Random(seed)
            pk, sk = keygen(1024, rng)
            digest.update(encode_uint(pk.n) + encode_uint(sk.p) +
                          encode_uint(rng.getrandbits(64)))
        assert digest.hexdigest() == PINNED_KEYGEN_DIGEST

    def test_primality_helper_rejects_composites(self):
        assert is_probable_prime(2) and is_probable_prime(65537)
        assert not is_probable_prime(1)
        assert not is_probable_prime(65537 * 65539)

    def test_small_primes_and_sieve_product(self):
        # Trial division tries the odd primes below 256, and the shortcut
        # takes a gcd with the product of the primes from 257 to 2**16.
        def prime(m):
            return all(m % k for k in range(2, math.isqrt(m) + 1))

        assert _SMALL_PRIMES == tuple(m for m in range(3, 256) if prime(m))
        assert _SIEVE_PRODUCT == \
            math.prod(m for m in range(257, 1 << 16) if prime(m))


class TestEncryptDecrypt:
    def test_known_ciphertext_against_direct_evaluation(self, tiny_keypair):
        # Independent evaluation of (1 + m*n) * r**n mod n**2 for
        # n=15, m=7, r=2 gives 106 * 143 mod 225 = 83.
        pk, sk = tiny_keypair
        ct, r = encrypt(pk, 7, r=2)
        assert (ct, r) == (83, 2)
        assert ct == (1 + 7 * 15) * pow(2, 15, 225) % 225
        assert decrypt(pk, sk, ct) == 7

    def test_encrypt_zero_is_randomizer_power(self, kp128, rng):
        pk, sk = kp128
        r = draw_unit(rng, pk.n)
        ct, _ = encrypt(pk, 0, r=r)
        assert ct == pow(r, pk.n, pk.n_squared)
        assert decrypt(pk, sk, ct) == 0

    def test_randomizer_is_returned_when_drawn(self, kp128, rng):
        pk, sk = kp128
        ct, r = encrypt(pk, 5, rng=rng)
        assert 1 <= r < pk.n and math.gcd(r, pk.n) == 1
        expected = (1 + 5 * pk.n) * pow(r, pk.n, pk.n_squared) % pk.n_squared
        assert ct == expected

    def test_plaintext_range_checked(self, tiny_keypair):
        pk, _ = tiny_keypair
        with pytest.raises(ValueError):
            encrypt(pk, 15)
        with pytest.raises(ValueError):
            encrypt(pk, -1)

    def test_randomizer_must_be_unit(self, tiny_keypair):
        pk, _ = tiny_keypair
        for bad in (0, 3, 5, 15):
            with pytest.raises(ValueError):
                encrypt(pk, 1, r=bad)

    def test_decrypt_one_is_zero(self, tiny_keypair):
        pk, sk = tiny_keypair
        assert decrypt(pk, sk, 1) == 0

    def test_decrypt_rejects_malformed(self, tiny_keypair):
        pk, sk = tiny_keypair
        with pytest.raises(MalformedCiphertextError):
            decrypt(pk, sk, 15)  # divisible by n
        with pytest.raises(MalformedCiphertextError):
            decrypt(pk, sk, 0)
        with pytest.raises(MalformedCiphertextError):
            decrypt(pk, sk, 225)

    def test_roundtrip_random_plaintexts(self, kp512):
        pk, sk = kp512
        rng = random.Random(99)
        for _ in range(25):
            m = rng.randrange(pk.n)
            ct, _ = encrypt(pk, m, rng=rng)
            assert decrypt(pk, sk, ct) == m

    def test_probabilistic_encryption(self, kp128):
        pk, _ = kp128
        rng = random.Random(7)
        seen = {encrypt(pk, 42, rng=rng)[0] for _ in range(100)}
        assert len(seen) == 100

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(min_value=0))
    def test_roundtrip_property(self, kp128, m):
        pk, sk = kp128
        m %= pk.n
        ct, _ = encrypt(pk, m, rng=random.Random(m))
        assert decrypt(pk, sk, ct) == m


class TestCrtPower:
    """Set-up computes each encryption's ``r**n`` and each blinded power
    ``x**d mod n`` by CRT, holding p, q."""

    @pytest.fixture(scope="class")
    def keys(self, kp512):
        return {16: keygen(16, random.Random(16))[1], 512: kp512[1]}

    @settings(max_examples=120, deadline=None)
    @given(bits=st.sampled_from([16, 512]),
           order=st.sampled_from(["p-above-q", "p-below-q"]),
           unit=st.one_of(st.sampled_from(["1", "n-1"]), st.integers()),
           exponent=st.sampled_from(["0", "1", "n-1", "k*(p-1)", "k*(q-1)",
                                     "random"]),
           k=st.integers(min_value=1, max_value=1 << 600))
    @example(bits=16, order="p-above-q", unit="n-1", exponent="1", k=1)
    @example(bits=16, order="p-below-q", unit=2, exponent="n-1", k=1)
    @example(bits=512, order="p-above-q", unit=3, exponent="k*(p-1)", k=5)
    @example(bits=512, order="p-below-q", unit="1", exponent="k*(q-1)", k=1)
    @example(bits=16, order="p-below-q", unit=7, exponent="k*(p-1)", k=1)
    @example(bits=512, order="p-above-q", unit="n-1", exponent="n-1", k=1)
    def test_pow_mod_n_equals_plain_pow(self, keys, bits, order, unit,
                                        exponent, k):
        low, high = sorted((keys[bits].p, keys[bits].q))
        p, q = (high, low) if order == "p-above-q" else (low, high)
        pk, sk = keypair_from_primes(p, q, insecure_test_mode=True)
        n = pk.n
        unit = {"1": 1, "n-1": n - 1}[unit] if isinstance(unit, str) \
            else unit % n
        assume(math.gcd(unit, n) == 1)
        exponent = {"0": 0, "1": 1, "n-1": n - 1, "k*(p-1)": k * (p - 1),
                    "k*(q-1)": k * (q - 1), "random": k % n}[exponent]
        assert sk.pow_mod_n(unit, exponent) == pow(unit, exponent, n)

    def test_encrypt_with_secret_key_is_unchanged(self, kp512, rng):
        pk, sk = kp512
        for m in (0, 1, pk.n - 1, rng.randrange(pk.n)):
            seed = rng.getrandbits(32)
            assert encrypt(pk, m, rng=random.Random(seed), sk=sk) == \
                encrypt(pk, m, rng=random.Random(seed))

    def test_encrypt_refuses_a_foreign_secret_key(self, kp128, kp512):
        pk, _ = kp512
        _, foreign = kp128
        with pytest.raises(ValueError, match="does not match"):
            encrypt(pk, 1, r=2, sk=foreign)


class TestDigitPairPower:
    """``PaillierPublicKey.power`` computes ``pow(base, exponent, n**2)``."""

    @settings(max_examples=150, deadline=None)
    @given(bits=st.integers(min_value=16, max_value=512),
           seed=st.integers(min_value=0, max_value=1 << 32),
           base=st.sampled_from(["0", "1", "n", "p*k", "n**2-1", ">=n**2",
                                 "random"]),
           exponent=st.sampled_from(["0", "1", "2", "2**k", "2**k-1",
                                     "2**k+1", "random", "n-1", "n", "k*n",
                                     "k*n-1", "k*n+1", "d*rho",
                                     "d*(t+n*k)"]))
    @example(bits=16, seed=0, base="n**2-1", exponent="2**k-1")
    @example(bits=17, seed=1, base="p*k", exponent="random")
    @example(bits=511, seed=2, base=">=n**2", exponent="2**k+1")
    @example(bits=512, seed=3, base="random", exponent="random")
    # Both sides of the split at n, and its r = 0 edge with non-unit bases.
    @example(bits=16, seed=4, base="0", exponent="n-1")
    @example(bits=512, seed=5, base="n", exponent="n")
    @example(bits=16, seed=6, base="p*k", exponent="k*n")
    @example(bits=512, seed=7, base="0", exponent="k*n")
    @example(bits=16, seed=8, base=">=n**2", exponent="k*n-1")
    @example(bits=512, seed=9, base="p*k", exponent="k*n+1")
    @example(bits=16, seed=10, base="n", exponent="d*rho")
    @example(bits=512, seed=11, base=">=n**2", exponent="d*rho")
    # The device's mask: d times rho = t + n*k, k below the short bound.
    @example(bits=16, seed=12, base="random", exponent="d*(t+n*k)")
    @example(bits=512, seed=13, base="p*k", exponent="d*(t+n*k)")
    def test_equals_plain_pow(self, bits, seed, base, exponent):
        rng = random.Random(seed)
        pk, sk = keygen(bits, rng)
        n, n_squared = pk.n, pk.n_squared
        k = rng.randrange(1, 3 * bits + 1)
        base = {"0": 0, "1": 1, "n": n,
                "p*k": sk.p * rng.randrange(1, sk.q * n),
                "n**2-1": n_squared - 1,
                ">=n**2": rng.randrange(n_squared, n_squared ** 2),
                "random": rng.randrange(n_squared)}[base]
        exponent = {"0": 0, "1": 1, "2": 2, "2**k": 1 << k,
                    "2**k-1": (1 << k) - 1, "2**k+1": (1 << k) + 1,
                    "random": rng.getrandbits(k), "n-1": n - 1, "n": n,
                    "k*n": k * n, "k*n-1": k * n - 1, "k*n+1": k * n + 1,
                    "d*rho": rng.randrange(1, n) * rng.randrange(1, n_squared),
                    "d*(t+n*k)": rng.randrange(1, n) * (
                        rng.randrange(1, n) +
                        n * rng.randrange(short_exponent_bound(n)))
                    }[exponent]
        assert pk.power(base, exponent) == pow(base, exponent, n_squared)

    def test_squarings_follow_n_not_the_exponent(self, kp512, rng,
                                                 monkeypatch):
        # An exponent past n costs |n| squarings, not its own length.
        pk, _ = kp512
        n = pk.n
        walks = []
        walk = PaillierPublicKey.walk

        def counted(self, table, steps):
            steps = list(steps)
            walks.append(sum(squarings for squarings, _ in steps))
            return walk(self, table, steps)

        monkeypatch.setattr(PaillierPublicKey, "walk", counted)
        base = rng.randrange(pk.n_squared)
        mask = rng.randrange(1, n) * rng.randrange(1, pk.n_squared)
        assert mask.bit_length() > 2 * n.bit_length()
        assert pk.power(base, mask) == pow(base, mask, pk.n_squared)
        assert len(walks) == 1 and walks[0] <= n.bit_length() + 8
        short = rng.randrange(n // 2, n)
        walks.clear()
        assert pk.power(base, short) == pow(base, short, pk.n_squared)
        assert len(walks) == 1
        assert abs(walks[0] - short.bit_length()) <= 8

    @pytest.mark.slow
    def test_mask_at_2048_bits(self):
        rng = random.Random(2048)
        pk, _ = keygen(2048, rng)
        for _ in range(3):
            base = rng.randrange(pk.n_squared)
            mask = rng.randrange(1, pk.n) * rng.randrange(1, pk.n_squared)
            assert pk.power(base, mask) == pow(base, mask, pk.n_squared)

    def test_every_small_case(self, tiny_keypair):
        pk, _ = tiny_keypair
        for base in range(2 * pk.n_squared):
            for exponent in range(70):
                assert pk.power(base, exponent) == \
                    pow(base, exponent, pk.n_squared)

    def test_negative_exponent_rejected(self, kp128):
        pk, _ = kp128
        with pytest.raises(ValueError, match="nonnegative"):
            pk.power(2, -1)


class TestNthPowerRoute:
    """``r**n`` modulo ``p**2`` as ``(r**(q mod (p-1)) mod p)**p``, and the
    same modulo ``q**2`` with ``p`` and ``q`` swapped."""

    @pytest.fixture(scope="class", params=["p-above-q", "p-below-q"])
    def key(self, kp512, request):
        _, sk = kp512
        low, high = sorted((sk.p, sk.q))
        p, q = (high, low) if request.param == "p-above-q" else (low, high)
        return keypair_from_primes(p, q, insecure_test_mode=True)

    @settings(max_examples=60, deadline=None)
    @given(base=st.one_of(st.sampled_from(["1", "n-1"]),
                          st.integers(min_value=2)),
           m=st.integers(min_value=0))
    @example(base="1", m=0)
    @example(base="n-1", m=1)
    def test_equals_plain_pow(self, key, base, m):
        pk, sk = key
        r = {"1": 1, "n-1": pk.n - 1}[base] if isinstance(base, str) \
            else base % pk.n
        assume(math.gcd(r, pk.n) == 1)
        assert sk.pow_n_mod_n_squared(r) == pow(r, pk.n, pk.n_squared)
        m %= pk.n
        assert encrypt(pk, m, r, sk=sk) == encrypt(pk, m, r)


class TestHomomorphisms:
    def test_addition_example(self, kp128, rng):
        pk, sk = kp128
        c3, _ = encrypt(pk, 3, rng=rng)
        c4, _ = encrypt(pk, 4, rng=rng)
        assert decrypt(pk, sk, add_cipher(pk, c3, c4)) == 7

    def test_additive_identity(self, kp128, rng):
        pk, sk = kp128
        c, _ = encrypt(pk, 1234, rng=rng)
        zero, _ = encrypt(pk, 0, rng=rng)
        assert decrypt(pk, sk, add_cipher(pk, c, zero)) == 1234

    def test_addition_random_pairs(self, kp512):
        pk, sk = kp512
        rng = random.Random(5)
        for _ in range(25):
            m1, m2 = rng.randrange(pk.n), rng.randrange(pk.n)
            c1, _ = encrypt(pk, m1, rng=rng)
            c2, _ = encrypt(pk, m2, rng=rng)
            assert decrypt(pk, sk, add_cipher(pk, c1, c2)) == (m1 + m2) % pk.n

    def test_scalar_example(self, kp128, rng):
        pk, sk = kp128
        c2, _ = encrypt(pk, 2, rng=rng)
        assert decrypt(pk, sk, scalar_pow(pk, c2, 3)) == 6

    def test_scalar_zero_exponent(self, kp128, rng):
        pk, sk = kp128
        c, _ = encrypt(pk, 77, rng=rng)
        result = scalar_pow(pk, c, 0)
        assert result == 1
        assert decrypt(pk, sk, result) == 0

    def test_scalar_exponent_beyond_modulus(self, kp128, rng):
        pk, sk = kp128
        c, _ = encrypt(pk, 3, rng=rng)
        k = pk.n + 2
        assert decrypt(pk, sk, scalar_pow(pk, c, k)) == k * 3 % pk.n

    def test_scalar_random_pairs(self, kp512):
        pk, sk = kp512
        rng = random.Random(6)
        for _ in range(25):
            m, k = rng.randrange(pk.n), rng.randrange(pk.n)
            c, _ = encrypt(pk, m, rng=rng)
            assert decrypt(pk, sk, scalar_pow(pk, c, k)) == m * k % pk.n

    def test_negative_scalar_rejected(self, kp128, rng):
        pk, _ = kp128
        c, _ = encrypt(pk, 3, rng=rng)
        with pytest.raises(ValueError):
            scalar_pow(pk, c, -1)
