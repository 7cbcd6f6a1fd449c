"""The three-message authentication protocol and the decision rule.

One authentication run:

1. The carrier draws a fresh session exponent, raises every encrypted
   coefficient to it and sends those powers plus the stored blinded
   randomizers (``carrier_challenge``).
2. For each sample value the device evaluates the powered polynomial in the
   exponent and masks it with a per-value randomizer ``rho`` and its secret
   exponent ``d``.  It evaluates the blinded randomizers the same way,
   modulo ``n``, and emits the pair (cipher, ratio), where the ratio is
   ``(R'**d / blinded evaluation) ** rho mod n``; the pairs are shuffled
   before transmission (``device_respond``).
3. The carrier raises each ratio to ``n * theta`` and compares it against
   the cipher; the two collide exactly when the sample value is a profile
   feature (``carrier_score``).

The count of collisions is the set-intersection cardinality (Case A), the
similarity-weighted match total (Case B, ``device_respond_weighted``) or the
pairwise-min sum of the numeric vectors (Case C); ``decide`` turns it into a
dissimilarity score and an accept/reject outcome.

The carrier only ever needs the ratio modulo ``n``: its ``n * theta`` power
depends on nothing else.  So the device computes ``R'**d`` once per response
modulo ``n``, and runs the ratio leg's Horner steps and its ``rho`` power
modulo ``n`` as well.

The device evaluates both response legs by Horner's rule in the exponent,
``acc = acc**b * C_i`` from the top coefficient down, so every exponent is the
raw feature ``b`` rather than a power ``b**i``.  Both legs use the same
exponents, so the encryption randomizers cancel carrier-side, and the blinding
randomizers ``r'_i`` (``i >= 1``) lie in the order-``n`` subgroup, which the
carrier's ``n * theta`` power removes (see ``profiles``).

The per-entry powers are independent, so they run in one persistent pool of
forked worker processes, one per usable CPU, created on first use: the
challenge's ``C_i**theta``, the device's entries and the carrier's match
tests.  Everything else stays in the calling process: randomizer draws,
``R'**d``, the shuffle, and every check ``carrier_score`` makes before it
tests a match.  The secrets ``d``, ``rho`` and ``theta`` thus cross a pipe
only to forked children of the process that holds them.  A dead worker costs
one call its parallelism, not its result: the call finishes in-process and
the next one builds a new pool.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import random
import stat
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
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
    "usable_cpus",
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


def usable_cpus() -> int:
    """The CPUs this process may run on: the size of the worker pool."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not offered on every platform
        return os.cpu_count() or 1


# One worker pool per process, created on first use and kept until exit.
_pool: ProcessPoolExecutor | None = None
_pool_pid = 0
_pool_lock = threading.Lock()


def _close_inherited_sockets() -> None:
    """Worker initializer: drop the caller's sockets from the forked copy.

    A worker that kept a copy of a listening or connected socket would hold
    its port or connection open after the caller closed it.  The pool talks
    to its workers over pipes, which stay.
    """
    fd_dir = "/proc/self/fd" if os.path.isdir("/proc/self/fd") else "/dev/fd"
    for name in os.listdir(fd_dir):
        try:
            if stat.S_ISSOCK(os.fstat(int(name)).st_mode):
                os.close(int(name))
        except OSError:  # the listing's own descriptor, closed by now
            pass


def _get_pool() -> ProcessPoolExecutor:
    global _pool, _pool_pid
    with _pool_lock:
        # A forked child inherits the parent's executor but not its threads.
        if _pool is None or _pool_pid != os.getpid():
            # fork, not spawn or forkserver: those re-import the caller's
            # main script in every worker, and a script without a
            # ``__main__`` guard then runs again in each of them.
            _pool = ProcessPoolExecutor(
                max_workers=usable_cpus(),
                mp_context=multiprocessing.get_context("fork"),
                initializer=_close_inherited_sockets)
            _pool_pid = os.getpid()
        return _pool


def _drop_pool(pool: ProcessPoolExecutor) -> None:
    global _pool
    with _pool_lock:
        if _pool is pool:
            _pool = None
    pool.shutdown()


def _in_pool(job, context, items: list) -> list:
    """``job(context, chunk)`` over ``items`` in contiguous chunks, in order.

    Each of up to one pool process per usable CPU gets one chunk, so
    ``context`` is pickled once per worker.  With one CPU or one item the
    job runs in-process.  If a worker died, the pool is dropped, so the next
    call builds a new one, and the job reruns in-process; jobs are pure, so
    the values are the same.
    """
    chunks = min(usable_cpus(), len(items))
    if chunks <= 1:
        return job(context, items)
    pool = _get_pool()
    bounds = [len(items) * k // chunks for k in range(chunks + 1)]
    try:
        futures = [pool.submit(job, context, items[lo:hi])
                   for lo, hi in zip(bounds, bounds[1:])]
        return [out for future in futures for out in future.result()]
    except BrokenProcessPool:
        _drop_pool(pool)
        return job(context, items)


def _powers_chunk(context: tuple[int, int], bases: list[int]) -> list[int]:
    exponent, modulus = context
    return [pow(base, exponent, modulus) for base in bases]


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
    powered = tuple(_in_pool(_powers_chunk, (theta, n_squared),
                             [c.value for c in profile.enc_coeffs]))
    challenge = AuthChallenge(sid, profile.public_key, powered,
                              profile.blinded_randomizers, profile.mode,
                              count=profile.count, cap=profile.cap)
    state = SessionState(sid, theta, profile, time.monotonic())
    return challenge, state


def _response_entry(value: int, randomizer: int, secret: DeviceSecret,
                    challenge: AuthChallenge,
                    anchor_d: int) -> AuthResponseEntry:
    n, n_squared = challenge.public_key.n, challenge.public_key.n_squared
    # Horner's rule in the exponent, top coefficient first: the exponents are
    # the raw feature on both legs, so the encryption randomizers still cancel.
    # The ratio leg is only ever read modulo n.
    *lower_coeffs, cipher_acc = challenge.powered_coeffs
    *lower_blinded, blinded_acc = challenge.blinded_randomizers
    blinded_acc %= n
    for coeff, blinded in zip(reversed(lower_coeffs), reversed(lower_blinded)):
        cipher_acc = pow(cipher_acc, value, n_squared) * coeff % n_squared
        blinded_acc = pow(blinded_acc, value, n) * blinded % n
    if math.gcd(blinded_acc, n) != 1:
        raise ProtocolError("challenge's blinded randomizers evaluate to a "
                            "non-unit modulo n")
    cipher = pow(cipher_acc, secret.secret_exponent * randomizer, n_squared)
    ratio = pow(anchor_d * pow(blinded_acc, -1, n) % n, randomizer, n)
    return AuthResponseEntry(cipher, ratio)


def _response_chunk(context: tuple[DeviceSecret, AuthChallenge, int],
                    jobs: list[tuple[int, int]]) -> list[AuthResponseEntry]:
    secret, challenge, anchor_d = context
    return [_response_entry(value, randomizer, secret, challenge, anchor_d)
            for value, randomizer in jobs]


def _respond(secret: DeviceSecret, challenge: AuthChallenge,
             values: Sequence[int],
             rng: random.Random) -> list[AuthResponseEntry]:
    """One entry per listed value, randomizers drawn in list order, shuffled.

    The entries are built in the worker pool; the randomizers and the
    shuffle come from ``rng`` in this process, so a seeded run is fully
    reproducible whatever the number of CPUs.
    """
    pk = challenge.public_key
    anchor_d = pow(secret.anchor, secret.secret_exponent, pk.n)
    jobs = [(value, draw_unit(rng, pk.n_squared)) for value in values]
    entries = _in_pool(_response_chunk, (secret, challenge, anchor_d), jobs)
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
                   sample: FeatureSet, rng: random.Random | None = None
                   ) -> list[AuthResponseEntry]:
    """Build one response entry per sample value, shuffled (step 2).

    Per-value randomizers are drawn in ascending sample-value order.  The
    entries are spread over the worker pool, one process per usable CPU; on
    one CPU they are built in this process.  A challenge whose blinded
    randomizers evaluate to a non-unit modulo ``n`` raises ``ProtocolError``.
    """
    _check_modes(secret, challenge, sample)
    return _respond(secret, challenge, sample.values, rng or _SYSTEM)


def device_respond_weighted(secret: DeviceSecret, challenge: AuthChallenge,
                            sample: FeatureSet, sim: SimilarityFunction,
                            rng: random.Random | None = None
                            ) -> list[AuthResponseEntry]:
    """Weighted variant (step 2'): emit one entry per unit of similarity.

    For every value ``z`` in the union of supports, the total weight of ``z``
    against the sample determines how many independent entries are built on
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
    return _respond(secret, challenge, values, rng or _SYSTEM)


def _match_chunk(context: tuple[int, int, int],
                 entries: list[AuthResponseEntry]) -> list[bool]:
    theta, n, n_squared = context
    return [entry.cipher == pow(pow(entry.ratio, theta, n), n, n_squared)
            for entry in entries]


def carrier_score(session: SessionState,
                  entries: list[AuthResponseEntry]) -> int:
    """Count recognized entries (step 3) and consume the session.

    An entry matches when ``cipher == ratio ** (n * theta)`` modulo
    ``n**2``.  The power is split: the ratio is raised to ``theta`` modulo
    ``n``, and the result raised to ``n`` modulo ``n**2``.  This is exact
    because ``a == b (mod n)`` implies ``a**n == b**n (mod n**2)``.  One
    full-width power to the 2|n|-bit exponent ``n * theta`` becomes a
    half-width power to ``theta`` and a full-width power to ``n``, about two
    thirds of the cost.  The session is claimed before any validation, so
    a malformed response, an empty one included, still burns its challenge.
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
    it.  ``decide`` also takes ``|Y|`` in Case C from the entry count, which
    the device chooses; pinning it to the declared sample size, or to a
    bound stored at set-up in Case B, is still open.
    """
    session.consume()
    if not entries:
        raise ProtocolError("empty response")
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
    return sum(_in_pool(_match_chunk, (theta, n, n_squared), list(entries)))


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
    profile size and the received entry count (``sample_size``) and accepts
    when it stays at or below the threshold.

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
