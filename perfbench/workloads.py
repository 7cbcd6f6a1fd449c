"""Seeded inputs for the loopback benchmark's three workloads.

Each workload enrolls ``USERS`` users with an explicit threshold and then
authenticates round-robin over them, alternating genuine and impostor
samples so that both outcomes occur.  Everything here is plaintext and
derived from the seed alone; the benchmark hands the program only the
finished ``FeatureSet`` values.

Every sample of a workload has the same size, so the work per
authentication does not depend on which sample comes up and a run's median
does not jump between clusters:

* ``login-a``: Case A, 20 hashed 128-bit profile features, samples of 6
  (genuine 5 of 6 in the profile, impostor 1 of 6); threshold 4.
* ``login-b``: Case B over the values 1..64, 8 profile values, samples of 4
  values; the similarity table gives each value self-weight 2 and weight 1
  to its two cyclic neighbours, so every response has 16 entries built
  from 8 to 12 distinct values.  Genuine samples hold 2 or 3 profile values
  (weighted score at least 4), impostors avoid the profile and its
  neighbours (score 0); threshold 4.
* ``login-c``: Case C, vectors of t = 8 entries capped at M = 5 with entry
  sum 20, so profile and samples both encode to 20 values of at most 40.
  Genuine samples move four entries up and four down by one (L1 distance
  8); impostors are random vectors at distance above the threshold 10.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from psiauth import FeatureMode, FeatureSet, SimilarityFunction, \
    encode_numeric, hash_feature

USERS = 3
SAMPLES_PER_KIND = 8

CASE_A_PROFILE = 20
CASE_A_SAMPLE = 6

CASE_B_DOMAIN = 64
CASE_B_PROFILE = 8
CASE_B_SAMPLE = 4

CASE_C_COUNT = 8
CASE_C_CAP = 5
CASE_C_SUM = 20


@dataclass(frozen=True)
class Sample:
    features: FeatureSet
    genuine: bool
    vector: tuple[int, ...] | None = None  # Case C plaintext, for oracle_l1


@dataclass(frozen=True)
class User:
    features: FeatureSet
    threshold: int
    genuine: tuple[Sample, ...]
    impostor: tuple[Sample, ...]
    vector: tuple[int, ...] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    mode: FeatureMode
    users: tuple[User, ...]
    similarity: SimilarityFunction | None = None

    def attempt(self, index: int) -> tuple[int, Sample]:
        """Round-robin user, alternating genuine and impostor samples."""
        user = self.users[index % len(self.users)]
        pool = user.genuine if index % 2 == 0 else user.impostor
        return index % len(self.users), pool[(index // 2) % len(pool)]


def _case_a(rng: random.Random) -> Workload:
    def fresh(count: int, taken: set[int]) -> list[int]:
        values = []
        while len(values) < count:
            value = hash_feature(rng.getrandbits(64).to_bytes(8, "big"))
            if value not in taken:
                taken.add(value)
                values.append(value)
        return values

    def sample(profile: list[int], inside: int, taken: set[int],
               genuine: bool) -> Sample:
        values = rng.sample(profile, inside) + \
            fresh(CASE_A_SAMPLE - inside, taken)
        return Sample(FeatureSet.from_values(FeatureMode.CASE_A, values),
                      genuine)

    users = []
    for _ in range(USERS):
        taken: set[int] = set()
        profile = fresh(CASE_A_PROFILE, taken)
        users.append(User(
            FeatureSet.from_values(FeatureMode.CASE_A, profile), threshold=4,
            genuine=tuple(sample(profile, 5, taken, True)
                          for _ in range(SAMPLES_PER_KIND)),
            impostor=tuple(sample(profile, 1, taken, False)
                           for _ in range(SAMPLES_PER_KIND))))
    return Workload("login-a", FeatureMode.CASE_A, tuple(users))


def _neighbours(value: int) -> tuple[int, int]:
    return (value - 2) % CASE_B_DOMAIN + 1, value % CASE_B_DOMAIN + 1


def similarity_table() -> SimilarityFunction:
    """Self-weight 2 and weight 1 to both cyclic neighbours in 1..64."""
    entries = []
    for y in range(1, CASE_B_DOMAIN + 1):
        entries.append((y, y, 2))
        entries.extend((y, z, 1) for z in _neighbours(y))
    return SimilarityFunction.from_entries(entries)


def _case_b(rng: random.Random) -> Workload:
    domain = range(1, CASE_B_DOMAIN + 1)
    users = []
    for _ in range(USERS):
        profile = rng.sample(domain, CASE_B_PROFILE)
        near = set(profile)
        for value in profile:
            near.update(_neighbours(value))
        outside = [v for v in domain if v not in profile]
        far = [v for v in domain if v not in near]
        genuine = []
        for _ in range(SAMPLES_PER_KIND):
            inside = rng.choice((2, 3))
            values = rng.sample(profile, inside) + \
                rng.sample(outside, CASE_B_SAMPLE - inside)
            genuine.append(Sample(
                FeatureSet.from_values(FeatureMode.CASE_B, values), True))
        impostor = tuple(
            Sample(FeatureSet.from_values(FeatureMode.CASE_B,
                                          rng.sample(far, CASE_B_SAMPLE)),
                   False)
            for _ in range(SAMPLES_PER_KIND))
        users.append(User(FeatureSet.from_values(FeatureMode.CASE_B, profile),
                          threshold=4, genuine=tuple(genuine),
                          impostor=impostor))
    return Workload("login-b", FeatureMode.CASE_B, tuple(users),
                    similarity=similarity_table())


def _vector_with_sum(rng: random.Random, low: int, high: int) -> list[int]:
    while True:
        vector = [rng.randint(low, high) for _ in range(CASE_C_COUNT)]
        if sum(vector) == CASE_C_SUM:
            return vector


def _case_c(rng: random.Random) -> Workload:
    threshold = 10

    def sample(vector: list[int], genuine: bool) -> Sample:
        return Sample(encode_numeric(vector, CASE_C_CAP), genuine,
                      vector=tuple(vector))

    users = []
    for _ in range(USERS):
        # Entries in [1, 4] stay inside [0, M] after a +-1 move.
        profile = _vector_with_sum(rng, 1, 4)
        genuine = []
        for _ in range(SAMPLES_PER_KIND):
            up = set(rng.sample(range(CASE_C_COUNT), CASE_C_COUNT // 2))
            genuine.append(sample(
                [u + 1 if i in up else u - 1 for i, u in enumerate(profile)],
                True))
        impostor = []
        while len(impostor) < SAMPLES_PER_KIND:
            vector = _vector_with_sum(rng, 0, CASE_C_CAP)
            if sum(abs(a - b) for a, b in zip(profile, vector)) > threshold:
                impostor.append(sample(vector, False))
        users.append(User(encode_numeric(profile, CASE_C_CAP), threshold,
                          genuine=tuple(genuine), impostor=tuple(impostor),
                          vector=tuple(profile)))
    return Workload("login-c", FeatureMode.CASE_C, tuple(users))


BUILDERS = {"login-a": _case_a, "login-b": _case_b, "login-c": _case_c}


def build(name: str, seed: int) -> Workload:
    """The inputs of workload ``name``; the same seed gives the same inputs."""
    return BUILDERS[name](random.Random(f"{name}:{seed}"))
