"""Set-up and authentication timing over a grid of profile sizes.

Times the full in-process protocol for equal profile and sample sizes, the
way the reference measurements were taken: set-up covers key generation
through the finished carrier record, authentication covers challenge,
response, scoring and decision.

With a seed, every size re-runs the profile's generator from the seed, and
the features come from a generator of their own, so the keypair (and its
generation cost) is identical across sizes and the series isolates the
size-dependent work; unseeded runs pay a fresh key generation per
measurement.
"""

from __future__ import annotations

import csv
import random
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from . import pool
from .profiles import FeatureMode, FeatureSet, build_encrypted_profile
from .protocol import carrier_challenge, carrier_score, decide, \
    device_respond

__all__ = ["BenchRecord", "bench_run", "format_table", "write_csv"]

CSV_COLUMNS = ("size", "setup_s", "auth_s", "key_bits", "solver", "parallelism")


@dataclass(frozen=True)
class BenchRecord:
    set_size: int
    setup_seconds: float
    auth_seconds: float
    key_bits: int
    solver: str
    parallelism: int

    def __post_init__(self):
        if self.setup_seconds < 0 or self.auth_seconds < 0:
            raise ValueError("times must be nonnegative")


def _distinct_features(rng: random.Random, count: int, bits: int) -> list[int]:
    values: set[int] = set()
    while len(values) < count:
        values.add(rng.randrange(1, (1 << bits) + 1))
    return sorted(values)


def _measure(size: int, key_bits: int, solver: str, rng: random.Random,
             features_rng: random.Random, feature_bits: int,
             include_auth: bool) -> tuple[float, float]:
    candidates = _distinct_features(features_rng, 2 * size, feature_bits)
    profile_values = candidates[:size]
    sample_values = candidates[size // 2: size // 2 + size]  # half overlap
    features = FeatureSet.from_values(FeatureMode.CASE_A, profile_values)
    started = time.perf_counter()
    profile, secret = build_encrypted_profile(
        "bench", features, key_bits, rng, solver=solver)
    setup_seconds = time.perf_counter() - started
    if not include_auth:
        return setup_seconds, 0.0
    sample = FeatureSet.from_values(FeatureMode.CASE_A, sample_values)
    started = time.perf_counter()
    challenge, session = carrier_challenge(profile, rng)
    entries = device_respond(secret, challenge, sample, rng)
    matches = carrier_score(session, entries)
    decide(matches, profile, len(entries))
    auth_seconds = time.perf_counter() - started
    return setup_seconds, auth_seconds


def bench_run(sizes: Sequence[int], key_bits: int = 1024,
              solver: str = "closed-form", repetitions: int = 3,
              seed: int | None = None, *, feature_bits: int = 128,
              include_auth: bool = True) -> list[BenchRecord]:
    """Median-of-repetitions timings for each size; returns one record each.

    Key generation's Miller-Rabin rounds, set-up's powers and the device
    response run on the worker pool; each record's ``parallelism`` is the
    number of usable CPUs they had.  Every
    repetition builds a profile and challenges it once, so ``auth_seconds``
    always includes squaring to the teeth of every coefficient
    (``challenge_teeth``), seeded or not: the cost of a carrier's first
    challenge of a stored record.
    """
    if not sizes:
        raise ValueError("no sizes to benchmark")
    if repetitions < 1:
        raise ValueError("repetitions must be positive")
    records = []
    for size in sizes:
        setup_times = []
        auth_times = []
        for _ in range(repetitions):
            if seed is None:
                rng, features_rng = random.Random(), random.Random()
            else:
                rng = random.Random(seed)
                features_rng = random.Random(f"features {seed}")
            setup_s, auth_s = _measure(size, key_bits, solver, rng,
                                       features_rng, feature_bits,
                                       include_auth)
            setup_times.append(setup_s)
            auth_times.append(auth_s)
        records.append(BenchRecord(
            set_size=size,
            setup_seconds=statistics.median(setup_times),
            auth_seconds=statistics.median(auth_times),
            key_bits=key_bits,
            solver=solver,
            parallelism=pool.usable_cpus(),
        ))
    return records


def format_table(records: Sequence[BenchRecord]) -> str:
    header = f"{'size':>6} {'setup_s':>10} {'auth_s':>10} {'key_bits':>9} " \
             f"{'solver':>12} {'par':>4}"
    lines = [header, "-" * len(header)]
    for r in records:
        lines.append(f"{r.set_size:>6} {r.setup_seconds:>10.3f} "
                     f"{r.auth_seconds:>10.3f} {r.key_bits:>9} "
                     f"{r.solver:>12} {r.parallelism:>4}")
    return "\n".join(lines)


def write_csv(records: Sequence[BenchRecord], path: Path | str) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow([r.set_size, f"{r.setup_seconds:.6f}",
                             f"{r.auth_seconds:.6f}", r.key_bits, r.solver,
                             r.parallelism])
