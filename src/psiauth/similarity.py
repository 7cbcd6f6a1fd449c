"""Integer similarity functions with explicit finite support.

A similarity function maps value pairs to nonnegative integer weights bounded
by a public maximum.  It is represented extensionally: for each sample value
``y`` the table lists every ``(z, weight)`` with a positive weight; pairs
absent from the table weigh zero.  Keeping the support explicit makes the
weighted protocol computable without enumerating the feature domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

__all__ = ["SimilarityFunction"]


@dataclass(frozen=True)
class SimilarityFunction:
    table: Mapping[int, tuple[tuple[int, int], ...]]
    max_weight: int

    def __post_init__(self):
        if self.max_weight < 1:
            raise ValueError("maximum weight must be positive")
        for y, pairs in self.table.items():
            seen = set()
            for z, weight in pairs:
                if z in seen:
                    raise ValueError(f"duplicate support value {z} for {y}")
                seen.add(z)
                if not 1 <= weight <= self.max_weight:
                    raise ValueError(
                        f"weight {weight} for ({z}, {y}) outside [1, {self.max_weight}]")

    def weight(self, z: int, y: int) -> int:
        """The similarity ``l(z, y)``; zero for pairs outside the support."""
        for candidate, weight in self.table.get(y, ()):
            if candidate == z:
                return weight
        return 0

    def support_for(self, y: int) -> tuple[tuple[int, int], ...]:
        if y not in self.table:
            raise ValueError(f"similarity support does not cover {y}")
        return self.table[y]

    @classmethod
    def equality(cls, values: Iterable[int]) -> "SimilarityFunction":
        """The kernel ``l(z, z) = 1`` and zero elsewhere, over ``values``."""
        return cls({v: ((v, 1),) for v in values}, max_weight=1)

    @classmethod
    def from_entries(cls, entries: Iterable[tuple[int, int, int]],
                     max_weight: int | None = None) -> "SimilarityFunction":
        """Build from ``(y, z, weight)`` triples, one per supported pair."""
        grouped: dict[int, list[tuple[int, int]]] = {}
        top = 0
        for y, z, weight in entries:
            grouped.setdefault(y, []).append((z, weight))
            top = max(top, weight)
        if max_weight is None:
            max_weight = top
        table = {y: tuple(pairs) for y, pairs in grouped.items()}
        return cls(table, max_weight=max_weight)
