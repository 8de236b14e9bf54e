"""Degree vectors and sparse distributions over them.

A generalized degree is a length-N tuple of nonnegative integers counting a
vertex's incident edges of each type. Its weight is the plain total degree.
Distributions are sparse maps from degree tuples to probability mass.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

Degree = tuple  # tuple[int, ...]

EMPIRICAL = "EMPIRICAL"
THEORETICAL_PERTURBED = "THEORETICAL_PERTURBED"
THEORETICAL_UNPERTURBED = "THEORETICAL_UNPERTURBED"


def sort_key(d: Degree) -> tuple:
    """Canonical ordering: by weight, then lexicographic."""
    return (sum(d), d)


def compositions_of_weight(total: int, parts: int) -> Iterator[Degree]:
    """All nonnegative integer vectors of given length summing to `total`.

    Yielded in lexicographic order, so together with an outer loop over
    increasing `total` this enumerates the degree lattice in `sort_key`
    order.
    """
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions_of_weight(total - head, parts - 1):
            yield (head,) + rest


def lattice_size(n_types: int, max_weight: int) -> int:
    """Number of degree vectors with weight at most `max_weight`."""
    return math.comb(max_weight + n_types, n_types)


@dataclass
class DegreeDistribution:
    """Sparse nonnegative mass function on degree vectors.

    `provenance` records where the masses came from.
    """

    masses: dict
    provenance: str = EMPIRICAL

    def mass(self, d: Iterable[int]) -> float:
        return self.masses.get(tuple(d), 0.0)

    def total(self) -> float:
        return sum(self.masses.values())

    def items_sorted(self) -> list:
        return sorted(self.masses.items(), key=lambda item: sort_key(item[0]))

    def support(self) -> set:
        return set(self.masses)
