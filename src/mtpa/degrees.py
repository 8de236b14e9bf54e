"""Degree vectors and sparse distributions over them.

A generalized degree is a length-N tuple of nonnegative integers counting a
vertex's incident edges of each type. Its weight is the plain total degree.
A distribution holds its degree vectors as rows in `sort_key` order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

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


def degree_dtype(max_degree: int):
    """The smallest signed integer type that holds 0 to `max_degree`."""
    return np.min_scalar_type(-int(max_degree) - 1)


def row_weights(degrees: np.ndarray, dtype=np.int64) -> np.ndarray:
    """The weight of each row of a (K, N) degree array, as `dtype`, added
    a column at a time: on a few columns this is several times faster than
    `sum(axis=1)`, which reduces along each short row."""
    weights = degrees[:, 0].astype(dtype)
    for column in degrees.T[1:]:
        weights += column
    return weights


@dataclass(eq=False)
class DegreeDistribution:
    """Sparse nonnegative mass function on degree vectors, as columns.

    Row k of the (K, N) integer array `degrees` is a degree vector and
    `values[k]` its mass; the rows are distinct and in `sort_key` order.
    `provenance` records where the masses came from.
    """

    degrees: np.ndarray
    values: np.ndarray
    provenance: str = EMPIRICAL

    def __len__(self) -> int:
        return len(self.values)

    @cached_property
    def masses(self) -> dict:
        """Degree tuple -> mass, built on first use, for the bench's trace."""
        return dict(zip(map(tuple, self.degrees.tolist()),
                        self.values.tolist()))

    def total(self) -> float:
        # one float at a time: a list of them would outweigh the columns
        return sum(map(float, self.values))

    def truncated(self, max_weight: int) -> "DegreeDistribution":
        """The rows of weight at most `max_weight`, a prefix of the rows."""
        end = int(np.searchsorted(row_weights(self.degrees), max_weight,
                                  side="right"))
        return DegreeDistribution(self.degrees[:end], self.values[:end],
                                  self.provenance)


def aligned(dists, max_weight: int) -> tuple:
    """The (K, N) degree vectors of weight at most `max_weight` that any of
    `dists` holds, in `sort_key` order, and the (len(dists), K) masses on
    them, 0.0 where one lacks a vector; matched by vector, not position."""
    keep = [row_weights(dist.degrees) <= max_weight for dist in dists]
    rows = np.concatenate([d.degrees[k] for d, k in zip(dists, keep)])
    # a leading weight column makes the lexicographic row order sort_key's
    keys, where = np.unique(np.column_stack((row_weights(rows), rows)),
                            axis=0, return_inverse=True)
    owner = np.repeat(np.arange(len(dists)), list(map(np.count_nonzero, keep)))
    table = np.zeros((len(dists), len(keys)))
    table[owner, where] = np.concatenate([d.values[k]
                                          for d, k in zip(dists, keep)])
    return keys[:, 1:], table
