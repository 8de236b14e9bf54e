"""Generalized urn with multiple draws per step and random replacements.

Per step, m colours are drawn with replacement, each with probability equal
to its proportion in the start-of-step composition. Each draw i picks up an
independently sampled replacement matrix R and the urn gains R's column for
the drawn colour. Column j of R is the flipped edge type: the unit vector
e_k with probability F[j, k], columns independent. So every column weighs
one ball, and the generating (expected) matrix is F.T.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import matrices
from .errors import (BadMatrix, EmptyUrn, NegativeCount, NotStochastic,
                     ValidationError)


@dataclass
class ColumnSampler:
    """Replacement matrices whose column j is e_k with probability F[j, k].

    `row_cdfs[j]` holds the cumulative law of column j's row index. Steps
    draw just the column they apply, with a single uniform, which leaves the
    joint law of (draw, applied column) unchanged because columns are
    independent of the draws and of each other. `generating` is F.T.
    """

    n_colours: int
    row_cdfs: tuple
    generating: np.ndarray

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """One whole replacement matrix, n_colours uniforms."""
        # column j's row index: the first k with u_j < row_cdfs[j][k]
        rows = np.argmax(rng.random(self.n_colours)[:, None]
                         < np.array(self.row_cdfs), axis=1)
        out = np.zeros((self.n_colours, self.n_colours), dtype=np.int64)
        out[rows, np.arange(self.n_colours)] = 1
        return out


def bernoulli_column_sampler(type_flip_matrix) -> ColumnSampler:
    """The sampler of perturbed type assignment; BadMatrix unless F is
    row-stochastic."""
    try:
        flip = matrices.as_row_stochastic(type_flip_matrix, what="type-flip matrix")
    except NotStochastic as exc:
        raise BadMatrix(str(exc)) from exc
    return ColumnSampler(flip.shape[0], matrices.row_cdfs(flip), flip.T.copy())


@dataclass
class UrnState:
    """Composition vector plus the step bookkeeping needed for conservation."""

    composition: list
    m: int
    step_index: int = 0
    initial_total: int = 0

    @property
    def total(self):
        return sum(self.composition)

    def fractions(self) -> tuple:
        total = float(self.total)
        return tuple(c / total for c in self.composition)


class UrnSnapshot(NamedTuple):
    n: int
    composition: tuple
    fractions: tuple


def new_urn(initial_composition, m: int, sampler: ColumnSampler) -> UrnState:
    """Validate the initial ball counts against the sampler's colours.

    A count must be a whole number; 2.0 is taken as 2, and 1.5 is an error.
    """
    given = list(initial_composition)
    if len(given) != sampler.n_colours:
        raise ValidationError(
            f"composition has {len(given)} colours, sampler expects {sampler.n_colours}")
    try:
        comp = [int(c) for c in given]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"ball counts must be whole numbers: {exc}") from exc
    if comp != given:
        raise ValidationError(f"ball counts must be whole numbers, got {given}")
    if any(c < 0 for c in comp):
        raise NegativeCount(f"negative ball count in {comp}")
    if sum(comp) <= 0:
        raise EmptyUrn("initial composition has no balls")
    if m < 1:
        raise ValidationError("m must be at least 1")
    return UrnState(composition=comp, m=m, initial_total=sum(comp))


def _advance(comp: list, total: int, m: int, us: list, cdfs, picks: list) -> int:
    """Advance `comp` over a buffer of uniforms; return the new ball total.

    Each step takes 2*m uniforms, so the buffer may hold many steps: the
    first m pick colours from the frozen composition into `picks`, the next
    m draw the picked colours' columns from their row CDFs `cdfs`.
    """
    for pos in range(0, len(us), 2 * m):
        for i in range(m):
            x = us[pos + i] * total
            j = 0
            acc = comp[0]
            while x >= acc:
                j += 1
                acc += comp[j]
            picks[i] = j
        for i in range(m):
            row = cdfs[picks[i]]
            u = us[pos + m + i]
            k = 0
            while u >= row[k]:
                k += 1
            comp[k] += 1
        total += m
    return total


def urn_step(urn: UrnState, sampler: ColumnSampler,
             rng: np.random.Generator) -> UrnState:
    """One step: m colour draws from the frozen composition, then m columns.

    Consumes 2*m uniforms; `run_urn` is tested against repeated calls.
    """
    m = urn.m
    _advance(urn.composition, urn.total, m, rng.random(2 * m).tolist(),
             sampler.row_cdfs, [0] * m)
    urn.step_index += 1
    return urn


def _snapshot(urn: UrnState) -> UrnSnapshot:
    return UrnSnapshot(urn.step_index, tuple(urn.composition), urn.fractions())


def run_urn(urn: UrnState, sampler: ColumnSampler, n_steps: int,
            snapshot_every: int, rng: np.random.Generator) -> list:
    """Run the urn, recording (step, composition, fractions) snapshots.

    Same trajectory and uniform stream as repeated urn_step calls; uniforms
    are drawn in chunks of at most 8192, cut at snapshot boundaries.
    """
    if n_steps < 0:
        raise ValidationError("n_steps must be nonnegative")
    if snapshot_every < 1:
        raise ValidationError("snapshot_every must be at least 1")
    snapshots = [_snapshot(urn)]
    m = urn.m
    per_step = 2 * m
    block_steps = max(1, 8192 // per_step)
    picks = [0] * m
    total = urn.total
    start = urn.step_index
    step = 0
    while step < n_steps:
        boundary = min(n_steps, (step // snapshot_every + 1) * snapshot_every)
        chunk = min(block_steps, boundary - step)
        us = rng.random(chunk * per_step).tolist()
        total = _advance(urn.composition, total, m, us, sampler.row_cdfs, picks)
        step += chunk
        if step == boundary:
            urn.step_index = start + step
            snapshots.append(_snapshot(urn))
    return snapshots


@dataclass
class AuditReport:
    """Summary of sampled replacement matrices against their contracts."""

    n_samples: int
    negative_entry_matrices: int
    column_weight_violations: int
    empirical_generating: np.ndarray
    declared_generating: np.ndarray
    max_generating_deviation: float

    @property
    def violation_free(self) -> bool:
        return (self.negative_entry_matrices == 0
                and self.column_weight_violations == 0)

    def lines(self) -> list:
        ok = "ok" if self.violation_free else "VIOLATIONS"
        return [
            f"samples drawn: {self.n_samples}",
            f"matrices with negative entries: {self.negative_entry_matrices}",
            f"matrices with non-constant column weight: {self.column_weight_violations}",
            f"max |empirical - declared| generating entry: "
            f"{self.max_generating_deviation:.6g}",
            f"audit: {ok}",
        ]


def assumption_audit(sampler: ColumnSampler, n_samples: int,
                     rng: np.random.Generator) -> AuditReport:
    """Draw matrices and report contract violations instead of raising.

    The contracts: no negative entry, and every column of a matrix weighs
    the same, exactly.
    """
    if n_samples < 1:
        raise ValidationError("n_samples must be at least 1")
    n = sampler.n_colours
    negative = 0
    bad_weight = 0
    acc = np.zeros((n, n), dtype=float)
    for _ in range(n_samples):
        matrix = np.asarray(sampler.sample(rng), dtype=float)
        if np.any(matrix < 0):
            negative += 1
        weights = matrix.sum(axis=0)
        if np.any(weights != weights[0]):
            bad_weight += 1
        acc += matrix
    empirical = acc / n_samples
    declared = np.asarray(sampler.generating, dtype=float)
    deviation = float(np.max(np.abs(empirical - declared)))
    return AuditReport(n_samples, negative, bad_weight, empirical, declared,
                       deviation)


def check_urn_invariants(urn: UrnState) -> list:
    """Exact ball-conservation checks; returns violations (empty = ok)."""
    violations = []
    expected = urn.initial_total + urn.m * urn.step_index
    total = urn.total
    if total != expected:
        violations.append(f"ball conservation: {total} != {expected}")
    if any(c < 0 for c in urn.composition):
        violations.append("negative ball count")
    return violations
