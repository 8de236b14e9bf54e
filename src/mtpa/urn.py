"""Generalized urn with multiple draws per step and random replacements.

Per step, m colours are drawn with replacement, each with probability equal
to its proportion in the start-of-step composition. Each draw i picks up an
independently sampled replacement matrix R and the urn gains R's column for
the drawn colour. Realized columns must be nonnegative with constant weight
gamma1; the expected (generating) matrix has constant column weight gamma2.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import matrices
from .errors import BadMatrix, EmptyUrn, NegativeCount, ValidationError


@dataclass
class ReplacementSampler:
    """Source of random nonnegative replacement matrices.

    `sample_fn(step, rng)` realizes one matrix; `generating_fn(step)` is its
    conditional expectation. When every column is a unit vector whose row
    index is drawn independently per column, `indicator_row_cdfs[j]` holds
    the cumulative law of column j's row index; steps then draw just the
    column they apply, with a single uniform, which leaves the joint law of
    (draw, applied column) unchanged because columns are independent of the
    draws and of each other.
    """

    n_colours: int
    gamma1: float
    gamma2: float
    sample_fn: Callable
    generating_fn: Callable
    integer_valued: bool = True
    indicator_row_cdfs: tuple | None = None

    def sample(self, step: int, rng: np.random.Generator) -> np.ndarray:
        return self.sample_fn(step, rng)

    def generating_matrix(self, step: int) -> np.ndarray:
        return self.generating_fn(step)


def bernoulli_column_sampler(type_flip_matrix) -> ReplacementSampler:
    """Replacement sampler realizing perturbed type assignment as an urn.

    Column j is the unit vector e_k with probability row_j[k] of the given
    row-stochastic matrix, columns independent; every column weighs exactly
    1, and the generating matrix is the transpose of the input.
    """
    try:
        flip = matrices.as_row_stochastic(type_flip_matrix, what="type-flip matrix")
    except Exception as exc:
        raise BadMatrix(str(exc)) from exc
    n = flip.shape[0]
    cdfs = matrices.row_cdfs(flip)
    cdf_table = np.array(cdfs)
    generating = flip.T.copy()

    def sample_fn(step: int, rng: np.random.Generator) -> np.ndarray:
        # column j's row index: the first k with u_j < cdfs[j][k]
        rows = np.argmax(rng.random(n)[:, None] < cdf_table, axis=1)
        out = np.zeros((n, n), dtype=np.int64)
        out[rows, np.arange(n)] = 1
        return out

    return ReplacementSampler(
        n_colours=n,
        gamma1=1.0,
        gamma2=1.0,
        sample_fn=sample_fn,
        generating_fn=lambda step: generating,
        integer_valued=True,
        indicator_row_cdfs=cdfs,
    )


@dataclass
class UrnState:
    """Composition vector plus the step bookkeeping needed for conservation."""

    composition: list
    m: int
    gamma1: float
    integer_valued: bool
    step_index: int = 0
    initial_total: float = field(default=0.0)

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


def new_urn(initial_composition, m: int, sampler: ReplacementSampler) -> UrnState:
    """Validate the initial composition and bind it to a sampler's arithmetic."""
    comp = list(initial_composition)
    if len(comp) != sampler.n_colours:
        raise ValidationError(
            f"composition has {len(comp)} colours, sampler expects {sampler.n_colours}")
    if any(c < 0 for c in comp):
        raise NegativeCount(f"negative ball count in {comp}")
    if sum(comp) <= 0:
        raise EmptyUrn("initial composition has no balls")
    if m < 1:
        raise ValidationError("m must be at least 1")
    if sampler.integer_valued:
        comp = [int(c) for c in comp]
    else:
        comp = [float(c) for c in comp]
    return UrnState(composition=comp, m=m, gamma1=sampler.gamma1,
                    integer_valued=sampler.integer_valued,
                    initial_total=sum(comp))


def _advance(comp: list, total, m: int, us: list, cdfs, picks: list):
    """Advance `comp` over a buffer of uniforms; return the new ball total.

    Per step, m colours are picked from the frozen composition with the
    next m uniforms and stored in `picks`. With indicator row CDFs, the
    following m uniforms then draw the applied columns, so each step takes
    2*m uniforms and the buffer may hold many steps. Without them only one
    step's picks are made and `comp` is left for the caller to update.
    """
    stride = m if cdfs is None else 2 * m
    for pos in range(0, len(us), stride):
        for i in range(m):
            x = us[pos + i] * total
            j = 0
            acc = comp[0]
            while x >= acc:
                j += 1
                acc += comp[j]
            picks[i] = j
        if cdfs is None:
            break
        for i in range(m):
            row = cdfs[picks[i]]
            u = us[pos + m + i]
            k = 0
            while u >= row[k]:
                k += 1
            comp[k] += 1
        total += m
    return total


def urn_step(urn: UrnState, sampler: ReplacementSampler,
             rng: np.random.Generator) -> UrnState:
    """One step: m colour draws from the frozen composition, then additions.

    Indicator samplers consume 2*m uniforms (m draws, m columns); general
    samplers consume m uniforms plus whatever sample_fn uses.
    """
    comp = urn.composition
    m = urn.m
    step = urn.step_index + 1
    cdfs = sampler.indicator_row_cdfs
    picks = [0] * m
    us = rng.random(m if cdfs is None else 2 * m).tolist()
    _advance(comp, urn.total, m, us, cdfs, picks)
    if cdfs is None:
        cast = int if sampler.integer_valued else float
        for j in picks:
            column = sampler.sample(step, rng)[:, j]
            for k in range(len(comp)):
                comp[k] += cast(column[k])
    urn.step_index = step
    return urn


def _snapshot(urn: UrnState) -> UrnSnapshot:
    return UrnSnapshot(urn.step_index, tuple(urn.composition), urn.fractions())


def run_urn(urn: UrnState, sampler: ReplacementSampler, n_steps: int,
            snapshot_every: int, rng: np.random.Generator) -> list:
    """Run the urn, recording (step, composition, fractions) snapshots.

    Same trajectory and uniform stream as repeated urn_step calls; indicator
    samplers draw their uniforms in chunks of at most 8192, cut at snapshot
    boundaries.
    """
    if n_steps < 0:
        raise ValidationError("n_steps must be nonnegative")
    if snapshot_every < 1:
        raise ValidationError("snapshot_every must be at least 1")
    snapshots = [_snapshot(urn)]
    cdfs = sampler.indicator_row_cdfs
    if cdfs is None:
        for step in range(1, n_steps + 1):
            urn_step(urn, sampler, rng)
            if step % snapshot_every == 0 or step == n_steps:
                snapshots.append(_snapshot(urn))
        return snapshots

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
        total = _advance(urn.composition, total, m, us, cdfs, picks)
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


def assumption_audit(sampler: ReplacementSampler, n_samples: int,
                     rng: np.random.Generator, step: int = 1) -> AuditReport:
    """Draw matrices and report contract violations instead of raising.

    Column-weight equality is exact for integer-valued samplers and within
    1e-9 otherwise.
    """
    if n_samples < 1:
        raise ValidationError("n_samples must be at least 1")
    n = sampler.n_colours
    negative = 0
    bad_weight = 0
    acc = np.zeros((n, n), dtype=float)
    tol = 0.0 if sampler.integer_valued else 1e-9
    for _ in range(n_samples):
        matrix = np.asarray(sampler.sample(step, rng), dtype=float)
        if np.any(matrix < 0):
            negative += 1
        weights = matrix.sum(axis=0)
        if np.max(np.abs(weights - sampler.gamma1)) > tol:
            bad_weight += 1
        acc += matrix
    empirical = acc / n_samples
    declared = np.asarray(sampler.generating_matrix(step), dtype=float)
    deviation = float(np.max(np.abs(empirical - declared)))
    return AuditReport(n_samples, negative, bad_weight, empirical, declared,
                       deviation)


def check_urn_invariants(urn: UrnState) -> list:
    """Exact ball-conservation checks; returns violations (empty = ok)."""
    violations = []
    expected = urn.initial_total + urn.gamma1 * urn.m * urn.step_index
    total = urn.total
    if abs(total - expected) > (0 if urn.integer_valued else 1e-9):
        violations.append(f"ball conservation: {total} != {expected}")
    if any(c < 0 for c in urn.composition):
        violations.append("negative ball count")
    return violations
