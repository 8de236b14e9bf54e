"""Generalized urn with multiple draws per step and random replacements.

Per step, m colours are drawn with replacement, each with probability equal
to its proportion in the start-of-step composition. Each draw i picks up an
independently sampled replacement matrix R and the urn gains R's column for
the drawn colour. Column j of R is the flipped edge type: the unit vector
e_k with probability F[j, k], columns independent. So every column weighs
one ball, and the generating (expected) matrix is F.T.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from . import matrices
from .errors import (BadMatrix, BrokenUrn, EmptyUrn, NegativeCount,
                     NotStochastic, ValidationError)

# most steps one run_urn chunk advances
MAX_CHUNK_STEPS = 2048


@dataclass
class ColumnSampler:
    """Replacement matrices whose column j is e_k with probability F[j, k].

    `row_cdfs[j]` (`matrices.row_cdfs` of F) holds the cumulative law of
    column j's row index. Steps draw just the column they apply, with a
    single uniform, which leaves the joint law of (draw, applied column)
    unchanged because columns are independent of the draws and of each
    other. `generating` is F.T.
    """

    n_colours: int
    row_cdfs: np.ndarray
    generating: np.ndarray

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """One whole replacement matrix, n_colours uniforms."""
        columns = np.arange(self.n_colours)
        rows = _flips(rng.random(self.n_colours), columns, self.row_cdfs)
        out = np.zeros((self.n_colours, self.n_colours), dtype=np.int64)
        out[rows, columns] = 1
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


def _draw(x: float, comp, u: float, cdfs) -> int:
    """One draw: the colour whose cumulative count first exceeds
    x = u_pick * total in `comp`, flipped by its row CDF in `cdfs` (a list
    of lists) with the uniform `u`. Returns the colour that gains the ball."""
    return bisect_right(cdfs[bisect_right(list(accumulate(comp)), x)], u)


def urn_step(urn: UrnState, sampler: ColumnSampler,
             rng: np.random.Generator) -> UrnState:
    """One step: m colour draws from the frozen composition, then m columns.

    Consumes 2*m uniforms, the m picks first; this is the reference that
    `run_urn` is tested against.
    """
    m = urn.m
    total = urn.total
    us = rng.random(2 * m).tolist()
    cdfs = sampler.row_cdfs.tolist()
    gained = [_draw(us[i] * total, urn.composition, us[m + i], cdfs)
              for i in range(m)]
    for k in gained:
        urn.composition[k] += 1
    urn.step_index += 1
    return urn


def _passed(values: np.ndarray, bounds) -> np.ndarray:
    """How many of `bounds` each entry of `values` is at or above; each
    bound broadcasts against `values`."""
    count = np.zeros(values.shape, dtype=np.intp)
    for bound in bounds:
        count += values >= bound
    return count


def _flips(u: np.ndarray, pick: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """The colour each draw gains: how many entries of its picked colour's
    row CDF (all but the last, which is 1.0) its uniform is at or above."""
    return _passed(u, [column[pick] for column in cdf.T[:-1]])


def _gains_before(gained: np.ndarray, n: int) -> np.ndarray:
    """(K+1, n+1): row j counts the draws of the steps before step j that
    gained each colour, colour n standing for a draw still in doubt."""
    steps = len(gained)
    keys = (np.arange(steps)[:, None] * (n + 1) + gained).ravel()
    counts = np.bincount(keys, minlength=steps * (n + 1)).reshape(steps, n + 1)
    before = np.zeros((steps + 1, n + 1), dtype=np.intp)
    np.cumsum(counts, axis=0, out=before[1:])
    return before


def _chunk_gains(comp: np.ndarray, total: int, m: int, us: np.ndarray,
                 sampler: ColumnSampler) -> np.ndarray:
    """Balls each colour gains over len(us) steps from composition `comp`.

    Row j of `us` holds step j's 2*m uniforms. Step j's total is known in
    advance, total + m*j, and each colour boundary (a cumulative count) lies
    between its chunk-start value and that plus m*j. A draw whose
    x = u * total_j passes the same boundaries under both bounds is settled:
    its colour, and so its flip, is known without stepping. One round then
    tightens the bounds to the settled draws' exact gains plus one ball per
    draw still in doubt before step j; what stays in doubt is stepped in
    order with `_draw`. Every product and compare is the one `urn_step`
    makes, so the gains are the same bit for bit.
    """
    steps, n = len(us), len(comp)
    cdf = sampler.row_cdfs
    grown = m * np.arange(steps, dtype=float)
    x = us[:, :m] * (total + grown)[:, None]
    flip_u = us[:, m:]
    edges = np.cumsum(comp)[:-1]
    pick = _passed(x, edges)
    # settled when x passes the high bound of the last boundary it passes
    # at the low bound, and so, the boundaries being sorted, of all before it
    last_passed = np.concatenate(([-np.inf], edges))[pick]
    settled = x >= last_passed + grown[:, None]
    gained = np.where(settled, _flips(flip_u, pick, cdf), n)

    rows, draws = np.nonzero(~settled)
    if len(rows):
        before = _gains_before(gained, n)[rows]
        low = (edges + np.cumsum(before[:, :n - 1], axis=1)).T
        xs = x[rows, draws]
        pick = _passed(xs, low)
        known = pick == _passed(xs, low + before[:, n])
        rows_k, draws_k = rows[known], draws[known]
        gained[rows_k, draws_k] = _flips(flip_u[rows_k, draws_k], pick[known], cdf)
        rows, draws = rows[~known], draws[~known]

    before = _gains_before(gained, n)
    gains = before[-1, :n]
    if len(rows):
        cdfs, resolved = cdf.tolist(), [0] * n
        current, pending = -1, []
        for j, base, x_j, u in zip(rows.tolist(), (comp + before[rows, :n]).tolist(),
                                   x[rows, draws].tolist(),
                                   flip_u[rows, draws].tolist()):
            if j != current:
                # the draws of one step share its start-of-step composition
                for k in pending:
                    resolved[k] += 1
                current, pending = j, []
                step_comp = [a + b for a, b in zip(base, resolved)]
            pending.append(_draw(x_j, step_comp, u, cdfs))
        for k in pending:
            resolved[k] += 1
        gains = gains + resolved
    return gains


def _snapshot(urn: UrnState) -> UrnSnapshot:
    return UrnSnapshot(urn.step_index, tuple(urn.composition), urn.fractions())


def run_urn(urn: UrnState, sampler: ColumnSampler, n_steps: int,
            snapshot_every: int, rng: np.random.Generator) -> list:
    """Run the urn, recording (step, composition, fractions) snapshots.

    Same trajectory and uniform stream as repeated urn_step calls. Steps go
    in chunks of K, cut at snapshot boundaries, with K at most
    `MAX_CHUNK_STEPS` and at most total // (2m): the m*K balls a chunk adds
    then stay within half the total its draws are settled against (see
    `_chunk_gains`). Each chunk draws its 2m*K uniforms with one call and
    ends with the checks of `check_urn_invariants`; a violation raises
    BrokenUrn.
    """
    if n_steps < 0:
        raise ValidationError("n_steps must be nonnegative")
    if snapshot_every < 1:
        raise ValidationError("snapshot_every must be at least 1")
    snapshots = [_snapshot(urn)]
    m = urn.m
    comp = np.array(urn.composition, dtype=np.int64)
    step = 0
    while step < n_steps:
        boundary = min(n_steps, (step // snapshot_every + 1) * snapshot_every)
        total = urn.total
        chunk = max(1, min(MAX_CHUNK_STEPS, total // (2 * m), boundary - step))
        us = rng.random(chunk * 2 * m).reshape(chunk, 2 * m)
        comp += _chunk_gains(comp, total, m, us, sampler)
        urn.composition[:] = comp.tolist()
        urn.step_index += chunk
        step += chunk
        violations = check_urn_invariants(urn)
        if violations:
            raise BrokenUrn("; ".join(violations))
        if step == boundary:
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
