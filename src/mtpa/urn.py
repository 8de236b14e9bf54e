"""Generalized urn with multiple draws per step and random replacements.

Per step, m colours are drawn with replacement, each with probability equal
to its proportion in the start-of-step composition. Each draw i picks up an
independently sampled replacement matrix R and the urn gains R's column for
the drawn colour. Column j of R is the flipped edge type: the unit vector
e_k with probability F[j, k], columns independent. So every column weighs
one ball, and the generating (expected) matrix is F.T. The sampler of R is
F's row CDFs (`bernoulli_column_sampler`), and a step draws only the column
it applies.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from . import matrices
from .errors import BrokenRun, ValidationError

# a run_urn chunk makes at most CHUNK_DRAWS draws, and at most as many
# compares of a draw with a colour boundary unless that leaves it fewer
# than CHUNK_STEPS steps
CHUNK_STEPS = 1024
CHUNK_DRAWS = 8192
# most draws a chunk steps in order, one at a time, without numpy passes
IN_ORDER_DRAWS = 128


def bernoulli_column_sampler(type_flip_matrix) -> np.ndarray:
    """The sampler of perturbed type assignment: `matrices.row_cdfs` of F,
    whose row j holds the cumulative law of replacement column j's row
    index. NotStochastic unless F is row-stochastic.

    Steps draw just the column they apply, with a single uniform, which
    leaves the joint law of (draw, applied column) unchanged because columns
    are independent of the draws and of each other.
    """
    return matrices.row_cdfs(
        matrices.as_row_stochastic(type_flip_matrix, what="type-flip matrix"))


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


def new_urn(initial_composition, m: int, sampler: np.ndarray) -> UrnState:
    """Validate the initial ball counts against the sampler's colours.

    A count must be a whole number; 2.0 is taken as 2, and 1.5 is an error.
    """
    given = list(initial_composition)
    if len(given) != len(sampler):
        raise ValidationError(
            f"composition has {len(given)} colours, sampler expects {len(sampler)}")
    try:
        comp = [int(c) for c in given]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"ball counts must be whole numbers: {exc}") from exc
    if comp != given:
        raise ValidationError(f"ball counts must be whole numbers, got {given}")
    if any(c < 0 for c in comp):
        raise ValidationError(f"negative ball count in {comp}")
    if sum(comp) <= 0:
        raise ValidationError("initial composition has no balls")
    if m < 1:
        raise ValidationError("m must be at least 1")
    return UrnState(composition=comp, m=m, initial_total=sum(comp))


def _draw(x: float, cum, u: float, cdfs) -> int:
    """One draw: the colour whose cumulative count in `cum` (a list) first
    exceeds x = u_pick * total, flipped by its row CDF in `cdfs` (a list of
    lists) with the uniform `u`. Returns the colour that gains the ball."""
    return bisect_right(cdfs[bisect_right(cum, x)], u)


def urn_step(urn: UrnState, sampler: np.ndarray,
             rng: np.random.Generator) -> UrnState:
    """One step: m colour draws from the frozen composition, then m columns.

    Consumes 2*m uniforms, the m picks first; this is the reference that
    `run_urn` is tested against.
    """
    m = urn.m
    total = urn.total
    us = rng.random(2 * m).tolist()
    cdfs = sampler.tolist()
    cum = list(accumulate(urn.composition))
    gained = [_draw(us[i] * total, cum, us[m + i], cdfs) for i in range(m)]
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


def _in_order(comp: np.ndarray, total: int, m: int, us: np.ndarray,
              cdf: np.ndarray) -> np.ndarray:
    """Balls each colour gains over len(us) steps from composition `comp`,
    stepped one at a time with `_draw` as `urn_step` steps them."""
    x = us[:, :m] * (total + np.arange(0, m * len(us), m))[:, None]
    cdfs, start = cdf.tolist(), comp.tolist()
    counts = list(start)
    for picks, flips in zip(x.tolist(), us[:, m:].tolist()):
        cum = list(accumulate(counts))
        for k in [_draw(a, cum, u, cdfs) for a, u in zip(picks, flips)]:
            counts[k] += 1
    return np.subtract(counts, start)


def _colour_counts(draws: int, above) -> np.ndarray:
    """How many of `draws` draws gained each colour, given how many gained a
    colour above c for each c."""
    bounds = [draws, *above, 0]
    return np.array([a - b for a, b in zip(bounds, bounds[1:])])


def _chunk_gains(comp: np.ndarray, total: int, m: int, us: np.ndarray,
                 cdf: np.ndarray) -> np.ndarray:
    """Balls each colour gains over len(us) steps from composition `comp`,
    flipped by the row CDFs `cdf`.

    Row j of `us` holds step j's 2*m uniforms; a draw's pick product is
    x = u * total_j, with step j's total known in advance, total + m*j.
    A chunk of at most `IN_ORDER_DRAWS` draws is stepped in order with
    `_draw`: numpy's per-call cost would exceed its few draws. Otherwise the
    draws are held as (m, K) rows. Each colour boundary (a cumulative count)
    lies between its chunk-start value and that plus m*j, and a draw whose
    x passes the same boundaries under both bounds is settled: its colour,
    and so its flip, is known without stepping. The draws in doubt then go
    through a fixed point: from guessed gains, the boundaries each doubtful
    draw sees, its pick and its flip, repeated until the gains repeat. A
    draw depends only on the steps before it, so each round is exact at
    least one step further: the rounds end, within K + 1 of them, and a
    repeat is the exact answer. Every product and compare is the one
    `urn_step` makes, so the gains are the same bit for bit.

    `run_urn`'s chunk rule keeps both passes short: K at most
    total // (2m) keeps the bounds' spread, m*K, within half the total, so
    a small share of draws is in doubt, and its other terms bound the
    arrays of draws against boundaries and CDF entries. Under it no chunk
    of `tools/time_urn.py`'s shapes or the `urn_compare` workload's took
    more than 5 rounds on numpy's stream (`BENCH_urn_rule.json`).
    """
    steps, n = len(us), len(comp)
    if m * steps <= IN_ORDER_DRAWS:
        return _in_order(comp, total, m, us, cdf)
    grown = np.arange(0, m * steps, m)
    # row i holds uniform i of every step (the m picks, then the m flips),
    # step j in column j
    uniforms = us.T.copy()
    x = uniforms[:m] * (total + grown)
    flip_u = uniforms[m:]
    # boundary c at the low bound is edges[c + 1]; edges[0] is passed by all
    edges = np.array([-np.inf, *accumulate(comp[:-1].tolist())])
    pick = _passed(x, edges[1:])
    # per pick, the low bound of the last boundary it passes, then its row
    # CDF less the last entry
    at_pick = np.take(np.vstack((edges, cdf[:, :-1].T)), pick, axis=1)
    # settled when x passes the high bound of the last boundary it passes
    # at the low bound, and so, the boundaries being sorted, of all before it
    doubt = x < at_pick[0] + grown
    # above[c, j]: the draws of the steps before step j that gain a colour
    # above c, each draw flipped as its low-bound pick says
    above = np.zeros((n - 1, steps + 1), dtype=np.intp)
    np.add.accumulate((flip_u >= at_pick[1:]).sum(axis=1), axis=1,
                      out=above[:, 1:])
    gains = _colour_counts(m * steps, above[:, -1].tolist())
    doubtful = np.flatnonzero(doubt)
    if not len(doubtful):
        return gains

    # the doubtful draws in step order, and the index of the first doubtful
    # draw of each one's step: how many doubtful draws come before its step
    order = doubtful % steps * m + doubtful // steps
    order.sort()
    rows, draws = order // m, order % m
    first = np.searchsorted(rows, rows)
    flat = draws * steps + rows
    # the colour each doubtful draw gains under each pick, pick-major
    doubts = len(rows)
    at = np.arange(doubts)
    by_pick = (flip_u.take(flat) >= cdf[:, :-1, None]).sum(axis=1).ravel()
    guess = start = by_pick.take(pick.take(flat) * doubts + at)
    # x passes boundary c when its integer part reaches it. At a draw's
    # step the boundary is its low bound plus the gains of colours up to c
    # in the steps before: the settled draws' (those draws, less the
    # doubtful ones, less those that gained above c) and the doubtful
    # draws'. `reach[c]` is the integer part less all but the doubtful
    # draws' share, so the draw passes boundary c when the doubtful draws
    # of the steps before that gained a colour up to c are at most that.
    colours = np.arange(n - 1)[:, None]
    below = np.zeros((n - 1, doubts + 1), dtype=np.intp)
    np.cumsum(guess > colours, axis=1, out=below[:, 1:])
    reach = (x.take(flat).astype(np.intp) - edges[1:, None].astype(np.intp)
             - (m * rows - first) + above.take(rows, axis=1)
             - below.take(first, axis=1))
    while True:
        np.cumsum(guess <= colours, axis=1, out=below[:, 1:])
        passed = (reach >= below.take(first, axis=1)).sum(axis=0)
        new = by_pick.take(passed * doubts + at)
        if np.array_equal(new, guess):
            return (gains + np.bincount(guess, minlength=n)
                    - np.bincount(start, minlength=n))
        guess = new


def _snapshot(urn: UrnState) -> UrnSnapshot:
    return UrnSnapshot(urn.step_index, tuple(urn.composition), urn.fractions())


def run_urn(urn: UrnState, sampler: np.ndarray, n_steps: int,
            snapshot_every: int, rng: np.random.Generator) -> list:
    """Run the urn, recording (step, composition, fractions) snapshots.

    Same trajectory and uniform stream as repeated urn_step calls. Steps go
    in chunks cut only at the snapshots asked for, of

        K = min(total // (2m), CHUNK_DRAWS // m,
                max(CHUNK_STEPS, CHUNK_DRAWS // ((N - 1)*m)))

    steps (at least 1), with N - 1 read as 1 when N = 1. Each term:
    - total // (2m): the m*K balls a chunk adds stay within half the total
      its draws are settled against, so few draws are left in doubt (see
      `_chunk_gains`). While the urn is small this term alone sets K.
    - CHUNK_DRAWS // m: a chunk's arrays hold its m*K draws, and past
      8192 of them a longer chunk steps slower, not faster: at m = 21 and
      64, 1024 steps ran 1.4 and 1.7 times as long as 8192 draws.
    - CHUNK_DRAWS // ((N - 1)*m): each draw is also compared with N - 1
      colour boundaries and N - 1 CDF entries, in arrays of (N - 1)*m*K
      entries, so wider shapes step faster in shorter chunks: (3, 4) in
      1024 steps rather than 2048, while (2, 1) takes 8192.
    - CHUNK_STEPS: a chunk of a large urn makes about 30 numpy calls
      whatever its size, so within the draw cap the compare budget does
      not shorten a chunk below 1024 steps, as at (3, 8).
    Each chunk draws its 2m*K uniforms with one call and ends with the
    checks of `check_urn_invariants`; a violation raises BrokenRun.
    """
    if n_steps < 0:
        raise ValidationError("n_steps must be nonnegative")
    if snapshot_every < 1:
        raise ValidationError("snapshot_every must be at least 1")
    snapshots = [_snapshot(urn)]
    m = urn.m
    comp = np.array(urn.composition, dtype=np.int64)
    longest = min(CHUNK_DRAWS // m, max(
        CHUNK_STEPS, CHUNK_DRAWS // (max(len(comp) - 1, 1) * m)))
    step = 0
    while step < n_steps:
        boundary = min(n_steps, (step // snapshot_every + 1) * snapshot_every)
        total = urn.total
        chunk = max(1, min(total // (2 * m), longest, boundary - step))
        us = rng.random(chunk * 2 * m).reshape(chunk, 2 * m)
        comp += _chunk_gains(comp, total, m, us, sampler)
        urn.composition[:] = comp.tolist()
        urn.step_index += chunk
        step += chunk
        violations = check_urn_invariants(urn)
        if violations:
            raise BrokenRun("; ".join(violations))
        if step == boundary:
            snapshots.append(_snapshot(urn))
    return snapshots


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
