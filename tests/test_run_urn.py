"""Differential tests: the chunked stepper `run_urn` against `urn_step`.

`run_urn` must draw the same uniforms in the same order as a loop of
`urn_step` calls and leave the same urn bit for bit: the composition at
every snapshot, the step index, and the state of the generator afterwards.
"""
from __future__ import annotations

import numpy as np
import pytest

from mtpa import urn as urn_module
from mtpa.errors import BrokenRun
from mtpa.harness import replicate_stream
from mtpa.urn import (CHUNK_DRAWS, CHUNK_STEPS, bernoulli_column_sampler,
                      check_urn_invariants, new_urn, run_urn, urn_step)

SEEDS = range(3)


def flip_matrix(n: int) -> np.ndarray:
    """A positive, asymmetric row-stochastic matrix, fixed per size."""
    rows = np.random.default_rng(200 + n).dirichlet(np.ones(n), size=n)
    return 0.5 * rows + 0.5 * np.eye(n) if n > 1 else np.ones((1, 1))


def reference_run(urn, sampler, n_steps, snapshot_every, rng) -> list:
    """`run_urn` as a loop of `urn_step`: snapshots at every
    `snapshot_every` steps of the call and at its last step."""
    snaps = [(urn.step_index, tuple(urn.composition), urn.fractions())]
    for step in range(1, n_steps + 1):
        urn_step(urn, sampler, rng)
        if step % snapshot_every == 0 or step == n_steps:
            snaps.append((urn.step_index, tuple(urn.composition),
                          urn.fractions()))
    return snaps


def assert_matches_step_loop(flip, start, m, n_steps, snapshot_every, seed,
                             pre_steps=0, make_rng=None):
    """Run both from the same state; `pre_steps` urn_step calls first.
    Each side draws from its own `make_rng()`, by default the replicate
    stream of `seed`."""
    sampler = bernoulli_column_sampler(flip)
    fast, slow = new_urn(start, m, sampler), new_urn(start, m, sampler)
    make_rng = make_rng or (lambda: replicate_stream(90, seed))
    rng_fast, rng_slow = make_rng(), make_rng()
    for _ in range(pre_steps):
        urn_step(fast, sampler, rng_fast)
        urn_step(slow, sampler, rng_slow)
    snaps = run_urn(fast, sampler, n_steps, snapshot_every, rng_fast)
    expected = reference_run(slow, sampler, n_steps, snapshot_every, rng_slow)
    assert [tuple(s) for s in snaps] == expected
    assert all(type(c) is int for c in fast.composition)
    assert fast.composition == slow.composition
    assert fast.step_index == slow.step_index == pre_steps + n_steps
    assert check_urn_invariants(fast) == []
    assert rng_fast.random() == rng_slow.random()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("m", (1, 2, 4, 21))
@pytest.mark.parametrize("n", (1, 2, 3, 6))
def test_matches_step_loop_across_sizes(n, m, seed):
    assert_matches_step_loop(flip_matrix(n), [1] * n, m, 400, 100, seed)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("start", ([0, 5, 0], [0, 0, 1], [7, 0, 2]))
def test_zero_count_starting_colours(start, seed):
    assert_matches_step_loop(flip_matrix(3), start, 2, 500, 50, seed)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("m", (1, 4))
def test_flip_rows_with_zero_entries(m, seed):
    # zero entries make equal neighbouring CDF values, including a leading
    # 0.0 that every uniform is at or above
    flip = np.array([[0.5, 0.0, 0.5], [0.0, 1.0, 0.0], [0.0, 0.3, 0.7]])
    assert_matches_step_loop(flip, [2, 1, 3], m, 500, 125, seed)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", (2, 3))
def test_identity_flip(n, seed):
    assert_matches_step_loop(np.eye(n), [1] * n, 3, 500, 100, seed)


@pytest.mark.parametrize("every", (1, 7, 1000))
def test_snapshot_intervals(every):
    assert_matches_step_loop(flip_matrix(3), [1, 2, 3], 2, 300, every, 0)


def test_pre_stepped_urn():
    assert_matches_step_loop(flip_matrix(3), [1, 1, 1], 4, 300, 70, 1,
                             pre_steps=13)


def test_two_calls_in_a_row():
    sampler = bernoulli_column_sampler(flip_matrix(3))
    fast, slow = new_urn([1, 1, 1], 2, sampler), new_urn([1, 1, 1], 2, sampler)
    rng_fast, rng_slow = replicate_stream(91, 0), replicate_stream(91, 0)
    first = run_urn(fast, sampler, 250, 40, rng_fast)
    second = run_urn(fast, sampler, 333, 100, rng_fast)
    assert [tuple(s) for s in first] == reference_run(slow, sampler, 250, 40,
                                                      rng_slow)
    assert [tuple(s) for s in second] == reference_run(slow, sampler, 333, 100,
                                                       rng_slow)
    assert fast.step_index == 583
    assert rng_fast.random() == rng_slow.random()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n, m", ((2, 21), (3, 4), (6, 2)))
def test_tiny_starting_totals(n, m, seed, monkeypatch):
    # one ball against m draws per step: the first chunks are short, and
    # run_urn steps them with urn_step, whose draws are `_draw` calls
    calls = []
    draw = urn_module._draw

    def counted(*args):
        calls.append(1)
        return draw(*args)

    start = [1] + [0] * (n - 1)
    monkeypatch.setattr(urn_module, "_draw", counted)
    sampler = bernoulli_column_sampler(flip_matrix(n))
    run_urn(new_urn(start, m, sampler), sampler, 60, 60, replicate_stream(92, seed))
    assert len(calls) >= 5
    monkeypatch.setattr(urn_module, "_draw", draw)
    assert_matches_step_loop(flip_matrix(n), start, m, 300, 30, seed)


class DyadicStream:
    """Uniforms on the grid k/64, so that u * total often lands exactly on a
    colour boundary and u exactly on a CDF entry."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def random(self, size=None):
        return self.rng.integers(0, 64, size) / 64.0


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("m", (1, 3))
def test_ties_at_boundaries(m, seed):
    # a draw exactly on a boundary belongs to the colour above it, in the
    # pick and in the flip alike
    flip = np.array([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]])
    sampler = bernoulli_column_sampler(flip)
    fast, slow = new_urn([2, 1, 1], m, sampler), new_urn([2, 1, 1], m, sampler)
    rng_fast, rng_slow = DyadicStream(seed), DyadicStream(seed)
    snaps = run_urn(fast, sampler, 300, 50, rng_fast)
    assert [tuple(s) for s in snaps] == reference_run(slow, sampler, 300, 50,
                                                      rng_slow)
    assert rng_fast.random() == rng_slow.random()


def test_broken_conservation_raises():
    sampler = bernoulli_column_sampler(flip_matrix(2))
    urn = new_urn([1, 3], 2, sampler)
    urn.initial_total = 5
    with pytest.raises(BrokenRun, match="ball conservation"):
        run_urn(urn, sampler, 10, 10, replicate_stream(93, 0))


def test_negative_count_raises():
    # the total still matches, so only the sign check can catch it
    sampler = bernoulli_column_sampler(flip_matrix(2))
    urn = new_urn([1, 3], 2, sampler)
    urn.composition[:] = [-1, 5]
    with pytest.raises(BrokenRun, match="negative ball count"):
        run_urn(urn, sampler, 10, 10, replicate_stream(93, 0))


# --------------------------------------------------------------------------
# the two regimes of a chunk: stepped in order while the urn is small, and
# a fixed point over the doubtful draws, run until it repeats, once it is
# not

def dyadic_flip(n: int) -> np.ndarray:
    """A flip matrix in eighths, with zero entries in every row for n >= 3,
    so that dyadic uniforms land exactly on its row CDF entries."""
    if n == 2:
        return np.array([[1.0, 0.0], [0.375, 0.625]])
    if n == 3:
        return np.array([[0.5, 0.0, 0.5], [0.0, 1.0, 0.0], [0.25, 0.25, 0.5]])
    flip = np.zeros((n, n))
    for i in range(n):
        flip[i, i] = 0.5
        flip[i, (i + 1) % n] = 0.25
        flip[i, (i + 3) % n] = 0.25
    return flip


def spread(total: int, n: int) -> list:
    """`total` balls over n colours, as evenly as whole balls allow."""
    return [total // n + (i < total % n) for i in range(n)]


STREAMS = {"pcg64": lambda: replicate_stream(94, 0),
           "dyadic": lambda: DyadicStream(5)}


@pytest.mark.parametrize("stream", sorted(STREAMS))
@pytest.mark.parametrize("total", (10, 500, 5000, 50_000))
@pytest.mark.parametrize("n, m", ((2, 21), (3, 4), (6, 2)))
def test_each_regime_matches_step_loop(n, m, total, stream):
    # about 10 balls: the chunks are stepped in order; 500 and 5,000: many
    # draws are in doubt and go through the fixed point; 50,000: few are
    assert_matches_step_loop(dyadic_flip(n), spread(total, n), m, 1200, 1000,
                             0, make_rng=STREAMS[stream])


@pytest.mark.parametrize("stream", sorted(STREAMS))
@pytest.mark.parametrize("total", (10, 500, 5000))
@pytest.mark.parametrize("n, m", ((2, 21), (3, 4), (6, 2)))
def test_fixed_point_on_tiny_urns(n, m, total, stream, monkeypatch):
    # every chunk through the fixed point, however few its draws, so that
    # nearly every draw is in doubt and the rounds carry the whole chunk
    monkeypatch.setattr(urn_module, "IN_ORDER_DRAWS", 0)
    assert_matches_step_loop(dyadic_flip(n), spread(total, n), m, 400, 100,
                             0, make_rng=STREAMS[stream])


def test_each_step_goes_through_one_stepper(monkeypatch):
    # from one ball the first chunks are urn_step calls and the later ones
    # _chunk_gains calls; between them they make every step once
    stepped, settled = [], []
    step, gains = urn_module.urn_step, urn_module._chunk_gains

    def spied_step(urn, sampler, rng):
        stepped.append(1)
        return step(urn, sampler, rng)

    def spied_gains(comp, total, m, us, cdf):
        settled.append(len(us))
        return gains(comp, total, m, us, cdf)

    monkeypatch.setattr(urn_module, "urn_step", spied_step)
    monkeypatch.setattr(urn_module, "_chunk_gains", spied_gains)
    assert_matches_step_loop(flip_matrix(3), [1, 0, 0], 4, 3000, 3000, 0)
    assert stepped and settled
    assert len(stepped) + sum(settled) == 3000


def test_large_urns_step_without_the_scalar_draw(monkeypatch):
    # from 50,000 balls every chunk is settled by the bounds and the rounds
    calls = []
    draw = urn_module._draw
    monkeypatch.setattr(urn_module, "_draw",
                        lambda *args: calls.append(1) or draw(*args))
    sampler = bernoulli_column_sampler(flip_matrix(3))
    run_urn(new_urn(spread(50_000, 3), 4, sampler), sampler, 3000, 1000,
            replicate_stream(95, 0))
    assert calls == []


# --------------------------------------------------------------------------
# the chunk rule, K = min(total // (2m), CHUNK_DRAWS // m, max(CHUNK_STEPS,
# CHUNK_DRAWS // ((N - 1)*m))), cut at snapshots: one test per term, each
# also against the step loop

def spy_chunks(monkeypatch) -> list:
    """The steps of every chunk `run_urn` steps from now on, in order: how
    far the `check_urn_invariants` call that ends the chunk finds its urn's
    step index past the last such call on that urn (past 0 on a new urn)."""
    sizes, last = [], {}
    check = urn_module.check_urn_invariants

    def spied(urn):
        # the urn is kept beside its last index, so no later urn has its id
        sizes.append(urn.step_index - last.get(id(urn), (urn, 0))[1])
        last[id(urn)] = (urn, urn.step_index)
        return check(urn)

    monkeypatch.setattr(urn_module, "check_urn_invariants", spied)
    return sizes


def test_chunks_at_the_step_floor(monkeypatch):
    # (N - 1)*m = 16 would allow 512 steps; the floor keeps 1024, as many
    # as the draw cap allows at m = 8
    m = 8
    assert CHUNK_DRAWS // (2 * m) < CHUNK_STEPS <= CHUNK_DRAWS // m
    start = spread(60_000, 3)
    assert sum(start) // (2 * m) > CHUNK_STEPS
    sizes = spy_chunks(monkeypatch)
    assert_matches_step_loop(flip_matrix(3), start, m, 2 * CHUNK_STEPS + 5,
                             10 ** 6, 0)
    assert sizes == [CHUNK_STEPS, CHUNK_STEPS, 5]


def test_chunks_at_the_draw_cap(monkeypatch):
    # m = 21: the draw cap, 390 steps, is below the floor, and wins
    m = 21
    cap = CHUNK_DRAWS // m
    assert cap < CHUNK_STEPS
    start = spread(60_000, 3)
    assert sum(start) // (2 * m) > cap
    sizes = spy_chunks(monkeypatch)
    assert_matches_step_loop(flip_matrix(3), start, m, 2 * cap + 3, 10 ** 6, 0)
    assert sizes == [cap, cap, 3]


@pytest.mark.parametrize("n", (3, 4))
def test_chunks_at_the_compare_budget(n, monkeypatch):
    # (N - 1)*m = 4 and 6: 2048 and 1365 steps, between the floor and the
    # draw cap of 4096
    m = 2
    budget = CHUNK_DRAWS // ((n - 1) * m)
    assert CHUNK_STEPS < budget < CHUNK_DRAWS // m
    start = spread(20_000, n)
    assert sum(start) // (2 * m) > budget
    sizes = spy_chunks(monkeypatch)
    assert_matches_step_loop(flip_matrix(n), start, m, 2 * budget + 3,
                             10 ** 6, 0)
    assert sizes == [budget, budget, 3]


def test_chunks_at_half_the_total(monkeypatch):
    # from 3,000 balls at m = 4, total // (2m) is below the floor, so each
    # chunk is an eighth of the urn's total at its start
    m, steps = 4, 2000
    start = spread(3000, 3)
    sizes = spy_chunks(monkeypatch)
    assert_matches_step_loop(flip_matrix(3), start, m, steps, 10 ** 6, 0)
    expected, total, step = [], sum(start), 0
    while step < steps:
        expected.append(min(total // (2 * m), steps - step))
        total, step = total + m * expected[-1], step + expected[-1]
    assert sizes == expected
    assert max(sizes) < CHUNK_STEPS


def test_chunks_cut_at_snapshots(monkeypatch):
    # the rule gives 1024 steps; snapshots every 1500 cut each second chunk
    m = 4
    assert max(CHUNK_STEPS, CHUNK_DRAWS // (2 * m)) == 1024
    sizes = spy_chunks(monkeypatch)
    assert_matches_step_loop(flip_matrix(3), spread(60_000, 3), m, 3000, 1500,
                             0)
    assert sizes == [1024, 476, 1024, 476]
