"""Urn tests: construction, the sampler, one-step laws against enumeration,
trajectories."""
from __future__ import annotations

import math

import numpy as np
import pytest

from mtpa import matrices
from mtpa.errors import NotStochastic, ValidationError
from mtpa.harness import replicate_stream
from mtpa.urn import (bernoulli_column_sampler, check_urn_invariants, new_urn,
                      run_urn, urn_step)

F_ASYM = np.array([[0.8, 0.2], [0.4, 0.6]])
IDENTITY = np.eye(2)


def three_sigma(p: float, n: int) -> float:
    return 3.0 * math.sqrt(p * (1.0 - p) / n)


# --------------------------------------------------------------------------
# construction

def test_new_urn_validation():
    sampler = bernoulli_column_sampler(F_ASYM)
    urn = new_urn([3, 1], 5, sampler)
    assert urn.composition == [3, 1]
    assert urn.total == 4
    with pytest.raises(ValidationError,
                       match="^initial composition has no balls$"):
        new_urn([0, 0], 1, sampler)
    with pytest.raises(ValidationError,
                       match=r"^negative ball count in \[2, -1\]$"):
        new_urn([2, -1], 1, sampler)
    with pytest.raises(ValidationError):
        new_urn([1, 1], 0, sampler)
    with pytest.raises(ValidationError,
                       match="^composition has 3 colours, sampler expects 2$"):
        new_urn([1, 1, 1], 1, sampler)


def test_new_urn_rejects_fractional_counts():
    sampler = bernoulli_column_sampler(F_ASYM)
    for bad in ([1.5, 0.7], [2, 0.5], [float("nan"), 1], [float("inf"), 1]):
        with pytest.raises(ValidationError, match="whole numbers"):
            new_urn(bad, 1, sampler)
    urn = new_urn([2.0, np.int64(3)], 1, sampler)
    assert urn.composition == [2, 3]
    assert all(type(c) is int for c in urn.composition)


def test_ball_conservation_formula():
    sampler = bernoulli_column_sampler(F_ASYM)
    urn = new_urn([3, 1], 5, sampler)
    rng = replicate_stream(40, 0)
    for n in range(1, 30):
        urn_step(urn, sampler, rng)
        assert urn.total == 4 + 5 * n
    assert check_urn_invariants(urn) == []


# --------------------------------------------------------------------------
# the column sampler

@pytest.mark.parametrize("flip", [
    IDENTITY, F_ASYM,
    [[0.2, 0.5, 0.3], [0.6, 0.1, 0.3], [0.0, 0.4, 0.6]]])
def test_the_sampler_is_the_row_cdfs_of_the_validated_f(flip):
    # column j of a replacement matrix is e_k with k the number of row j's
    # CDF entries at or below a uniform
    expected = matrices.row_cdfs(matrices.as_row_stochastic(flip))
    got = bernoulli_column_sampler(flip)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def test_sampler_rejects_non_stochastic_rows():
    with pytest.raises(NotStochastic):
        bernoulli_column_sampler([[0.5, 0.4], [0.2, 0.8]])


def test_sampler_rejects_a_tiny_negative_entry():
    # within the row-sum tolerance, but it would make its row CDF decrease,
    # and on such a row `urn_step`'s bisection and `run_urn`'s counted
    # compares can flip the same uniform apart
    with pytest.raises(NotStochastic, match="outside"):
        bernoulli_column_sampler([[0.5, -1e-13, 0.5 + 1e-13],
                                  [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]])


# --------------------------------------------------------------------------
# one-step transition laws

def test_single_draw_identity_replacement_law():
    sampler = bernoulli_column_sampler(IDENTITY)
    rng = replicate_stream(45, 0)
    n = 40_000
    first = 0
    for _ in range(n):
        urn = new_urn([1, 1], 1, sampler)
        urn_step(urn, sampler, rng)
        assert urn.composition in ([2, 1], [1, 2])
        first += urn.composition == [2, 1]
    assert abs(first / n - 0.5) < three_sigma(0.5, n)


def test_two_draw_identity_replacement_law():
    # both draws pick colour 1 with probability (1/2)**2, using the
    # start-of-step composition for both
    sampler = bernoulli_column_sampler(IDENTITY)
    rng = replicate_stream(46, 0)
    n = 40_000
    both = 0
    for _ in range(n):
        urn = new_urn([2, 2], 2, sampler)
        urn_step(urn, sampler, rng)
        both += urn.composition == [4, 2]
    assert abs(both / n - 0.25) < three_sigma(0.25, n)


def test_single_draw_transition_matches_hand_enumeration():
    # composition (a, b): colour j drawn w.p. C_j/s, ball k added w.p.
    # flip[j, k]; so P(add colour 1) = (a*0.8 + b*0.4) / (a + b)
    sampler = bernoulli_column_sampler(F_ASYM)
    rng = replicate_stream(47, 0)
    n = 40_000
    gained_first = 0
    for _ in range(n):
        urn = new_urn([1, 3], 1, sampler)
        urn_step(urn, sampler, rng)
        gained_first += urn.composition == [2, 3]
    expected = (1 * 0.8 + 3 * 0.4) / 4
    assert abs(gained_first / n - expected) < three_sigma(expected, n)


# --------------------------------------------------------------------------
# trajectories

def test_run_urn_zero_steps():
    sampler = bernoulli_column_sampler(F_ASYM)
    urn = new_urn([1, 3], 1, sampler)
    snaps = run_urn(urn, sampler, 0, 10, replicate_stream(49, 0))
    assert len(snaps) == 1
    assert snaps[0].composition == (1, 3)
    assert snaps[0].psi == (0.25, 0.75)


def test_run_urn_matches_step_loop_bitwise():
    sampler = bernoulli_column_sampler(F_ASYM)

    urn_a = new_urn([1, 3], 2, sampler)
    snaps_fast = run_urn(urn_a, sampler, 500, 100, replicate_stream(50, 0))

    urn_b = new_urn([1, 3], 2, sampler)
    rng = replicate_stream(50, 0)
    compositions = [tuple(urn_b.composition)]
    for step in range(1, 501):
        urn_step(urn_b, sampler, rng)
        if step % 100 == 0:
            compositions.append(tuple(urn_b.composition))
    assert [s.composition for s in snaps_fast] == compositions


def test_run_urn_chunks_consume_the_step_stream():
    # m=1: chunks of 4096 steps end inside each 4500-step snapshot interval
    sampler = bernoulli_column_sampler(F_ASYM)
    for m, steps, every in ((1, 9000, 4500), (3, 10, 1)):
        urn_a = new_urn([1, 3], m, sampler)
        rng_fast = replicate_stream(53, m)
        snaps = run_urn(urn_a, sampler, steps, every, rng_fast)
        urn_b = new_urn([1, 3], m, sampler)
        rng = replicate_stream(53, m)
        for _ in range(steps):
            urn_step(urn_b, sampler, rng)
        assert snaps[-1].composition == tuple(urn_b.composition)
        assert urn_a.step_index == urn_b.step_index == steps
        assert len(snaps) == steps // every + 1
        # both consumed exactly the same uniforms
        assert rng_fast.random() == rng.random()


def test_trajectory_is_deterministic_and_monotone():
    sampler = bernoulli_column_sampler(F_ASYM)

    def go():
        urn = new_urn([2, 5], 1, sampler)
        return run_urn(urn, sampler, 2000, 500, replicate_stream(51, 0))

    a, b = go(), go()
    assert [s.composition for s in a] == [s.composition for s in b]
    for earlier, later in zip(a, a[1:]):
        assert all(x <= y for x, y in
                   zip(earlier.composition, later.composition))


def test_symmetric_limit_from_asymmetric_start():
    # a doubly stochastic flip matrix pulls any start toward (1/2, 1/2),
    # but with diagonal 0.9 the second eigenvalue is 0.8, so the error
    # decays like n**-0.2 (pilot: mean |err| 0.11 / 0.073 / 0.045 at
    # n = 1e3 / 1e4 / 1e5). Tolerance pinned from that pilot spread.
    sampler = bernoulli_column_sampler(np.array([[0.9, 0.1], [0.1, 0.9]]))
    errors = []
    for seed in range(50):
        urn = new_urn([1, 3], 1, sampler)
        run_urn(urn, sampler, 100_000, 100_000, replicate_stream(70, seed))
        errors.append(abs(urn.fractions()[0] - 0.5))
    within = np.mean([e <= 0.15 for e in errors])
    assert within >= 0.95


def test_terminal_spread_shrinks_with_horizon():
    sampler = bernoulli_column_sampler(F_ASYM)
    early, late = [], []
    for seed in range(20):
        urn = new_urn([1, 3], 1, sampler)
        snaps = run_urn(urn, sampler, 100_000, 1000,
                        replicate_stream(53, seed))
        by_n = {s.n: s.psi[0] for s in snaps}
        early.append(by_n[1000])
        late.append(by_n[100_000])
    assert np.var(late) < np.var(early)
