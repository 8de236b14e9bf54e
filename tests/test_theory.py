"""Solver tests against independent oracles.

The oracles here never call the code paths they check: the single-type
closed form comes from telescoping the recurrence by hand, and attachment
probabilities are recomputed by enumerating the full per-step outcome tree.
"""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from mtpa import theory
from mtpa.config import ExperimentConfig
from mtpa.convergence import (attachment_probability_term,
                              convergence_series, edge_gain_rate_limit,
                              exact_attachment_probability,
                              exact_no_edge_probability)
from mtpa.errors import (NoConvergence, NotIrreducible, NotStochastic,
                         ValidationError)
from mtpa.theory import (dirichlet_psi_sample, solve_recurrence,
                         solve_unperturbed_recurrence,
                         stationary_type_distribution)
from test_walk import compositions_of_weight

F_ASYM = np.array([[0.8, 0.2], [0.4, 0.6]])
F_NEAR_ID = np.array([[0.9, 0.1], [0.1, 0.9]])


# --------------------------------------------------------------------------
# independent oracles

def closed_form_single_type(d: int, m: int) -> float:
    # telescoping the weight recurrence with one type gives
    # x(d) = 2 m (m+1) / (d (d+1) (d+2)) for d >= m
    return 2.0 * m * (m + 1) / (d * (d + 1) * (d + 2))


def single_type_direct_recursion(m: int, d_max: int) -> dict:
    # same recurrence, written independently: x(m) = 2/(m+2),
    # x(d) = (d-1)/(d+2) * x(d-1)
    values = {m: 2.0 / (m + 2)}
    for d in range(m + 1, d_max + 1):
        values[d] = (d - 1) / (d + 2) * values[d - 1]
    return values


def brute_force_gain_law(d_prev, num_edges, m, flip):
    """Distribution of per-final-type gains of one vertex in one step.

    Enumerates the (N**2 + 1)**m outcome tree: each of the m draws either
    misses the vertex or hits it with an (initial k, final l) pair.
    """
    n = len(d_prev)
    s_prev = sum(d_prev)
    two_e = 2.0 * num_edges
    outcomes = [(None, 1.0 - s_prev / two_e)]
    for k in range(n):
        for l in range(n):
            outcomes.append(((k, l), (d_prev[k] / two_e) * flip[k][l]))
    law = {}
    for combo in itertools.product(outcomes, repeat=m):
        prob = 1.0
        gains = [0] * n
        for hit, p in combo:
            prob *= p
            if hit is not None:
                gains[hit[1]] += 1
        key = tuple(gains)
        law[key] = law.get(key, 0.0) + prob
    return law


# --------------------------------------------------------------------------
# stationary proportions

def test_stationary_symmetric_is_uniform():
    for off in (0.1, 0.25, 0.45):
        f = [[1 - off, off], [off, 1 - off]]
        psi = stationary_type_distribution(f)
        assert np.max(np.abs(psi - 0.5)) < 1e-12


def test_stationary_two_state_hand_solution():
    psi = stationary_type_distribution(F_ASYM)
    assert abs(psi[0] - 2 / 3) < 1e-12
    assert abs(psi[1] - 1 / 3) < 1e-12


def test_stationary_single_type():
    psi = stationary_type_distribution([[1.0]])
    assert psi.tolist() == [1.0]


def test_stationary_residual_on_random_matrices():
    rng = np.random.default_rng(11)
    for n in [4] * 20 + [65, 200]:
        raw = rng.random((n, n)) + 0.05
        f = raw / raw.sum(axis=1, keepdims=True)
        psi = stationary_type_distribution(f)
        assert np.max(np.abs(psi @ f - psi)) <= 1e-12
        assert abs(psi.sum() - 1.0) < 1e-12


def test_stationary_periodic_chain_with_power_method():
    # cycles of period 2 and 65 have the uniform law
    for n in (2, 65):
        with pytest.warns(UserWarning):
            psi = stationary_type_distribution(np.roll(np.eye(n), 1, axis=1))
        assert np.max(np.abs(psi - 1.0 / n)) < 1e-12


def test_stationary_rejects_bad_matrices(monkeypatch):
    with pytest.raises(NotStochastic):
        stationary_type_distribution([[0.5, 0.4], [0.5, 0.5]])
    with pytest.raises(NotIrreducible):
        stationary_type_distribution([[1.0, 0.0], [0.0, 1.0]])

    def failing_solve(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", failing_solve)
    with pytest.raises(NoConvergence, match="direct solve failed"):
        stationary_type_distribution(F_ASYM)


# --------------------------------------------------------------------------
# perturbed recurrence

def test_single_type_matches_closed_form_and_direct_recursion():
    for m in (1, 2, 3):
        dist = solve_recurrence([[1.0]], m, 60)
        direct = single_type_direct_recursion(m, 60)
        for d in range(m, 61):
            assert abs(dist.masses.get((d,), 0.0)
                       - closed_form_single_type(d, m)) < 1e-12
            assert abs(dist.masses.get((d,), 0.0) - direct[d]) < 1e-12


def test_both_solvers_match_the_closed_form_past_exact_factorials():
    # m > EXACT_FACTORIAL_LIMIT takes the log-gamma fresh-vertex branches
    for m in (21, 30):
        for dist in (solve_recurrence([[1.0]], m, m + 40),
                     solve_unperturbed_recurrence([1.0], m, m + 40)):
            for d in range(m, m + 41):
                closed = closed_form_single_type(d, m)
                assert abs(dist.masses.get((d,), 0.0) - closed) < 1e-12


def test_marginal_oracle_rejects_a_wrong_fresh_source():
    # the weight-m layer must total 2/(m+2); 1/(m+2) is off by half
    with pytest.raises(NoConvergence, match="weight-3 layer"):
        theory._walk(2, 3, 8, lambda d: 1.0 / 5 / 4,
                     lambda previous, l: previous[l])
    # a right source with a wrong coefficient fails one layer up
    with pytest.raises(NoConvergence, match="weight-4 layer"):
        theory._walk(1, 3, 8, lambda d: 2.0 / 5,
                     lambda previous, l: previous[l] + 1)


def test_marginal_oracle_accepts_psi_at_the_edge_of_its_slack():
    for m in (5, 30):
        solve_unperturbed_recurrence([0.3, 0.7 + 9e-13], m, m + 6)
        solve_unperturbed_recurrence([0.3, 0.7 - 9e-13], m, m + 6)


def test_symmetric_base_case_value():
    # weight-1 vectors under any symmetric irreducible flip matrix
    for off in (0.1, 0.3, 0.45):
        f = [[1 - off, off], [off, 1 - off]]
        dist = solve_recurrence(f, 1, 5)
        assert abs(dist.masses.get((1, 0), 0.0) - 1 / 3) < 1e-12
        assert abs(dist.masses.get((0, 1), 0.0) - 1 / 3) < 1e-12


def test_mass_below_step_size_is_zero():
    dist = solve_recurrence(F_NEAR_ID, 2, 10)
    assert dist.masses.get((1, 0), 0.0) == 0.0
    assert dist.masses.get((0, 0), 0.0) == 0.0
    assert dist.masses.get((0, 1), 0.0) == 0.0


def test_masses_nonnegative_and_partial_sums_bounded():
    for f, m in ((F_NEAR_ID, 1), (F_NEAR_ID, 2), (F_ASYM, 3)):
        dist = solve_recurrence(f, m, 25)
        assert all(v >= 0.0 for v in dist.masses.values())
        running = 0.0
        previous = 0.0
        for w in range(m, 26):
            running += sum(v for d, v in dist.masses.items() if sum(d) == w)
            assert running >= previous
            previous = running
        assert running <= 1.0 + 1e-9


def test_permutation_symmetry_is_exact():
    f = np.array([[0.7, 0.3], [0.6, 0.4]])
    swapped = np.array([[0.4, 0.6], [0.3, 0.7]])  # conjugation by the swap
    a = solve_recurrence(f, 2, 14)
    b = solve_recurrence(swapped, 2, 14)
    for d, mass in a.masses.items():
        assert mass == b.masses.get((d[1], d[0]), 0.0)


def test_solver_argument_errors(monkeypatch):
    with pytest.raises(ValidationError, match="^m must be at least 1$"):
        solve_recurrence(F_ASYM, 0, 5)
    with pytest.raises(ValidationError, match="^d_max 2 is below m 3$"):
        solve_recurrence(F_ASYM, 3, 2)
    monkeypatch.setattr(theory, "LATTICE_CAP", 10)
    too_large = "^lattice up to weight 20 in 2 types exceeds 10 cells$"
    with pytest.raises(ValidationError, match=too_large):
        solve_recurrence(F_ASYM, 1, 20)
    with pytest.raises(ValidationError, match=too_large):
        solve_unperturbed_recurrence([0.5, 0.5], 1, 20)


# --------------------------------------------------------------------------
# non-perturbed recurrence

def test_unperturbed_equals_perturbed_for_single_type():
    for m in (1, 2, 3):
        a = solve_recurrence([[1.0]], m, 40)
        b = solve_unperturbed_recurrence([1.0], m, 40)
        for d in a.masses:
            assert abs(a.masses.get(d, 0.0) - b.masses.get(d, 0.0)) < 1e-12


def test_unperturbed_degenerate_proportions():
    dist = solve_unperturbed_recurrence([1.0, 0.0], 1, 12)
    for d, mass in dist.masses.items():
        if d[1] > 0:
            assert mass == 0.0
    assert abs(dist.masses.get((1, 0), 0.0) - 2 / 3) < 1e-12


def test_unperturbed_uniform_proportions_base_value():
    dist = solve_unperturbed_recurrence([0.5, 0.5], 1, 6)
    assert abs(dist.masses.get((1, 0), 0.0) - 1 / 3) < 1e-12
    assert abs(dist.masses.get((0, 1), 0.0) - 1 / 3) < 1e-12


def test_unperturbed_scales_linearly_in_psi_at_weight_one():
    # with one edge per step, x((1,0)) = (2/3) psi_1
    for p in (0.2, 0.55, 0.9):
        dist = solve_unperturbed_recurrence([p, 1 - p], 1, 3)
        assert abs(dist.masses.get((1, 0), 0.0) - (2 / 3) * p) < 1e-12


def test_unperturbed_rejects_bad_psi():
    with pytest.raises(ValidationError,
                       match=r"^psi \[0\.7, 0\.7\] is not a probability vector$"):
        solve_unperturbed_recurrence([0.7, 0.7], 1, 5)


def test_unperturbed_rejects_non_finite_psi():
    nan, inf = float("nan"), float("inf")
    for psi in ([nan, 0.5], [0.5, nan], [nan, nan], [inf, 0.5], [inf, -inf]):
        with pytest.raises(ValidationError, match="not a probability vector"):
            solve_unperturbed_recurrence(psi, 1, 5)


def test_solvers_reject_non_finite_flip_entries():
    nan, inf = float("nan"), float("inf")
    for flip in ([[0.5, 0.5], [nan, 0.5]], [[nan, nan], [0.5, 0.5]],
                 [[inf, 0.5], [0.5, 0.5]], [[0.5, 0.5], [-inf, 1.0]]):
        with pytest.raises(NotStochastic, match="outside"):
            stationary_type_distribution(flip)
        with pytest.raises(NotStochastic, match="outside"):
            solve_recurrence(flip, 1, 5)


# --------------------------------------------------------------------------
# Dirichlet proportions

def test_dirichlet_uniform_case_passes_ks():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(101)
    samples = [dirichlet_psi_sample([1, 1], rng)[0] for _ in range(10_000)]
    result = scipy_stats.kstest(samples, "uniform")
    assert result.pvalue > 0.01


def test_dirichlet_mean_matches_parameters():
    rng = np.random.default_rng(7)
    n = 10_000
    samples = np.array([dirichlet_psi_sample([5, 5], rng)[0]
                        for _ in range(n)])
    # Dirichlet(5,5) marginal: mean 1/2, var = 1/44
    assert abs(samples.mean() - 0.5) < 3 * math.sqrt(1 / 44 / n)


def test_dirichlet_single_type_and_errors():
    rng = np.random.default_rng(0)
    assert dirichlet_psi_sample([4], rng).tolist() == [1.0]
    with pytest.raises(ValidationError,
                       match=r"^counts \[0, 1\] must be positive integers$"):
        dirichlet_psi_sample([0, 1], rng)
    with pytest.raises(ValidationError,
                       match=r"^counts \[1\.5, 1\] must be positive integers$"):
        dirichlet_psi_sample([1.5, 1], rng)


# --------------------------------------------------------------------------
# exact attachment probabilities

def test_no_edge_probability_hand_values():
    assert abs(exact_no_edge_probability((2, 0), 10, 2) - 0.81) < 1e-15
    assert exact_no_edge_probability((0, 0), 10, 3) == 1.0
    assert exact_no_edge_probability((4,), 2, 1) == 0.0
    with pytest.raises(ValidationError,
                       match="^need 2\\*num_edges_prev >= weight, got 2 vs 5$"):
        exact_no_edge_probability((5,), 2, 1)


def test_zero_assignment_reduces_to_no_edge_probability():
    zero = [[0, 0], [0, 0]]
    value = attachment_probability_term((2, 1), zero, 10, 3, F_NEAR_ID)
    assert abs(value - exact_no_edge_probability((2, 1), 10, 3)) < 1e-15


def test_single_gain_hand_value():
    # degree (2,1) gaining one type-1 edge: predecessors (1,1), |E| = 10
    value = exact_attachment_probability((1, 1), (1, 0), 10, 1, F_NEAR_ID)
    assert abs(value - 0.05) < 1e-15


def test_assignment_matrix_validation():
    with pytest.raises(ValidationError,
                       match="^assignment places 3 edges, step has 2$"):
        attachment_probability_term((1, 1), [[2, 0], [0, 1]], 10, 2, F_NEAR_ID)
    with pytest.raises(ValidationError,
                       match="^assignment must be 2x2 nonnegative integers$"):
        attachment_probability_term((1, 1), [[-1, 0], [0, 0]], 10, 2,
                                    F_NEAR_ID)


FLIPS = {
    1: [[1.0]],
    2: [[0.9, 0.1], [0.2, 0.8]],
    3: [[0.8, 0.1, 0.1], [0.2, 0.6, 0.2], [0.3, 0.3, 0.4]],
}
PREVIOUS = {
    1: [(0,), (2,), (5,)],
    2: [(0, 0), (1, 0), (2, 1), (0, 3)],
    3: [(1, 0, 2), (0, 1, 1), (2, 2, 2)],
}


def test_gain_law_matches_brute_force_tree():
    num_edges = 10
    for n in (1, 2, 3):
        flip = FLIPS[n]
        for m in (1, 2, 3):
            for d_prev in PREVIOUS[n]:
                law = brute_force_gain_law(d_prev, num_edges, m, flip)
                for gained in itertools.chain.from_iterable(
                        compositions_of_weight(s, n) for s in range(m + 1)):
                    expected = law.get(tuple(gained), 0.0)
                    value = exact_attachment_probability(
                        d_prev, gained, num_edges, m, flip)
                    assert abs(value - expected) < 1e-12


def test_gain_law_sums_to_one_over_all_gains():
    d_prev = (2, 1)
    total = 0.0
    for s in range(4):
        for gained in compositions_of_weight(s, 2):
            total += exact_attachment_probability(d_prev, gained, 10, 3,
                                                  F_NEAR_ID)
    assert abs(total - 1.0) < 1e-12


# --------------------------------------------------------------------------
# limits

def test_edge_gain_rate_limit_hand_value():
    assert abs(edge_gain_rate_limit((2, 1), 0, F_NEAR_ID) - 0.5) < 1e-15
    with pytest.raises(ValidationError,
                       match="^d must have a type-1 edge to shed$"):
        edge_gain_rate_limit((0, 1), 0, F_NEAR_ID)


STEPS = (10, 100, 1000, 10_000)


def series_at_steps(quantity, **kwargs) -> list:
    """(value, limit) of an analytic convergence series at STEPS, on the
    default two-edge seed graph with m = 2 and F_NEAR_ID."""
    cfg = ExperimentConfig(model="graph", n_types=2, m_edges=2,
                           f_matrix=F_NEAR_ID, n_steps=STEPS[-1],
                           snapshot_every=STEPS[0])
    _, rows = convergence_series(cfg, quantity, **kwargs)
    return [(value, limit) for n, value, limit, _ in rows if n in STEPS]


def test_limit_diagnostics_converges():
    u_n = series_at_steps("u_n", degree=(2, 1))
    gaps = [abs(u - limit) for u, limit in u_n]
    assert len(gaps) == len(STEPS)
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] < 1e-3
    for l in (0, 1):
        series = series_at_steps("np_el", degree=(2, 1), type_index=l)
        value, limit = series[-1]
        assert abs(value - limit) < 1e-3
        if l == 0:
            assert abs(limit - 0.5) < 1e-15
