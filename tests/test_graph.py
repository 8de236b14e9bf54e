"""Simulator tests: seed handling, sampling laws, frozen-step semantics."""
from __future__ import annotations

import math

import numpy as np
import pytest

from mtpa.errors import (EmptyGraph, EmptyPool, LoopEdge, MissingType,
                         NotIrreducible, NotStochastic, ParseError,
                         ValidationError)
from mtpa.graph import (DECAYING, PerturbationSchedule, SeedGraphSpec,
                        TypedGraph, _census, check_graph_invariants,
                        empirical_distribution, new_graph, pa_step, run)
from mtpa.harness import replicate_stream

F_NEAR_ID = [[0.9, 0.1], [0.1, 0.9]]


def census(g) -> dict:
    """The census derived from the per-vertex degrees, degree -> count."""
    rows, counts = _census(g.per_vertex_degree)
    return dict(zip(map(tuple, rows.tolist()), counts.tolist()))


def three_sigma(p: float, n: int) -> float:
    return 3.0 * math.sqrt(p * (1.0 - p) / n)


def last_edges(g, k):
    """The last k edges as (newcomer, endpoint, type), read from the pool."""
    pool_v, pool_t = g.endpoint_pool, g.pool_types
    return [(pool_v[2 * i], pool_v[2 * i + 1], pool_t[2 * i])
            for i in range(g.num_edges - k, g.num_edges)]


def one_step_draws(edges, n_types, f, m, seed):
    """(endpoint, final type) of the m edges of one pa_step from a seed graph.

    All draws of a step read the frozen seed state, so they are m i.i.d.
    samples of the step's joint endpoint/type law.
    """
    g = new_graph(SeedGraphSpec(n_types, edges))
    pa_step(g, PerturbationSchedule(f), m, replicate_stream(seed, 0))
    return [(b, t) for _, b, t in last_edges(g, m)]


# --------------------------------------------------------------------------
# seed graphs

def test_default_seed_two_vertices_one_edge_per_type():
    g = new_graph(SeedGraphSpec.default(2))
    assert g.num_vertices == 2
    assert g.type_counts == [1, 1]
    assert g.per_vertex_degree.tolist() == [[1, 1], [1, 1]]
    assert census(g) == {(1, 1): 2}
    assert len(g.endpoint_pool) == 4


def test_star_seed_census():
    n = 3
    edges = [(0, leaf, leaf - 1) for leaf in range(1, n + 1)]
    g = new_graph(SeedGraphSpec(n, edges))
    counts = census(g)
    assert counts[(1, 1, 1)] == 1  # the center
    for t in range(n):
        unit = tuple(1 if k == t else 0 for k in range(n))
        assert counts[unit] == 1
    dist = empirical_distribution(g)
    for d in counts:
        assert abs(dist.masses.get(d, 0.0) - 1 / (n + 1)) < 1e-15


def test_seed_validation_errors():
    with pytest.raises(MissingType) as err:
        new_graph(SeedGraphSpec(2, [(0, 1, 0)]))
    assert err.value.type_label == 2
    with pytest.raises(LoopEdge):
        new_graph(SeedGraphSpec(1, [(3, 3, 0)]))
    with pytest.raises(EmptyGraph):
        new_graph(SeedGraphSpec(1, []))
    with pytest.raises(ValidationError):
        new_graph(SeedGraphSpec(1, [(0, 1, 5)]))


def test_seed_file_roundtrip(tmp_path):
    path = tmp_path / "seed.txt"
    path.write_text("# seed\n0 1 1\n0 1 2  # parallel edge\n\n1 2 1\n")
    spec = SeedGraphSpec.from_file(path)
    assert spec.n_types == 2
    assert spec.edges == [(0, 1, 0), (0, 1, 1), (1, 2, 0)]
    assert spec.type_counts() == [2, 1]


def test_seed_file_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1\n")
    with pytest.raises(ParseError):
        SeedGraphSpec.from_file(bad)
    zero_type = tmp_path / "zero.txt"
    zero_type.write_text("0 1 0\n")
    with pytest.raises(ParseError):
        SeedGraphSpec.from_file(zero_type)
    with pytest.raises(ParseError):
        SeedGraphSpec.from_file(tmp_path / "missing.txt")


# --------------------------------------------------------------------------
# perturbation schedules

def test_schedule_validation():
    with pytest.raises(NotStochastic):
        PerturbationSchedule([[0.8, 0.1], [0.1, 0.9]])
    with pytest.raises(NotIrreducible):
        PerturbationSchedule([[1.0, 0.0], [0.5, 0.5]])
    # F = I is the model without perturbation, the one reducible F it runs
    PerturbationSchedule([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValidationError):
        PerturbationSchedule(F_NEAR_ID, kind="bogus")
    with pytest.raises(ValidationError):
        PerturbationSchedule(F_NEAR_ID, kind=DECAYING,
                             decay=[[0.1, 0.0], [0.0, 0.1]])
    with pytest.raises(ValidationError):
        PerturbationSchedule(F_NEAR_ID, kind=DECAYING,
                             decay=[[0.1, -0.1], [0.0, 0.0]], rho=0.0)


def test_schedule_rejects_non_finite_decay():
    nan, inf = float("nan"), float("inf")
    for decay in ([[nan, 0.0], [0.0, 0.0]], [[inf, 0.0], [0.0, -inf]]):
        with pytest.raises(ValidationError, match="rows must sum to 0"):
            PerturbationSchedule(F_NEAR_ID, kind=DECAYING, decay=decay)
    with pytest.raises(ValidationError, match="rho must be positive"):
        PerturbationSchedule(F_NEAR_ID, kind=DECAYING,
                             decay=[[0.1, -0.1], [0.0, 0.0]], rho=nan)


def test_decaying_schedule_stays_stochastic_and_converges():
    decay = [[0.4, -0.4], [-0.4, 0.4]]
    schedule = PerturbationSchedule(F_NEAR_ID, kind=DECAYING, decay=decay,
                                    rho=0.7)
    limit = np.asarray(F_NEAR_ID)
    for n in (1, 2, 5, 50, 10_000):
        step_matrix = schedule.matrix_at(n)
        assert np.all(step_matrix >= 0) and np.all(step_matrix <= 1)
        assert np.max(np.abs(step_matrix.sum(axis=1) - 1)) < 1e-12
    assert np.max(np.abs(schedule.matrix_at(10**7) - limit)) < 1e-4


# --------------------------------------------------------------------------
# sampling laws

# pa_step draws the endpoint, the initial type and the flip from one slot
# uniform and one flip uniform; these tests pin each factor of that law

def test_sample_endpoint_symmetric_pair():
    n = 40_000
    draws = one_step_draws([(0, 1, 0), (0, 1, 1)], 2, F_NEAR_ID, n, 21)
    hits = sum(1 for endpoint, _ in draws if endpoint == 0)
    assert abs(hits / n - 0.5) < three_sigma(0.5, n)


def test_sample_endpoint_degree_proportional():
    # multigraph: degrees u=(2,1), v=(2,0), w=(0,1) over 2|E| = 6 slots, so
    # P(endpoint=x, final=l) = sum_k deg_x[k]/6 * F[k,l]; six cells, so the
    # bound is four sigma
    f = np.array([[0.7, 0.3], [0.2, 0.8]])
    degrees = {0: (2, 1), 1: (2, 0), 2: (0, 1)}
    n = 90_000
    draws = one_step_draws([(0, 1, 0), (0, 2, 1), (0, 1, 0)], 2, f, n, 22)
    counts = {}
    for cell in draws:
        counts[cell] = counts.get(cell, 0) + 1
    assert set(counts) <= {(x, l) for x in degrees for l in (0, 1)}
    for x, deg in degrees.items():
        for l in (0, 1):
            p = sum(deg[k] / 6 * f[k, l] for k in (0, 1))
            sigma = math.sqrt(p * (1.0 - p) / n)
            assert abs(counts.get((x, l), 0) / n - p) < 4.0 * sigma


def test_assign_initial_type_proportions():
    # both vertices have degree (2, 1, 1): the initial type is 0, 1, 2 with
    # probability 1/2, 1/4, 1/4, so P(final = l) = sum_k p_k F[k, l]
    f = np.full((3, 3), 0.1) + 0.7 * np.eye(3)
    initial = (0.5, 0.25, 0.25)
    n = 90_000
    draws = one_step_draws([(0, 1, 0), (0, 1, 0), (0, 1, 1), (0, 1, 2)], 3,
                           f, n, 23)
    counts = [0, 0, 0]
    for _, final in draws:
        counts[final] += 1
    for l in range(3):
        p = sum(initial[k] * f[k, l] for k in range(3))
        assert abs(counts[l] / n - p) < three_sigma(p, n)


def test_assign_initial_type_degenerate_and_isolated():
    # vertex 1 has degree (1, 0) and vertex 2 degree (0, 1): their initial
    # types are certain, so the final type follows row 0 or row 1 of F; a
    # vertex of degree 0 (the newcomer) is never drawn
    f = np.array([[0.9, 0.1], [0.2, 0.8]])
    n = 60_000
    draws = one_step_draws([(0, 1, 0), (0, 2, 1)], 2, f, n, 24)
    assert {endpoint for endpoint, _ in draws} == {0, 1, 2}
    for vertex, p in ((1, 0.9), (2, 0.2), (0, 0.55)):
        finals = [final for endpoint, final in draws if endpoint == vertex]
        share = sum(1 for final in finals if final == 0) / len(finals)
        assert abs(share - p) < three_sigma(p, len(finals))


def test_perturb_type_laws():
    # one edge per type on disjoint pairs: vertex x has only type x // 2
    edges = [(0, 1, 0), (2, 3, 1), (4, 5, 2)]
    cycle = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
    draws = one_step_draws(edges, 3, cycle, 300, 25)
    assert all(final == (endpoint // 2 + 1) % 3 for endpoint, final in draws)

    n = 50_000
    draws = one_step_draws(edges[:2], 2, F_NEAR_ID, n, 25)
    finals = [final for endpoint, final in draws if endpoint < 2]
    hits = sum(1 for final in finals if final == 0)
    assert abs(hits / len(finals) - 0.9) < three_sigma(0.9, len(finals))

    uniform_row = [[1 / 3, 1 / 3, 1 / 3], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
    draws = one_step_draws(edges, 3, uniform_row, n, 26)
    finals = [final for endpoint, final in draws if endpoint < 2]
    for l in range(3):
        share = sum(1 for final in finals if final == l) / len(finals)
        assert abs(share - 1 / 3) < three_sigma(1 / 3, len(finals))


def test_perturb_type_rejects_bad_rows():
    # the flip rows pa_step reads come from a schedule, which rejects rows
    # that are not probability vectors
    with pytest.raises(NotStochastic):
        PerturbationSchedule([[0.5, 0.4], [0.4, 0.6]])
    with pytest.raises(NotStochastic):
        PerturbationSchedule([[1.2, -0.2], [0.1, 0.9]])
    # a negative entry inside the row-sum tolerance is still negative
    with pytest.raises(NotStochastic, match="outside"):
        PerturbationSchedule([[0.5, -1e-13, 0.5 + 1e-13],
                              [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]])


# --------------------------------------------------------------------------
# growth steps

def test_pa_step_structural_changes():
    schedule = PerturbationSchedule(F_NEAR_ID)
    g = new_graph(SeedGraphSpec.default(2))
    rng = replicate_stream(27, 0)
    for m in (1, 2, 3):
        vertices, edges = g.num_vertices, g.num_edges
        pa_step(g, schedule, m, rng)
        assert g.num_vertices == vertices + 1
        assert g.num_edges == edges + m
        newcomer = g.per_vertex_degree[-1]
        assert sum(newcomer) == m
        # mixed m across steps: the fixed-m edge-count check must flag it
        assert check_graph_invariants(g, 0) != []
    assert len(g.pool_types) == len(g.endpoint_pool) == 2 * g.num_edges


def test_pa_step_single_edge_outcome_tree():
    # seed: two vertices joined by a type-1 and a type-2 edge. Enumerating
    # (endpoint, initial, final): P(endpoint u) = 1/2, P(final type 1) =
    # 0.5*0.9 + 0.5*0.1 = 0.5, and the two are independent.
    schedule = PerturbationSchedule(F_NEAR_ID)
    n = 20_000
    rng = replicate_stream(28, 0)
    attach_u = 0
    final_one = 0
    joint = 0
    for _ in range(n):
        g = new_graph(SeedGraphSpec.default(2))
        pa_step(g, schedule, 1, rng)
        (_, endpoint, final), = last_edges(g, 1)
        attach_u += endpoint == 0
        final_one += final == 0
        joint += endpoint == 0 and final == 0
    assert abs(attach_u / n - 0.5) < three_sigma(0.5, n)
    assert abs(final_one / n - 0.5) < three_sigma(0.5, n)
    assert abs(joint / n - 0.25) < three_sigma(0.25, n)


def test_pa_step_two_edges_newcomer_degree_law():
    # both edges get final type 1 with prob (0.5*0.9 + 0.5*0.1)**2 = 0.25;
    # conditional independence given the frozen state
    schedule = PerturbationSchedule(F_NEAR_ID)
    n = 20_000
    rng = replicate_stream(29, 0)
    both_one = 0
    same_endpoint = 0
    for _ in range(n):
        g = new_graph(SeedGraphSpec.default(2))
        pa_step(g, schedule, 2, rng)
        both_one += tuple(g.per_vertex_degree[-1]) == (2, 0)
        (_, b1, _), (_, b2, _) = last_edges(g, 2)
        same_endpoint += b1 == b2
    assert abs(both_one / n - 0.25) < three_sigma(0.25, n)
    # parallel edges to the same endpoint are allowed and counted: each
    # endpoint draw is uniform over two equal-degree vertices
    assert abs(same_endpoint / n - 0.5) < three_sigma(0.5, n)


def test_pa_step_never_attaches_to_newcomer():
    schedule = PerturbationSchedule(F_NEAR_ID)
    g = new_graph(SeedGraphSpec.default(2))
    rng = replicate_stream(30, 0)
    for _ in range(300):
        newcomer = g.num_vertices
        pa_step(g, schedule, 3, rng)
        for a, b, _ in last_edges(g, 3):
            assert a == newcomer
            assert b != newcomer


def test_pa_step_same_endpoint_counts_twice():
    schedule = PerturbationSchedule(F_NEAR_ID)
    rng = replicate_stream(31, 0)
    seen_double = False
    for _ in range(200):
        g = new_graph(SeedGraphSpec.default(2))
        pa_step(g, schedule, 2, rng)
        (_, b1, _), (_, b2, _) = last_edges(g, 2)
        if b1 == b2:
            seen_double = True
            assert sum(g.per_vertex_degree[b1]) == 4  # 2 seed + 2 new
    assert seen_double


def test_conservation_invariants_over_long_run():
    schedule = PerturbationSchedule(F_NEAR_ID)
    g = new_graph(SeedGraphSpec.default(2))
    rng = replicate_stream(32, 0)
    for _ in range(2000):
        pa_step(g, schedule, 3, rng)
    assert check_graph_invariants(g, 3) == []
    assert g.num_vertices == 2002
    assert g.num_edges == 2 + 3 * 2000


def test_invariants_flag_a_corrupted_pool():
    schedule = PerturbationSchedule(F_NEAR_ID)
    g = new_graph(SeedGraphSpec.default(2))
    pa_step(g, schedule, 2, replicate_stream(39, 0))
    assert check_graph_invariants(g, 2) == []
    g.pool_types[-1] = 1 - g.pool_types[-1]
    violations = check_graph_invariants(g, 2)
    assert any("disagree on its type" in v for v in violations)
    g.pool_types[-1] = 1 - g.pool_types[-1]
    g.pool_types = g.pool_types[:-1]
    violations = check_graph_invariants(g, 2)
    assert any("2 slots per edge" in v for v in violations)


def test_invariants_flag_a_corrupted_degree():
    schedule = PerturbationSchedule(F_NEAR_ID)
    g = new_graph(SeedGraphSpec.default(2))
    run(g, schedule, 2, 50, 50, replicate_stream(41, 0), census=False)
    # move one unit of degree between types: the handshake still holds,
    # so only the recount of the pool can see it
    old = g.per_vertex_degree[5].tolist()
    g.per_vertex_degree[5] += (1, -1) if old[1] else (-1, 1)
    assert check_graph_invariants(g, 2) == [
        "per-vertex degrees disagree with the pool"]


def test_empty_pool_propagates_from_pa_step():
    schedule = PerturbationSchedule([[1.0]])
    with pytest.raises(EmptyPool):
        pa_step(TypedGraph(1), schedule, 1, replicate_stream(0, 0))


# --------------------------------------------------------------------------
# runs and snapshots

def test_run_zero_steps_returns_initial_snapshot():
    g = new_graph(SeedGraphSpec.default(2))
    snaps = run(g, PerturbationSchedule(F_NEAR_ID), 1, 0, 5,
                replicate_stream(33, 0))
    assert len(snaps) == 1
    assert snaps[0].n == 0
    assert snaps[0].psi == (0.5, 0.5)


def test_run_snapshot_grid_and_final():
    g = new_graph(SeedGraphSpec.default(2))
    snaps = run(g, PerturbationSchedule(F_NEAR_ID), 1, 10, 3,
                replicate_stream(34, 0))
    assert [s.n for s in snaps] == [0, 3, 6, 9, 10]


def test_run_is_deterministic_per_seed():
    def one():
        g = new_graph(SeedGraphSpec.default(2))
        return run(g, PerturbationSchedule(F_NEAR_ID), 2, 400, 100,
                   replicate_stream(35, 0))

    a, b = one(), one()
    assert len(a) == len(b)
    for sa, sb in zip(a, b):
        assert sa.n == sb.n
        assert sa.psi == sb.psi
        assert sa.distribution.masses == sb.distribution.masses


def test_empirical_distribution_sums_to_one():
    g = new_graph(SeedGraphSpec.default(2))
    rng = replicate_stream(36, 0)
    schedule = PerturbationSchedule(F_NEAR_ID)
    for _ in range(500):
        pa_step(g, schedule, 2, rng)
    dist = empirical_distribution(g)
    assert abs(dist.total() - 1.0) < 1e-12
    assert all(v > 0 for v in dist.masses.values())


def test_single_type_masses_near_closed_form():
    # one type: mass at degree 1 tends to 2/3 with one edge per step, and
    # mass at degree 2 tends to 1/2 with two edges per step
    schedule = PerturbationSchedule([[1.0]])
    g = new_graph(SeedGraphSpec.default(1))
    run(g, schedule, 1, 100_000, 100_000, replicate_stream(37, 0))
    assert abs(empirical_distribution(g).masses.get((1,), 0.0) - 2 / 3) < 0.01

    g = new_graph(SeedGraphSpec.default(1))
    run(g, schedule, 2, 200_000, 200_000, replicate_stream(38, 0))
    assert abs(empirical_distribution(g).masses.get((2,), 0.0) - 0.5) < 0.01


def test_type_permutation_equivariance_distributional():
    # relabeling the types in F (conjugation by the swap) relabels the
    # census; compare pooled empirical distributions at matched tolerance
    f = np.array([[0.7, 0.3], [0.6, 0.4]])
    swapped = np.array([[0.4, 0.6], [0.3, 0.7]])

    def pooled(matrix, lane):
        schedule = PerturbationSchedule(matrix)
        acc = {}
        reps, steps = 40, 2000
        for r in range(reps):
            g = new_graph(SeedGraphSpec.default(2))
            run(g, schedule, 1, steps, steps, replicate_stream(512 + lane, r),
                census=False)
            for d, c in census(g).items():
                acc[d] = acc.get(d, 0) + c
        total = sum(acc.values())
        return {d: c / total for d, c in acc.items()}

    base = pooled(f, 0)
    relabeled = pooled(swapped, 1)
    mirrored = {(d[1], d[0]): p for d, p in relabeled.items()}
    diff = 0.5 * sum(abs(base.get(d, 0.0) - mirrored.get(d, 0.0))
                     for d in set(base) | set(mirrored) if sum(d) <= 6)
    assert diff < 0.02
