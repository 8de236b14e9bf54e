"""Differential tests: the whole-run engine `run` against `pa_step`.

`run` must draw the same uniforms in the same order as a loop of
`pa_step` calls and leave the same graph bit for bit: the pools, and the
census tallied from them, every snapshot of a run, and the state of the
generator afterwards.
"""
from __future__ import annotations

import itertools
import random
import struct
import tracemalloc

import numpy as np
import pytest

from mtpa import graph as graph_module
from mtpa.degrees import DegreeDistribution
from mtpa.graph import (CONSTANT, DECAYING, PerturbationSchedule,
                        SeedGraphSpec, _census, _index_dtype,
                        check_graph_invariants, empirical_distribution,
                        edge_type_proportions, new_graph, pa_step, run)
from mtpa.harness import replicate_stream, tv_distance
from mtpa.theory import solve_recurrence
from test_run_urn import DyadicStream
from test_walk import sort_key

SEEDS = range(5)
# steps per pass of the fill: one, an odd few, and more than any call takes;
# the differential tests loop over them, so their ids stay as they were
PASS_STEPS = (1, 7, 10**6)


def flip_matrix(n: int) -> np.ndarray:
    """A positive, asymmetric row-stochastic matrix, fixed per size."""
    rows = np.random.default_rng(100 + n).dirichlet(np.ones(n), size=n)
    return 0.5 * rows + 0.5 * np.eye(n) if n > 1 else np.ones((1, 1))


def make_schedule(n: int, rho) -> PerturbationSchedule:
    if rho is None:
        return PerturbationSchedule(flip_matrix(n), CONSTANT)
    # large enough to clip entries at 0 and 1 in the first steps
    decay = 0.9 * (np.eye(n) - np.full((n, n), 1.0 / n))
    return PerturbationSchedule(flip_matrix(n), DECAYING, decay, rho)


def seed_spec(kind: str, n: int, tmp_path) -> SeedGraphSpec:
    if kind == "default":
        return SeedGraphSpec.default(n)
    if kind == "parallel":
        # the criterion-3 seed: 100 parallel edges of each type
        return SeedGraphSpec(n, [(0, 1, t) for t in range(n) for _ in range(100)])
    # vertex ids with gaps, read from a file
    path = tmp_path / "gaps.txt"
    ids = [3, 7, 12, 40, 41]
    lines = [f"{ids[i]} {ids[(i + 1) % 5]} {i % n + 1}" for i in range(5)]
    lines.append(f"12 40 {n}")
    path.write_text("\n".join(lines) + "\n")
    return SeedGraphSpec.from_file(path, n)


def reference_run(graph, schedule, m, n_steps, snapshot_every, rng) -> list:
    """`run` as a loop of `pa_step`: snapshots at every `snapshot_every`
    steps and at the last one."""
    snaps = [(graph.step_index, edge_type_proportions(graph),
              empirical_distribution(graph).masses)]
    for step in range(1, n_steps + 1):
        pa_step(graph, schedule, m, rng)
        if step % snapshot_every == 0 or step == n_steps:
            snaps.append((graph.step_index, edge_type_proportions(graph),
                          empirical_distribution(graph).masses))
    return snaps


def assert_same_graph(a, b):
    for name in ("endpoint_pool", "pool_types"):
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype, name
        assert np.array_equal(left, right), name
    censuses = empirical_distribution(a), empirical_distribution(b)
    for name in ("degrees", "values"):
        left, right = (getattr(census, name) for census in censuses)
        assert left.dtype == right.dtype, name
        assert np.array_equal(left, right), name
    assert (a.num_vertices, a.step_index) == (b.num_vertices, b.step_index)


def assert_same_stream(rng_a, rng_b):
    assert rng_a.random() == rng_b.random()


@pytest.mark.parametrize("rho", [None, 0.5, 0.37, 1.7],
                         ids=["constant", "rho0.5", "rho0.37", "rho1.7"])
@pytest.mark.parametrize("m", [1, 2, 5])
@pytest.mark.parametrize("n_types", [1, 2, 3, 6])
@pytest.mark.parametrize("seed_kind", ["default", "parallel", "gaps"])
def test_run_matches_pa_step(seed_kind, n_types, m, rho, tmp_path,
                             monkeypatch):
    # F = I, the model without perturbation, is one more constant schedule
    schedules = [make_schedule(n_types, rho)]
    if rho is None:
        schedules.append(PerturbationSchedule(np.eye(n_types)))
    spec = seed_spec(seed_kind, n_types, tmp_path)
    for schedule, pass_steps, seed in itertools.product(schedules, PASS_STEPS,
                                                        SEEDS):
        monkeypatch.setattr(graph_module, "_PASS_EDGES", pass_steps * m)
        # 130 steps with a snapshot every 40: the last interval is short
        ref, eng = new_graph(spec), new_graph(spec)
        rng_ref, rng_eng = replicate_stream(seed, 0), replicate_stream(seed, 0)
        expected = reference_run(ref, schedule, m, 130, 40, rng_ref)
        got = run(eng, schedule, m, 130, 40, rng_eng)
        assert [(s.n, s.psi, s.distribution.masses) for s in got] == expected
        assert [s.n for s in got] == [0, 40, 80, 120, 130]
        assert_same_graph(ref, eng)
        assert_same_stream(rng_ref, rng_eng)
        assert check_graph_invariants(eng, m) == []


@pytest.mark.parametrize("rho", [None, 0.5])
def test_grow_continues_a_graph_stepped_by_pa_step(rho):
    schedule = make_schedule(3, rho)
    for seed in SEEDS:
        ref = new_graph(SeedGraphSpec.default(3))
        rng_ref = replicate_stream(seed, 0)
        for _ in range(37):
            pa_step(ref, schedule, 2, rng_ref)
        eng = new_graph(SeedGraphSpec.default(3))
        rng_eng = replicate_stream(seed, 0)
        for _ in range(37):
            pa_step(eng, schedule, 2, rng_eng)
        for _ in range(250):
            pa_step(ref, schedule, 2, rng_ref)
        run(eng, schedule, 2, 250, 250, rng_eng, census=False)
        assert_same_graph(ref, eng)
        assert_same_stream(rng_ref, rng_eng)
        assert check_graph_invariants(eng, 2) == []


def test_zero_steps_draw_nothing():
    schedule = make_schedule(2, 0.5)
    g = new_graph(SeedGraphSpec.default(2))
    rng, untouched = replicate_stream(3, 0), replicate_stream(3, 0)
    run(g, schedule, 2, 0, 1, rng, census=False)
    snaps = run(g, schedule, 2, 0, 7, rng)
    assert [s.n for s in snaps] == [0]
    assert_same_graph(g, new_graph(SeedGraphSpec.default(2)))
    assert_same_stream(rng, untouched)


def test_long_run_matches_pa_step(monkeypatch):
    # deep ancestry chains: many rounds of the fill's chain walk
    schedule = make_schedule(2, None)
    for pass_steps in PASS_STEPS:
        monkeypatch.setattr(graph_module, "_PASS_EDGES", pass_steps * 3)
        ref = new_graph(SeedGraphSpec.default(2))
        eng = new_graph(SeedGraphSpec.default(2))
        rng_ref, rng_eng = replicate_stream(9, 0), replicate_stream(9, 0)
        for _ in range(5000):
            pa_step(ref, schedule, 3, rng_ref)
        run(eng, schedule, 3, 5000, 5000, rng_eng, census=False)
        assert_same_graph(ref, eng)
        assert_same_stream(rng_ref, rng_eng)


class TopPickStream:
    """Uniforms whose picks (the even ones of each call) are all
    1 - 2**-53, the largest below 1, and whose flips are random: every edge
    draws the last slot of the pool frozen at its step, the odd slot of the
    step before's last edge."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def random(self, size=None):
        u = self.rng.random(size)
        if size is not None:
            u[0::2] = 1 - 2**-53
        return u


@pytest.mark.parametrize("rho", [None, 0.5], ids=["constant", "rho0.5"])
@pytest.mark.parametrize("m", (1, 3))
def test_longest_chain_matches_pa_step(m, rho, monkeypatch):
    # one pass for the whole call, whose every edge's chain runs back
    # through every step before it to the seed's last slot: the fill takes
    # a round per step, and every new vertex joins that slot's vertex
    monkeypatch.setattr(graph_module, "_PASS_EDGES", PASS_STEPS[-1] * m)
    schedule = make_schedule(2, rho)
    ref, eng = (new_graph(SeedGraphSpec.default(2)) for _ in range(2))
    rng_ref, rng_eng = TopPickStream(5), TopPickStream(5)
    for _ in range(600):
        pa_step(ref, schedule, m, rng_ref)
    run(eng, schedule, m, 600, 600, rng_eng, census=False)
    assert_same_graph(ref, eng)
    assert_same_stream(rng_ref, rng_eng)
    seed_slots = 2 * len(SeedGraphSpec.default(2).edges)
    assert set(eng.endpoint_pool[seed_slots + 1::2].tolist()) == {
        int(eng.endpoint_pool[seed_slots - 1])}


def test_invariants_recount_the_last_pass(monkeypatch):
    # 2 seed edges and 50 steps of 2, counted 16 edges a pass: the last
    # pass holds the last 6 edges, and with them the only edges of a type
    monkeypatch.setattr(graph_module, "_PASS_EDGES", 16)
    g = new_graph(SeedGraphSpec.default(2))
    run(g, make_schedule(2, None), 2, 50, 50, replicate_stream(41, 0),
        census=False)
    assert g.num_edges % 16 == 6
    assert check_graph_invariants(g, 2) == []
    # every edge but the last takes type 0, the last type 1
    g.pool_types[:-2] = 0
    g.pool_types[-2:] = 1
    assert check_graph_invariants(g, 2) == []
    g.pool_types[-2:] = 0
    assert check_graph_invariants(g, 2) == ["a type has no edges"]


def test_replicate_memory_is_bounded_per_edge():
    # a 100k-step criterion-3 replicate: each of run, the check and the
    # census peaks within about 1 B per edge of what it measured, the
    # graph's 10 B included; a degree table stored beside the pool would
    # take run to 15 B per edge, and a check that recounts it to 19 B
    spec = seed_spec("parallel", 2, None)
    schedule = PerturbationSchedule(np.array([[0.9, 0.1], [0.1, 0.9]]))
    rng = replicate_stream(0, 0)  # made untraced: it may import numpy.random
    phases = {
        "run": lambda g: run(g, schedule, 2, 100_000, 100_000, rng,
                            census=False),
        "check": lambda g: check_graph_invariants(g, 2),
        "census": empirical_distribution,
    }
    peaks = {}
    tracemalloc.start()
    try:
        g = new_graph(spec)
        for name, call in phases.items():
            tracemalloc.reset_peak()
            call(g)
            peaks[name] = tracemalloc.get_traced_memory()[1] / g.num_edges
    finally:
        tracemalloc.stop()
    assert g.num_edges == 200_200
    bounds = {"run": 12, "check": 12, "census": 17.5}
    assert all(peaks[name] <= bound for name, bound in bounds.items()), peaks


@pytest.mark.parametrize("m", (1, 3))
def test_ties_at_cdf_entries(m):
    # dyadic uniforms land exactly on the dyadic CDF entries, also on the
    # repeated entry a zero makes: both engines flip them alike
    flip = np.array([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.75, 0.25]])
    schedule = PerturbationSchedule(flip)
    for seed in SEEDS:
        ref, eng = (new_graph(SeedGraphSpec.default(3)) for _ in range(2))
        rng_ref, rng_eng = DyadicStream(seed), DyadicStream(seed)
        for _ in range(200):
            pa_step(ref, schedule, m, rng_ref)
        run(eng, schedule, m, 200, 200, rng_eng, census=False)
        assert_same_graph(ref, eng)
        assert_same_stream(rng_ref, rng_eng)


def step_law(limit, decay, rho, n):
    """The row CDFs of step n, one step at a time: limit + decay / n**rho
    clamped to [0, 1], rows renormalized, summed along each row, and the
    last entry of each row set to 1.0."""
    raw = np.clip(limit + decay / float(n) ** rho, 0.0, 1.0)
    cdf = np.cumsum(raw / raw.sum(axis=1, keepdims=True), axis=1)
    cdf[:, -1] = 1.0
    return cdf.tolist()


def test_cdf_table_matches_row_cdfs_at():
    limit = flip_matrix(3)
    decay = 0.9 * (np.eye(3) - np.full((3, 3), 1.0 / 3))
    for rho in (0.5, 1.0, 0.37, 1.7, 0.123):
        schedule = PerturbationSchedule(limit, DECAYING, decay, rho)
        table = schedule.cdf_table(1, 4000)
        for n in range(1, 4001):
            assert table[n - 1].tolist() == step_law(limit, decay, rho, n)
        later = schedule.cdf_table(123_456, 3)
        for i in range(3):
            assert later[i].tolist() == step_law(limit, decay, rho, 123_456 + i)
    constant = PerturbationSchedule(limit)
    cdf = np.cumsum(limit, axis=1)
    cdf[:, -1] = 1.0
    assert constant.cdf_table(1, 50).tolist() == [cdf.tolist()]


def reference_matrices(schedule, first, count):
    """The decaying schedule's step matrices as one expression: a list of
    Python powers, then fresh arrays for the shift, clip and division."""
    scale = np.array([float(n) ** schedule.rho
                      for n in range(first, first + count)])
    raw = np.clip(schedule.limit + schedule.decay / scale[:, None, None],
                  0.0, 1.0)
    return raw / raw.sum(axis=2, keepdims=True)


@pytest.mark.parametrize("rho", [0.5, 1.0, 2.5])
@pytest.mark.parametrize("first, count", [
    (1, 1), (2, 1), (1, 4000), (123_456, 3), (7, graph_module._PASS_EDGES),
    (7, 16384), (10**9, 5)])
def test_step_matrices_match_reference_bits(rho, first, count):
    # the decays clip entries at 0 (and at 1) for small n, so the in-place
    # clip and normalisation are exercised with and without clipping
    for n, strength in ((2, 0.9), (3, 0.9), (3, 3.0), (4, 0.2)):
        decay = strength * (np.eye(n) - np.full((n, n), 1.0 / n))
        schedule = PerturbationSchedule(flip_matrix(n), DECAYING, decay, rho)
        got = schedule._matrices(first, count)
        want = reference_matrices(schedule, first, count)
        assert got.shape == want.shape == (count, n, n)
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_census_keys_past_int64():
    # six columns up to 2**20 overflow a mixed-radix int64 key, so the
    # census ranks the partial keys on the way
    rng = np.random.default_rng(5)
    degrees = rng.integers(0, 3, size=(4000, 6)) * (2**20 // 2)
    degrees[::7, 0] = 2**20
    counts = {}
    for row in degrees.tolist():
        counts[tuple(row)] = counts.get(tuple(row), 0) + 1
    expected = sorted(counts.items(), key=lambda item: sort_key(item[0]))
    rows, found = _census(degrees)
    assert rows.dtype == np.int32
    assert rows.tolist() == [list(d) for d, _ in expected]
    assert found.tolist() == [c for _, c in expected]


def test_index_dtype_widens_at_two_to_the_31():
    assert _index_dtype(2**31 - 1) == np.int32
    assert _index_dtype(2**31) == np.int64


def test_tv_distance_does_not_depend_on_census_order():
    # tv_distance sums over a set of the degree vectors: the TV of a
    # census must be the same bytes whatever order its rows come in
    schedule = make_schedule(2, None)
    g = new_graph(SeedGraphSpec.default(2))
    run(g, schedule, 2, 3000, 3000, replicate_stream(8, 0), census=False)
    theory_cut = solve_recurrence(schedule.limit, 2, 16).truncated(8)
    cut = empirical_distribution(g).truncated(8)
    order = list(range(len(cut)))

    def tv_bytes(rows):
        shuffled = DegreeDistribution(cut.degrees[rows], cut.values[rows])
        return struct.pack("<d", tv_distance(shuffled, theory_cut, 8))

    expected = tv_bytes(order)
    shuffler = random.Random(0)
    for _ in range(300):
        shuffler.shuffle(order)
        assert tv_bytes(order) == expected
