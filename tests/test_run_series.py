"""Differential tests: `run`'s one growth pass against one `run` call per
snapshot.

`run` grows all its steps at once and reads every snapshot off the grown
pool. It must give what a loop of census-free `run` calls gives, one per
snapshot, each asking for its last step alone, bit for bit: each
snapshot's step, proportions and census (rows, masses and their types),
the final graph, and the state of the generator. Snapshot tallies that do
not add up to the grown graph must raise.
"""
from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest

from mtpa import graph as graph_module
from mtpa.errors import BrokenRun
from mtpa.graph import (GraphSnapshot, PerturbationSchedule, SeedGraphSpec,
                        check_graph_invariants, edge_type_proportions,
                        empirical_distribution, new_graph, run)
from mtpa.harness import replicate_stream
from test_grow import (PASS_STEPS, assert_same_graph, assert_same_stream,
                       make_schedule, seed_spec)

N_STEPS = 300
M = 3


def grow_per_snapshot(graph, schedule, m, n_steps, snapshot_every, rng,
                      census) -> list:
    """`run` as one census-free `run` call per snapshot, each census
    tallied from the graph's pool."""
    def snapshot():
        return GraphSnapshot(graph.step_index, edge_type_proportions(graph),
                             empirical_distribution(graph) if census
                             else None)

    snapshots = [snapshot()]
    done = 0
    while done < n_steps:
        chunk = min(snapshot_every, n_steps - done)
        run(graph, schedule, m, chunk, chunk, rng, census=False)
        done += chunk
        snapshots.append(snapshot())
    return snapshots


def assert_same_snapshots(got, expected):
    assert [(s.n, s.psi) for s in got] == [(s.n, s.psi) for s in expected]
    for a, b in zip(got, expected):
        if b.distribution is None:
            assert a.distribution is None
            continue
        for name in ("degrees", "values"):
            left = getattr(a.distribution, name)
            right = getattr(b.distribution, name)
            assert left.dtype == right.dtype, name
            assert left.shape == right.shape, name
            assert left.tobytes() == right.tobytes(), name
        assert a.distribution.provenance == b.distribution.provenance


@pytest.mark.parametrize("pass_steps", PASS_STEPS)
@pytest.mark.parametrize("rho", [None, 0.5], ids=["constant", "decaying"])
@pytest.mark.parametrize("census", [True, False], ids=["census", "psi"])
@pytest.mark.parametrize("every", [1, 7, 250, N_STEPS, N_STEPS + 1])
def test_run_equals_one_grow_per_snapshot(every, census, rho, pass_steps,
                                          monkeypatch, tmp_path):
    monkeypatch.setattr(graph_module, "_PASS_EDGES", pass_steps * M)
    schedule = make_schedule(3, rho)
    for kind, seed in itertools.product(("default", "gaps"), range(2)):
        spec = seed_spec(kind, 3, tmp_path)
        ref, eng = new_graph(spec), new_graph(spec)
        rng_ref, rng_eng = replicate_stream(seed, 0), replicate_stream(seed, 0)
        expected = grow_per_snapshot(ref, schedule, M, N_STEPS, every,
                                     rng_ref, census)
        got = run(eng, schedule, M, N_STEPS, every, rng_eng, census=census)
        assert len(got) == 1 + -(-N_STEPS // every)
        assert_same_snapshots(got, expected)
        assert_same_graph(ref, eng)
        assert_same_stream(rng_ref, rng_eng)
        assert check_graph_invariants(eng, M) == []


@pytest.mark.parametrize("census", [True, False], ids=["census", "psi"])
def test_run_continues_a_grown_graph(census):
    # the second run starts from a pool it did not grow
    schedule = make_schedule(2, 0.37)
    ref, eng = (new_graph(SeedGraphSpec.default(2)) for _ in range(2))
    rng_ref, rng_eng = replicate_stream(6, 0), replicate_stream(6, 0)
    for steps, every in ((40, 9), (123, 50)):
        expected = grow_per_snapshot(ref, schedule, 2, steps, every, rng_ref,
                                     census)
        got = run(eng, schedule, 2, steps, every, rng_eng, census=census)
        assert_same_snapshots(got, expected)
        assert_same_graph(ref, eng)
    assert_same_stream(rng_ref, rng_eng)


@pytest.mark.parametrize("census", [True, False], ids=["census", "psi"])
def test_run_of_zero_steps_is_the_initial_snapshot(census):
    schedule = make_schedule(3, 0.5)
    ref, eng = (new_graph(SeedGraphSpec.default(3)) for _ in range(2))
    rng_ref, rng_eng = replicate_stream(2, 0), replicate_stream(2, 0)
    expected = grow_per_snapshot(ref, schedule, 2, 0, 5, rng_ref, census)
    got = run(eng, schedule, 2, 0, 5, rng_eng, census=census)
    assert [s.n for s in got] == [0]
    assert_same_snapshots(got, expected)
    assert_same_graph(ref, eng)
    assert_same_stream(rng_ref, rng_eng)


@pytest.mark.parametrize("census", [True, False], ids=["census", "psi"])
@pytest.mark.parametrize("times", [0, 2], ids=["skipped", "doubled"])
def test_a_segment_tallied_other_than_once_raises(times, census,
                                                  monkeypatch):
    # the third snapshot's segment is added to the type counts, and with
    # the census to the table, `times` times instead of once
    tally = graph_module._tally
    segments = []

    def miscount(graph, lo, hi, degrees=None):
        segments.append((lo, hi))
        if len(segments) != 3:
            return tally(graph, lo, hi, degrees)
        return sum((tally(graph, lo, hi, degrees) for _ in range(times)),
                   np.zeros(graph.n_types, np.int64))

    g = new_graph(SeedGraphSpec.default(2))
    monkeypatch.setattr(graph_module, "_tally", miscount)
    with pytest.raises(BrokenRun, match="do not add up"):
        run(g, make_schedule(2, None), 2, 200, 30, replicate_stream(1, 0),
            census=census)
    # one segment per snapshot, the first the seed's, end to end
    assert len(segments) == 8
    assert [lo for lo, _ in segments] == [0] + [hi for _, hi in segments[:-1]]


@pytest.mark.parametrize("census, bound", [(False, 20), (True, 22)],
                         ids=["psi", "census"])
def test_run_memory_is_bounded_per_edge(census, bound):
    # 100k criterion-3 steps with a snapshot every 1000: the traced peak,
    # the graph and the snapshots included, stays near one graph
    spec = seed_spec("parallel", 2, None)
    schedule = PerturbationSchedule(np.array([[0.9, 0.1], [0.1, 0.9]]))
    rng = replicate_stream(0, 0)  # made untraced: it may import numpy.random
    tracemalloc.start()
    try:
        g = new_graph(spec)
        snapshots = run(g, schedule, 2, 100_000, 1000, rng, census=census)
        peak = tracemalloc.get_traced_memory()[1] / g.num_edges
    finally:
        tracemalloc.stop()
    assert g.num_edges == 200_200 and len(snapshots) == 101
    assert peak <= bound, peak
