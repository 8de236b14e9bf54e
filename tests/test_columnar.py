"""Differential tests of the columnar distribution against row references.

The column writers must write the bytes that formatting one row at a time
with the row template writes, rows in `sort_key` order; the census derived
from the per-vertex degrees must be a `Counter` of the degree rows in that
order.
"""
from __future__ import annotations

import tracemalloc
from collections import Counter

import numpy as np
import pytest

from mtpa import output
from mtpa.degrees import DegreeDistribution, degree_dtype
from mtpa.graph import (GraphSnapshot, PerturbationSchedule, SeedGraphSpec,
                        _census, empirical_distribution, new_graph, run)
from mtpa.harness import replicate_stream
from mtpa.output import write_distribution_csv, write_graph_snapshots
from mtpa.theory import solve_unperturbed_recurrence
from test_walk import sort_key

# 0.1 is where 17 significant digits differ from repr; 5e-324 is subnormal
SPECIAL_MASSES = (0.1, 1.0, 1e-300, 5e-324, 0.0, -0.0, 2.0 / 3.0, 1e300,
                  float("inf"))


def random_distribution(n: int, rows: int, top: int, seed: int,
                        provenance: str = "EMPIRICAL",
                        low: int = 0) -> DegreeDistribution:
    """`rows` distinct degree vectors with entries from `low` up to `top`,
    sorted by `sort_key`, with masses drawn from SPECIAL_MASSES and random
    reals."""
    rng = np.random.default_rng(seed)
    degrees = sorted({tuple(row) for row in
                      rng.integers(low, top + 1, size=(rows, n)).tolist()},
                     key=sort_key)
    values = rng.random(len(degrees))
    special = rng.random(len(degrees)) < 0.5
    values[special] = rng.choice(SPECIAL_MASSES, int(special.sum()))
    return DegreeDistribution(
        np.array(degrees, degree_dtype(top)).reshape(-1, n), values,
        provenance)


def empty_distribution(n: int) -> DegreeDistribution:
    return DegreeDistribution(np.zeros((0, n), np.int8), np.zeros(0))


def reference_distribution_csv(path, dist, n_types):
    """`write_distribution_csv` one row at a time, with its row template."""
    template = "{}," * n_types + "{:.17g},{}\n"
    items = sorted(dist.masses.items(), key=lambda item: sort_key(item[0]))
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join([f"d_{i + 1}" for i in range(n_types)]
                          + ["mass", "provenance"]) + "\n")
        for d, mass in items:
            fh.write(template.format(*d, mass, dist.provenance))


def reference_snapshots_csv(path, snapshots, n_types):
    """The census table of `write_graph_snapshots`, one row at a time."""
    template = "{}," * (n_types + 1) + "{:.17g}\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(["n"] + [f"d_{i + 1}" for i in range(n_types)]
                          + ["mass"]) + "\n")
        for snap in snapshots:
            items = sorted(snap.distribution.masses.items(),
                           key=lambda item: sort_key(item[0]))
            for d, mass in items:
                fh.write(template.format(snap.n, *d, mass))


def distributions(n):
    yield random_distribution(n, 300, 12, seed=n)
    yield random_distribution(n, 300, 1500, seed=10 + n, provenance="X")
    yield empty_distribution(n)


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_distribution_writer_matches_rows(n, chunk, tmp_path, monkeypatch):
    if chunk:
        monkeypatch.setattr(output, "CHUNK_ROWS", chunk)
    for i, dist in enumerate(distributions(n)):
        got = write_distribution_csv(tmp_path / f"got{i}.csv", dist, n)
        reference_distribution_csv(tmp_path / f"want{i}.csv", dist, n)
        assert got.read_bytes() == (tmp_path / f"want{i}.csv").read_bytes()


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_snapshot_writer_matches_rows(n, chunk, tmp_path, monkeypatch):
    if chunk:
        monkeypatch.setattr(output, "CHUNK_ROWS", chunk)
    dists = list(distributions(n))
    snapshots = [GraphSnapshot(step, (1.0 / n,) * n, dist) for step, dist
                 in zip((0, 250, 10**6), (dists[0], dists[2], dists[1]))]
    _, got = write_graph_snapshots(tmp_path, snapshots, n)
    reference_snapshots_csv(tmp_path / "want.csv", snapshots, n)
    assert got.read_bytes() == (tmp_path / "want.csv").read_bytes()


def snapshot_writer_peak(tmp_path, dist, count: int) -> int:
    """The tracemalloc peak of writing `count` snapshots of `dist`, over
    what was allocated before the call."""
    snapshots = [GraphSnapshot(250 * (k + 1), (1.0 / 3,) * 3, dist)
                 for k in range(count)]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        write_graph_snapshots(tmp_path, snapshots, 3)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_snapshot_writer_peak_does_not_grow_with_the_series(tmp_path):
    # one CHUNK_ROWS pass of snapshots against 25 of them, whose
    # whole-series columns alone would take about 4 MB
    dist = random_distribution(3, 2000, 40, seed=7)
    per_pass = output.CHUNK_ROWS // len(dist)
    few = snapshot_writer_peak(tmp_path, dist, per_pass)
    many = snapshot_writer_peak(tmp_path, dist, 25 * per_pass)
    assert many <= 1.1 * few + 64 * 1024, (few, many)


def table_cases(n):
    """Integer columns on both sides of the lookup table's rule (span no
    wider than the chunk's rows): int8 entries from 5 to 12, so min > 0,
    and int16 entries up to 1500 in 9 rows, whose span exceeds the rows,
    which takes the np.unique path."""
    yield random_distribution(n, 300, 12, seed=20 + n, low=5)
    yield random_distribution(n, 9, 1500, seed=30 + n, low=700)


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_integer_columns_by_table_match_rows(n, chunk, tmp_path,
                                             monkeypatch):
    if chunk:
        monkeypatch.setattr(output, "CHUNK_ROWS", chunk)
    dists = list(table_cases(n))
    assert [d.degrees.dtype for d in dists] == [np.int8, np.int16]
    assert dists[0].degrees.min() >= 5
    for i, dist in enumerate(dists):
        got = write_distribution_csv(tmp_path / f"got{i}.csv", dist, n)
        reference_distribution_csv(tmp_path / f"want{i}.csv", dist, n)
        assert got.read_bytes() == (tmp_path / f"want{i}.csv").read_bytes()
    snapshots = [GraphSnapshot(step, (1.0 / n,) * n, dist)
                 for step, dist in zip((3, 10**6), dists)]
    _, got = write_graph_snapshots(tmp_path, snapshots, n)
    reference_snapshots_csv(tmp_path / "want.csv", snapshots, n)
    assert got.read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("column", [
    np.array([5, 9, 5, 7, 12, 6, 5], np.int8),           # min > 0, table
    np.array([-128, 127, 0, -1] * 64, np.int8),          # the whole int8 span
    np.array([0, 1500, 3, 1500, 700], np.int16),         # span > rows
    np.array([2**62, -2**62, 0], np.int64),              # span past int64
    np.repeat(np.arange(0, 12501, 250), 40),             # a sparse n column
    np.array([7], np.int64),
], ids=["int8-min5", "int8-full", "int16-wide", "int64-wide", "n-column",
        "one-row"])
def test_column_text_is_fmt_of_each_entry(column):
    got = output._column_text(column, ",")
    assert got.dtype == object and got.shape == column.shape
    assert got.tolist() == [output.fmt(v) + "," for v in column.tolist()]


def test_solver_zeros_are_written_as_rows(tmp_path):
    # psi with a zero entry gives every vector with that type mass 0.0
    dist = solve_unperturbed_recurrence([0.75, 0.0, 0.25], 2, 14)
    assert 0.0 in dist.masses.values()
    got = write_distribution_csv(tmp_path / "got.csv", dist, 3)
    reference_distribution_csv(tmp_path / "want.csv", dist, 3)
    assert got.read_bytes() == (tmp_path / "want.csv").read_bytes()


def counter_census(degrees: np.ndarray) -> list:
    counts = Counter(map(tuple, degrees.tolist()))
    return sorted(counts.items(), key=lambda item: sort_key(item[0]))


def census_cases():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 6):
        yield rng.integers(0, 6, size=(2000, n))
        yield rng.integers(0, 1200, size=(300, n))
    # six columns up to 2**20 overflow a mixed-radix int64 key
    wide = rng.integers(0, 3, size=(4000, 6)) * (2**20 // 2)
    wide[::7, 0] = 2**20
    yield wide
    # keys just either side of 2**31: the column maxima give an int32 key
    # (2671 * 891**2 < 2**31), and an int64 one that needs no re-rank
    # (2701 * 901**2 > 2**31)
    for top in (890, 900):
        near = rng.integers(0, top + 1, size=(3000, 3))
        near[0] = top
        yield near
    yield np.zeros((0, 3), np.int64)


@pytest.mark.parametrize("degrees", list(census_cases()),
                         ids=lambda d: "x".join(map(str, d.shape)))
def test_census_is_a_counter_of_the_rows(degrees):
    expected = counter_census(degrees)
    rows, counts = _census(degrees)
    assert rows.dtype == degree_dtype(degrees.max(initial=0))
    assert rows.shape == (len(expected), degrees.shape[1])
    assert rows.tolist() == [list(d) for d, _ in expected]
    assert counts.tolist() == [c for _, c in expected]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_empirical_distribution_is_the_counted_census(n):
    flip = 0.7 * np.eye(n) + 0.3 / n
    g = new_graph(SeedGraphSpec.default(n))
    run(g, PerturbationSchedule(flip), 3, 2000, 2000, replicate_stream(n, 0),
        census=False)
    dist = empirical_distribution(g)
    expected = counter_census(g.per_vertex_degree)
    assert list(dist.masses) == [d for d, _ in expected]
    assert list(dist.masses.values()) == [c / float(g.num_vertices)
                                          for _, c in expected]
