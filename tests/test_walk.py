"""Differential tests: the layer-at-a-time lattice walk against a scalar one.

`scalar_walk` is the cell-by-cell walk the solvers used to run, kept here
as the reference together with both solvers' per-cell callbacks, and
`compositions_of_weight` the recursive lattice enumerator it reads, with
`sort_key`, the degree order it yields. The array walk must give the same
masses bit for bit, in the same dict order, its layers and predecessor
links must be those the enumerator gives, and the batched `study` must
give the same report as one solve per psi sample.
"""
from __future__ import annotations

import itertools
import math
import re

import numpy as np
import pytest

from mtpa import harness, theory
from mtpa.convergence import _assignments_with_gains
from mtpa.errors import NoConvergence, ValidationError
from mtpa.harness import ExperimentConfig, perturbed_vs_unperturbed_study
from mtpa.theory import solve_recurrence, solve_unperturbed_recurrence

TYPES = range(1, 7)
EDGES = (1, 2, 5, 21, 22)  # 21 and 22 take the log-gamma fresh sources
CELL_BUDGET = 6000


# --------------------------------------------------------------------------
# the scalar reference

def sort_key(d) -> tuple:
    """Degree order: by weight, then lexicographic."""
    return (sum(d), d)


def compositions_of_weight(total: int, parts: int):
    """All nonnegative integer vectors of length `parts` summing to `total`,
    in lexicographic order; with an outer loop over increasing `total`, the
    degree lattice in `sort_key` order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions_of_weight(total - head, parts - 1):
            yield (head,) + rest


def scalar_walk(n, m, max_weight, fresh, coefficient) -> dict:
    layers = [list(compositions_of_weight(s, n))
              for s in range(m, max_weight + 1)]
    masses = {d: fresh(d) for d in layers[0]}
    for s, layer in enumerate(layers, m):
        if s > m:
            for d in layer:
                acc = 0.0
                for l in range(n):
                    if d[l]:
                        previous = d[:l] + (d[l] - 1,) + d[l + 1:]
                        prev_mass = masses[previous]
                        if prev_mass:
                            acc += coefficient(previous, l) * prev_mass
                masses[d] = acc / (s + 2)
    return masses


def scalar_solve(flip, m, max_weight) -> dict:
    flip = np.asarray(flip, dtype=float)
    n = flip.shape[0]
    psi = theory.stationary_type_distribution(flip)
    assignment_rates = tuple(float(r) for r in psi @ flip)
    columns = tuple(tuple(float(v) for v in flip[:, l]) for l in range(n))

    def rate(previous, l):
        value = 0.0
        for dk, f_kl in zip(previous, columns[l]):
            if dk:
                value += dk * f_kl
        return value

    return scalar_walk(
        n, m, max_weight,
        lambda d: theory._mass_of_fresh_vertex(d, m, assignment_rates), rate)


def scalar_solve_unperturbed(psi, m, max_weight) -> dict:
    psi = np.asarray(psi, dtype=float)
    return scalar_walk(
        psi.size, m, max_weight,
        lambda d: 2.0 * theory._multinomial_pmf(d, psi) / (m + 2),
        lambda previous, l: previous[l])


# --------------------------------------------------------------------------
# cases

def flip_matrix(n: int) -> np.ndarray:
    """A positive, asymmetric row-stochastic matrix, fixed per size."""
    rows = np.random.default_rng(200 + n).dirichlet(np.ones(n), size=n)
    return 0.5 * rows + 0.5 * np.eye(n) if n > 1 else np.ones((1, 1))


def proportions(n: int) -> np.ndarray:
    return np.random.default_rng(300 + n).dirichlet(np.ones(n))


def max_weight_for(n: int, m: int) -> int:
    # at least one recurrence layer, and as many more as the budget allows
    top = m + 1
    while (top < m + 40 and math.comb(top + 1 + n, n)
           - math.comb(m - 1 + n, n) <= CELL_BUDGET):
        top += 1
    return top


def assert_same(masses: dict, reference: dict) -> None:
    assert list(masses) == list(reference)
    got = np.array(list(masses.values()), dtype=float)
    want = np.array(list(reference.values()), dtype=float)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert all(type(v) is float for v in masses.values())


# --------------------------------------------------------------------------
# the walk

@pytest.mark.parametrize("m", EDGES)
@pytest.mark.parametrize("n", TYPES)
def test_perturbed_walk_matches_scalar(n, m):
    top = max_weight_for(n, m)
    assert_same(solve_recurrence(flip_matrix(n), m, top).masses,
                scalar_solve(flip_matrix(n), m, top))


@pytest.mark.parametrize("m", EDGES)
@pytest.mark.parametrize("n", TYPES)
def test_unperturbed_walk_matches_scalar(n, m):
    top = max_weight_for(n, m)
    assert_same(solve_unperturbed_recurrence(proportions(n), m, top).masses,
                scalar_solve_unperturbed(proportions(n), m, top))


@pytest.mark.parametrize("m", (1, 2, 22))
def test_psi_with_zero_entries_matches_scalar(m):
    for psi in ([0.25, 0.0, 0.75], [0.0, 1.0, 0.0]):
        top = max_weight_for(3, m)
        assert_same(solve_unperturbed_recurrence(psi, m, top).masses,
                    scalar_solve_unperturbed(psi, m, top))


def test_flip_matrix_with_zero_entries_matches_scalar():
    # a cyclic F: every column has zeros, so many rates are sums of zeros
    flip = [[0.0, 0.7, 0.3], [0.0, 0.0, 1.0], [0.6, 0.0, 0.4]]
    with pytest.warns(UserWarning, match="boundary entries"):
        masses = solve_recurrence(flip, 2, 30).masses
    with pytest.warns(UserWarning, match="boundary entries"):
        assert_same(masses, scalar_solve(flip, 2, 30))


def test_thirty_types_match_scalar():
    # a mixed-radix key of radix 5 over 30 parts would pass 2**63
    assert 5 ** 30 >= 2 ** 63
    assert_same(solve_recurrence(flip_matrix(30), 1, 4).masses,
                scalar_solve(flip_matrix(30), 1, 4))
    assert_same(solve_unperturbed_recurrence(proportions(30), 1, 4).masses,
                scalar_solve_unperturbed(proportions(30), 1, 4))


def test_long_single_and_two_type_walks_match_scalar():
    assert_same(solve_recurrence(flip_matrix(2), 3, 150).masses,
                scalar_solve(flip_matrix(2), 3, 150))
    assert_same(solve_unperturbed_recurrence([1.0], 2, 300).masses,
                scalar_solve_unperturbed([1.0], 2, 300))


def unperturbed_sources(samples, m):
    # the sources `solve_unperturbed_recurrence` walks, one per sample
    samples = [np.asarray(p, dtype=float) for p in samples]
    return (lambda d: [2.0 * theory._multinomial_pmf(d, p) / (m + 2)
                       for p in samples],
            lambda previous, l: previous[l])


@pytest.mark.parametrize("n", TYPES)
def test_links_point_at_the_predecessors(n):
    top = max_weight_for(n, 1)
    layers = list(theory._compositions(n, 0, top))
    assert len(layers) == top + 1
    assert (layers[0][1] == -1).all()
    for s, (degrees, links) in enumerate(layers[1:], 1):
        cells = list(zip(*degrees.tolist()))
        assert cells == list(compositions_of_weight(s, n))
        assert links.shape == degrees.shape
        column = {d: j for j, d in enumerate(compositions_of_weight(s - 1, n))}
        for d, link in zip(cells, links.T.tolist()):
            assert link == [column[d[:l] + (d[l] - 1,) + d[l + 1:]] if d[l]
                            else -1 for l in range(n)]
    # a lattice from weight m is the same layers with the same links
    from_two = list(theory._compositions(n, 2, top))
    assert len(from_two) == top - 1
    for (degrees, links), (want_degrees, want_links) in zip(from_two,
                                                             layers[2:]):
        assert np.array_equal(degrees, want_degrees)
        assert np.array_equal(links, want_links)


@pytest.mark.parametrize("n", range(1, 5))
def test_assignments_follow_the_recursive_enumerator(n):
    for gained in (g for s in range(6) for g in compositions_of_weight(s, n)):
        per_column = [list(compositions_of_weight(g, n)) for g in gained]
        want = [tuple(tuple(cols[l][k] for l in range(n)) for k in range(n))
                for cols in itertools.product(*per_column)]
        assert _assignments_with_gains(gained) == want


def test_layers_come_in_sort_key_order():
    for n in TYPES:
        layers = theory._walk_layers(n, 2, 9, *unperturbed_sources(
            [proportions(n)], 2))
        degrees = [d for _, layer, _ in layers for d in zip(*layer.tolist())]
        assert degrees == sorted(degrees, key=sort_key)
        assert len(degrees) == math.comb(9 + n, n) - math.comb(1 + n, n)


def test_each_column_of_a_batched_walk_is_its_own_walk():
    samples = [proportions(3), [0.2, 0.0, 0.8], [1.0, 0.0, 0.0]]
    singles = [solve_unperturbed_recurrence(psi, 2, 20) for psi in samples]
    layers = theory._walk_layers(3, 2, 20, *unperturbed_sources(samples, 2))
    for s, degrees, masses in layers:
        assert masses.shape == (degrees.shape[1], len(samples))
        for column, single in zip(masses.T, singles):
            assert column.tolist() == [single.masses.get(d, 0.0)
                                       for d in zip(*degrees.tolist())]


@pytest.mark.parametrize("count", (2, 5, 64))
def test_batched_solve_is_the_spread_of_single_solves(count):
    samples = np.random.default_rng(count).dirichlet([1.0, 2.0, 3.0], count)
    samples[0] = [0.5, 0.0, 0.5]
    singles = [solve_unperturbed_recurrence(psi, 2, 18).masses
               for psi in samples]
    degrees, mean, std = solve_unperturbed_recurrence(samples.T, 2, 18)
    cells = list(map(tuple, degrees.tolist()))
    assert cells == list(singles[0])
    for d, mu, sigma in zip(cells, mean.tolist(), std.tolist()):
        values = [single[d] for single in singles]
        assert mu.hex() == float(np.mean(values)).hex()
        assert sigma.hex() == float(np.std(values)).hex()


def test_marginal_oracle_names_the_first_failing_sample():
    with pytest.raises(NoConvergence, match="weight-2 layer sums to 0.25,"):
        for _ in theory._walk_layers(
                2, 2, 6, lambda d: [2.0 / 4 / 3, 1.0 / 4 / 3],
                lambda previous, l: previous[l]):
            pass


def test_every_psi_sample_is_validated():
    good = proportions(3)
    for bad in ([0.5, float("nan"), 0.5], [0.5, float("inf"), -0.5],
                [0.6, 0.6, -0.2], [0.2, 0.2, 0.2]):
        with pytest.raises(ValidationError, match="not a probability vector"):
            solve_unperturbed_recurrence(np.array([good, bad]).T, 1, 5)
    for shape, message in (
            ((3, 0), "psi of shape (3, 0) is not one or more probability "
                     "vectors"),
            ((0,), "psi [] is not a probability vector"),
            ((3, 2, 2), "psi of shape (3, 2, 2) is not one or more "
                        "probability vectors")):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            solve_unperturbed_recurrence(np.ones(shape) / 3, 1, 5)


# --------------------------------------------------------------------------
# the batched study

def study_by_loop(cfg, psi_samples) -> harness.StudyReport:
    """The study as it was written: one unperturbed solve per sample."""
    perturbed = solve_recurrence(cfg.f_matrix, cfg.m_edges, cfg.max_weight)
    degrees = [d for d in perturbed.masses if sum(d) <= cfg.cutoff]
    values = {d: [] for d in degrees}
    for psi in psi_samples:
        dist = solve_unperturbed_recurrence(psi, cfg.m_edges, cfg.max_weight)
        for d in degrees:
            values[d].append(dist.masses.get(d, 0.0))
    return harness.StudyReport(
        n_samples=len(psi_samples),
        degrees=np.array(degrees),
        unperturbed_mean=np.array([np.mean(values[d]) for d in degrees]),
        unperturbed_std=np.array([np.std(values[d]) for d in degrees]),
        perturbed=np.array([perturbed.masses.get(d, 0.0) for d in degrees]))


def dirichlet_samples(cfg, count: int) -> list:
    rng = harness.replicate_stream(cfg.master_seed, 0, lane=1)
    counts = cfg.seed_spec().type_counts()
    return [theory.dirichlet_psi_sample(counts, rng) for _ in range(count)]


def assert_same_report(got, want) -> None:
    assert got.n_samples == want.n_samples
    assert got.degrees.tolist() == want.degrees.tolist()
    for name in ("unperturbed_mean", "unperturbed_std", "perturbed"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape == (len(got.degrees),)
        assert a.dtype == np.float64
        assert [x.hex() for x in a.tolist()] == [x.hex() for x in b.tolist()]


@pytest.mark.parametrize("count", (1, 2, 37, 160))
def test_dirichlet_study_equals_a_loop_of_solves(count):
    cfg = ExperimentConfig(model="graph", n_types=3, m_edges=1,
                           f_matrix=[[0.8, 0.1, 0.1], [0.1, 0.8, 0.1],
                                     [0.1, 0.1, 0.8]],
                           max_weight=25, cutoff=9, master_seed=count)
    assert_same_report(perturbed_vs_unperturbed_study(cfg, count),
                       study_by_loop(cfg, dirichlet_samples(cfg, count)))


def test_explicit_psi_study_equals_a_loop_of_solves():
    cfg = ExperimentConfig(model="graph", n_types=2, m_edges=2,
                           f_matrix=[[0.7, 0.3], [0.4, 0.6]],
                           max_weight=30, cutoff=12)
    samples = [[0.5, 0.5], [0.0, 1.0], [0.9, 0.1], (0.3, 0.7)]
    assert_same_report(
        perturbed_vs_unperturbed_study(cfg, 0, psi_samples=samples),
        study_by_loop(cfg, [np.asarray(p, dtype=float) for p in samples]))


def test_study_walks_only_to_the_cutoff(monkeypatch):
    cfg = ExperimentConfig(model="graph", n_types=3, m_edges=1,
                           f_matrix=[[0.8, 0.1, 0.1], [0.1, 0.8, 0.1],
                                     [0.1, 0.1, 0.8]],
                           max_weight=20, cutoff=6)
    walked = []
    walk_layers = theory._walk_layers

    def recording(*args):
        for layer in walk_layers(*args):
            walked.append((layer[0], layer[2].shape[1]))
            yield layer

    monkeypatch.setattr(theory, "_walk_layers", recording)
    study = perturbed_vs_unperturbed_study(cfg, 5)
    # the perturbed solve, then one walk with a column per sample
    assert walked == [(s, 1) for s in range(1, 7)] + [(s, 5) for s in range(1, 7)]
    assert max(sum(d) for d in study.degrees) == 6
    assert len(study.degrees) == math.comb(6 + 3, 3) - 1


def study_to_max_weight(cfg, psi_samples) -> harness.StudyReport:
    """The study walked to max_weight, then cut at the cutoff."""
    perturbed = solve_recurrence(cfg.f_matrix, cfg.m_edges, cfg.max_weight)
    degrees, mean, std = solve_unperturbed_recurrence(
        np.array(psi_samples, dtype=float).T, cfg.m_edges, cfg.max_weight)
    keep = degrees.sum(axis=1) <= cfg.cutoff
    return harness.StudyReport(
        n_samples=len(psi_samples), degrees=degrees[keep],
        unperturbed_mean=mean[keep], unperturbed_std=std[keep],
        perturbed=np.array([perturbed.masses.get(d, 0.0)
                            for d in map(tuple, degrees[keep].tolist())]))


@pytest.mark.parametrize("m, max_weight, cutoff",
                         ((1, 40, 11), (1, 12, 12), (2, 25, 2), (3, 20, 9)))
def test_study_to_the_cutoff_equals_a_walk_to_max_weight(m, max_weight, cutoff):
    cfg = ExperimentConfig(model="graph", n_types=3, m_edges=m,
                           f_matrix=[[0.7, 0.2, 0.1], [0.1, 0.8, 0.1],
                                     [0.2, 0.2, 0.6]],
                           max_weight=max_weight, cutoff=cutoff)
    samples = dirichlet_samples(cfg, 50)
    assert_same_report(
        perturbed_vs_unperturbed_study(cfg, 0, psi_samples=samples),
        study_to_max_weight(cfg, samples))


def test_study_validates_every_explicit_sample():
    cfg = ExperimentConfig(model="graph", n_types=2, m_edges=2,
                           f_matrix=[[0.7, 0.3], [0.4, 0.6]],
                           max_weight=10, cutoff=5)
    for bad, message in (([0.5, float("nan")], "not a probability vector"),
                         ([0.5, 0.5, 0.0], "every psi sample needs 2 entries"),
                         ([1.5, -0.5], "not a probability vector")):
        with pytest.raises(ValidationError, match=message):
            perturbed_vs_unperturbed_study(cfg, 0,
                                           psi_samples=[[0.5, 0.5], bad])
