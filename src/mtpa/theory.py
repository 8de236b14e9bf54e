"""Deterministic numerics for the asymptotic degree distribution.

Covers one lattice walk that solves the degree recurrences of both the
perturbed and the non-perturbed dynamics, and the Dirichlet law of the
non-perturbed proportions. The stationary edge-type proportions they start
from are computed in `matrices` and re-exported here; the exact finite-step
probabilities that only the convergence series read are in `convergence`.
"""
from __future__ import annotations

import math

import numpy as np

from . import matrices
from .degrees import (Degree, DegreeDistribution, THEORETICAL_PERTURBED,
                      THEORETICAL_UNPERTURBED, degree_dtype, lattice_size)
from .errors import NoConvergence, ValidationError
from .matrices import stationary_type_distribution

#: hard cap on enumerated lattice cells before the solver refuses
LATTICE_CAP = 10_000_000

#: weight above which factorial products switch from exact integers to log-gamma
EXACT_FACTORIAL_LIMIT = 20

#: largest layer-total deviation; psi's 1e-12 slack alone moves one by 2e-12
MARGINAL_TOLERANCE = 3e-12


def _mass_of_fresh_vertex(d: Degree, m: int, assignment_rates) -> float:
    # 2*m!/(m+2) * prod_l rate_l**d_l / d_l!; kept apart from
    # 2*_multinomial_pmf/(m+2), which rounds differently
    if m <= EXACT_FACTORIAL_LIMIT:
        value = 2.0 * math.factorial(m) / (m + 2)
        for d_l, rate in zip(d, assignment_rates):
            value *= rate ** d_l / math.factorial(d_l)
        return value
    log_value = math.log(2.0) + math.lgamma(m + 1) - math.log(m + 2)
    for d_l, rate in zip(d, assignment_rates):
        if d_l:
            log_value += d_l * math.log(rate) - math.lgamma(d_l + 1)
    return math.exp(log_value)


def _multinomial_pmf(d: Degree, probabilities) -> float:
    s = sum(d)
    if s <= EXACT_FACTORIAL_LIMIT:
        coeff = math.factorial(s)
        value = float(coeff)
        for d_l, p in zip(d, probabilities):
            value *= p ** d_l / math.factorial(d_l)
        return value
    log_value = math.lgamma(s + 1)
    for d_l, p in zip(d, probabilities):
        if d_l:
            if p == 0.0:
                return 0.0
            log_value += d_l * math.log(p) - math.lgamma(d_l + 1)
    return math.exp(log_value)


def _check_lattice(n: int, m: int, max_weight: int) -> None:
    if m < 1:
        raise ValidationError("m must be at least 1")
    if max_weight < m:
        raise ValidationError(f"d_max {max_weight} is below m {m}")
    if lattice_size(n, max_weight) > LATTICE_CAP:
        raise ValidationError(
            f"lattice up to weight {max_weight} in {n} types exceeds "
            f"{LATTICE_CAP} cells")


def _compositions(n: int, m: int, max_weight: int):
    """Each weight layer from m up to `max_weight`: an (n, K) array whose
    columns are the layer's degree vectors in lexicographic order, and the
    (n, K) array of their predecessor links, whose entry (l, j) is the
    column of d - e_l in the layer below, or -1 where d_l = 0."""
    # parts[p - 1] holds the compositions of the current weight into p parts
    # and their links: those with a zero head come first, with the links of
    # their p - 1 parts, then the lighter ones plus e_0, whose head link is
    # their own column in the lighter layer and whose other links, but -1,
    # move past that layer's zero-head block
    parts = [(np.zeros((p, 1), dtype=np.int64), np.full((p, 1), -1))
             for p in range(1, n + 1)]
    for s in range(max_weight + 1):
        if s:
            heavier = [(np.full((1, 1), s), np.zeros((1, 1), dtype=np.int64))]
            for (lighter, lighter_links), (zero_head, _) in zip(
                    parts[1:], parts):
                head, head_links = heavier[-1]
                k = head.shape[1]
                degrees = np.zeros((lighter.shape[0], k + lighter.shape[1]),
                                   dtype=np.int64)
                links = np.full(degrees.shape, -1)
                degrees[1:, :k], degrees[:, k:] = head, lighter
                degrees[0, k:] += 1
                links[1:, :k] = head_links
                links[0, k:] = np.arange(lighter.shape[1])
                np.add(lighter_links[1:], zero_head.shape[1],
                       out=links[1:, k:], where=lighter_links[1:] >= 0)
                heavier.append((degrees, links))
            parts = heavier
        if s >= m:
            yield parts[-1]


def _walk_layers(n: int, m: int, max_weight: int, fresh, coefficient):
    """Masses on the degree lattice, one weight layer at a time.

    Yields (s, degrees, masses) for each weight s from m up to `max_weight`:
    `degrees` is an (n, K) array whose columns are the weight-s vectors in
    lexicographic order, and `masses` a (K, S) array with one column per
    source. Weight-m vectors get `fresh(d)`, a float or S of them. Each
    heavier d gets sum_l coefficient(d - e_l, l) * mass(d - e_l) / (s + 2),
    added over l in order, skipping predecessors of zero mass; `coefficient`
    takes the K vectors d - e_l as an (n, K) array and returns K rates, of
    which those where d_l = 0, whose entry l is -1, are never read. Lighter
    vectors have mass zero and are omitted. Whatever the types do, every
    weight-s layer of every source must sum to the single-type closed form
    2m(m+1)/(s(s+1)(s+2)); a deviation past MARGINAL_TOLERANCE raises
    NoConvergence before the layer is yielded.
    """
    layers = _compositions(n, m, max_weight)
    degrees, _ = next(layers)
    masses = np.array([fresh(d) for d in zip(*degrees.tolist())],
                      dtype=float).reshape(degrees.shape[1], -1)
    for s in range(m, max_weight + 1):
        denom = s + 2
        if s > m:
            degrees, links = next(layers)
            # a link of -1 reads the appended row of zero mass
            terms = np.vstack((masses, np.zeros((1, masses.shape[1]))))[links]
            # every column's d - e_l, made in place for the call and undone
            previous = degrees.copy()
            for l, term in enumerate(terms):
                previous[l] -= 1
                np.multiply(coefficient(previous, l)[:, None], term, out=term,
                            where=term != 0.0)
                previous[l] += 1
            masses = terms[0]
            for term in terms[1:]:
                masses += term
            masses /= denom
        total = masses.sum(axis=0)
        marginal = 2.0 * m * (m + 1) / (s * (s + 1) * denom)
        off = np.flatnonzero(~(np.abs(total - marginal) <= MARGINAL_TOLERANCE))
        if off.size:
            raise NoConvergence(f"weight-{s} layer sums to "
                                f"{total[off[0]]:.17g}, not the marginal "
                                f"{marginal:.17g}")
        yield s, degrees, masses


def _walk(n: int, m: int, max_weight: int, fresh, coefficient) -> tuple:
    """The layers of `_walk_layers` one after the other, in degree order
    (see `degrees`): a (K, n) small-int array of degree vectors and the
    (K, S) array of their masses."""
    dtype = degree_dtype(max_weight)
    degrees, masses = zip(*((layer_degrees.T.astype(dtype), layer)
                            for _, layer_degrees, layer in _walk_layers(
                                n, m, max_weight, fresh, coefficient)))
    return np.concatenate(degrees), np.concatenate(masses)


def solve_recurrence(type_flip_matrix, m: int,
                     max_weight: int) -> DegreeDistribution:
    """Asymptotic degree distribution of the perturbed dynamics.

    Weight-m vectors get the closed-form mass of a fresh vertex whose m
    edges carry independently assigned-and-flipped types; heavier vectors
    accumulate mass from their predecessors with rate (d - e_l) . F[:, l].
    """
    flip = matrices.as_row_stochastic(type_flip_matrix, what="F")
    n = flip.shape[0]
    _check_lattice(n, m, max_weight)
    psi = stationary_type_distribution(flip)
    assignment_rates = tuple(float(r) for r in psi @ flip)
    columns = [flip[:, l].tolist() for l in range(n)]

    def rate(previous, l):
        # summed over k in order; np.dot would round differently
        value = np.zeros(previous.shape[1])
        for d_k, f_kl in zip(previous, columns[l]):
            value += d_k * f_kl
        return value

    degrees, masses = _walk(
        n, m, max_weight,
        lambda d: _mass_of_fresh_vertex(d, m, assignment_rates), rate)
    return DegreeDistribution(degrees, masses[:, 0], THEORETICAL_PERTURBED)


def solve_unperturbed_recurrence(psi, m: int, max_weight: int):
    """Degree distribution of the non-perturbed dynamics given proportions psi.

    Without perturbation the limiting type proportions are random; this
    solves the recurrence conditionally on a supplied realization, for
    comparison studies against the deterministic perturbed answer. A fresh
    vertex's types are multinomial in psi, and a vertex gains a type-l edge
    at rate (d - e_l)_l.

    `psi` may also be an (N, S) array whose columns are S realizations. The
    rate does not depend on psi, so one walk carries them all, a layer at a
    time, each column's masses equal bit for bit to its own solve. The
    result is then the columns (degrees, mean, std) in degree order:
    each mass's mean and standard deviation over the columns.
    """
    psi = np.asarray(psi, dtype=float)
    samples = list(psi.T) if psi.ndim == 2 else [psi]
    if psi.ndim not in (1, 2) or not samples:
        raise ValidationError(f"psi of shape {psi.shape} is not one or more "
                              "probability vectors")
    for sample in samples:
        if not np.all(sample >= 0) or not abs(sample.sum() - 1.0) <= 1e-12:
            raise ValidationError(f"psi {sample.tolist()} is not a probability vector")
    n = psi.shape[0]
    _check_lattice(n, m, max_weight)
    walk = (n, m, max_weight,
            lambda d: [2.0 * _multinomial_pmf(d, p) / (m + 2) for p in samples],
            lambda previous, l: previous[l])
    degrees, masses = _walk(*walk)
    if psi.ndim == 1:
        return DegreeDistribution(degrees, masses[:, 0],
                                  THEORETICAL_UNPERTURBED)
    return degrees, masses.mean(axis=1), masses.std(axis=1)


def dirichlet_psi_sample(initial_type_counts, rng: np.random.Generator) -> np.ndarray:
    """One Dirichlet sample of the non-perturbed type proportions (tree case).

    Valid when each step adds a single edge; the parameters are the seed
    graph's per-type edge counts.
    """
    counts = list(initial_type_counts)
    if not counts or any((int(c) != c or c < 1) for c in counts):
        raise ValidationError(f"counts {counts!r} must be positive integers")
    return rng.dirichlet(np.asarray(counts, dtype=float))
