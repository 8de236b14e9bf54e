"""Deterministic numerics for the asymptotic degree distribution.

Covers the stationary edge-type proportions (Perron left eigenvector of the
perturbation limit), one lattice walk that solves the degree recurrences of
both the perturbed and the non-perturbed dynamics, the exact finite-step
attachment probabilities with their limits, and the elementary binomial
bound used to control the linearization error of those probabilities.
"""
from __future__ import annotations

import itertools
import math
import warnings

import numpy as np

from . import matrices
from .degrees import (Degree, DegreeDistribution, THEORETICAL_PERTURBED,
                      THEORETICAL_UNPERTURBED, compositions_of_weight,
                      degree_dtype, lattice_size)
from .errors import (BadArgs, BadCounts, BadIndexMatrix, BadPsi,
                     CapacityExceeded, NoConvergence)

#: hard cap on enumerated lattice cells before the solver refuses
LATTICE_CAP = 10_000_000

#: weight above which factorial products switch from exact integers to log-gamma
EXACT_FACTORIAL_LIMIT = 20

#: largest layer-total deviation; psi's 1e-12 slack alone moves one by 2e-12
MARGINAL_TOLERANCE = 3e-12


def stationary_type_distribution(type_flip_matrix) -> np.ndarray:
    """Asymptotic edge-type proportions psi, with psi @ F = psi and sum 1.

    For an irreducible row-stochastic F this is the unique stationary
    probability vector of the type-flip chain, i.e. the simplex-normalized
    left Perron eigenvector. One dense linear solve finds it, periodic
    chains included: psi (F - I) = 0 with one equation replaced by sum 1.

    Raises NotStochastic, NotIrreducible, or NoConvergence.
    """
    flip = matrices.as_row_stochastic(type_flip_matrix, what="F")
    matrices.require_irreducible(flip, what="F")
    n = flip.shape[0]
    if np.any((flip == 0.0) | (flip == 1.0)) and n > 1:
        warnings.warn(
            "F has boundary entries (exactly 0 or 1); the proportion limit "
            "was established for entries strictly inside (0, 1)",
            stacklevel=2)
    system = flip.T - np.eye(n)
    system[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        psi = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"direct solve failed: {exc}") from exc
    psi = np.maximum(psi, 0.0)
    psi /= psi.sum()
    residual = float(np.max(np.abs(psi @ flip - psi)))
    if residual > 1e-12:
        raise NoConvergence(f"stationary residual {residual:.3e} exceeds 1e-12")
    return psi


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
        raise BadArgs("m must be at least 1")
    if max_weight < m:
        raise BadArgs(f"max_weight {max_weight} is below m {m}")
    if lattice_size(n, max_weight) > LATTICE_CAP:
        raise CapacityExceeded(
            f"lattice up to weight {max_weight} in {n} types exceeds "
            f"{LATTICE_CAP} cells")


def _compositions(n: int, m: int, max_weight: int):
    """Each weight layer from m up to `max_weight`, as an (n, K) array whose
    columns are the layer's degree vectors in lexicographic order."""
    # parts[p - 1] holds the compositions of the current weight into p parts:
    # those with a zero head come first, then the lighter ones plus e_0
    parts = [np.zeros((p, 1), dtype=np.int64) for p in range(1, n + 1)]
    for s in range(1, max_weight + 1):
        heavier = [np.full((1, 1), s, dtype=np.int64)]
        for lighter in parts[1:]:
            zero_head = np.zeros((1, heavier[-1].shape[1]), dtype=np.int64)
            bumped = lighter.copy()
            bumped[0] += 1
            heavier.append(np.hstack((np.vstack((zero_head, heavier[-1])),
                                      bumped)))
        parts = heavier
        if s >= m:
            yield parts[-1]


def _lex_rank(degrees: np.ndarray, weight: int, binomials: list) -> np.ndarray:
    # position of each column in its weight layer's lexicographic order: at
    # each part, count the vectors that agree before it and are smaller there,
    # with binomials[q][r] = C(r + q, q) vectors of weight r in q + 1 parts
    n = degrees.shape[0]
    rank = np.zeros(degrees.shape[1], dtype=np.int64)
    rest = weight
    for i in range(n - 1):
        table = binomials[n - 1 - i]
        after = rest - degrees[i]
        rank += table[rest] - table[after]
        rest = after
    return rank


def _walk_layers(n: int, m: int, max_weight: int, fresh, coefficient):
    """Masses on the degree lattice, one weight layer at a time.

    Yields (s, degrees, masses) for each weight s from m up to `max_weight`:
    `degrees` is an (n, K) array whose columns are the weight-s vectors in
    lexicographic order, and `masses` a (K, S) array with one column per
    source. Weight-m vectors get `fresh(d)`, a float or S of them. Each
    heavier d gets sum_l coefficient(d - e_l, l) * mass(d - e_l) / (s + 2),
    added over l in order, skipping predecessors of zero mass; `coefficient`
    takes the predecessors as an (n, k) array and returns k rates. Lighter
    vectors have mass zero and are omitted. Whatever the types do, every
    weight-s layer of every source must sum to the single-type closed form
    2m(m+1)/(s(s+1)(s+2)); a deviation past MARGINAL_TOLERANCE raises
    NoConvergence before the layer is yielded.
    """
    binomials = [np.array([math.comb(r + q, q) for r in range(max_weight + 1)],
                          dtype=np.int64) for q in range(n)]
    layers = _compositions(n, m, max_weight)
    degrees = next(layers)
    masses = np.array([fresh(d) for d in zip(*degrees.tolist())],
                      dtype=float).reshape(degrees.shape[1], -1)
    for s in range(m, max_weight + 1):
        denom = s + 2
        if s > m:
            degrees = next(layers)
            acc = np.zeros((degrees.shape[1], masses.shape[1]))
            for l in range(n):
                cells = np.flatnonzero(degrees[l])
                previous = degrees[:, cells]
                previous[l] -= 1
                term = masses[_lex_rank(previous, s - 1, binomials)]
                np.multiply(coefficient(previous, l)[:, None], term, out=term,
                            where=term != 0.0)
                acc[cells] += term
            masses = acc / denom
        total = masses.sum(axis=0)
        marginal = 2.0 * m * (m + 1) / (s * (s + 1) * denom)
        off = np.flatnonzero(~(np.abs(total - marginal) <= MARGINAL_TOLERANCE))
        if off.size:
            raise NoConvergence(f"weight-{s} layer sums to "
                                f"{total[off[0]]:.17g}, not the marginal "
                                f"{marginal:.17g}")
        yield s, degrees, masses


def _walk(n: int, m: int, max_weight: int, fresh, coefficient) -> tuple:
    """The layers of `_walk_layers` one after the other, in `sort_key`
    order: a (K, n) small-int array of degree vectors and the (K, S) array
    of their masses."""
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
    result is then the columns (degrees, mean, std) in `sort_key` order:
    each mass's mean and standard deviation over the columns.
    """
    psi = np.asarray(psi, dtype=float)
    samples = list(psi.T) if psi.ndim == 2 else [psi]
    if psi.ndim not in (1, 2) or not samples:
        raise BadPsi(f"psi of shape {psi.shape} is not one or more "
                     "probability vectors")
    for sample in samples:
        if not np.all(sample >= 0) or not abs(sample.sum() - 1.0) <= 1e-12:
            raise BadPsi(f"psi {sample!r} is not a probability vector")
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
        raise BadCounts(f"counts {counts!r} must be positive integers")
    return rng.dirichlet(np.asarray(counts, dtype=float))


def exact_no_edge_probability(d, num_edges_prev: int, m: int) -> float:
    """Probability that a vertex of degree d gains nothing in one step.

    Each of the m independent endpoint draws misses the vertex with
    probability 1 - weight(d) / (2 |E|), |E| taken before the step.
    """
    d = tuple(d)
    s = sum(d)
    if m < 1 or any(v < 0 for v in d):
        raise BadArgs("need m >= 1 and nonnegative degree entries")
    if s == 0:
        return 1.0
    if num_edges_prev < 1 or 2 * num_edges_prev < s:
        raise BadArgs(
            f"need 2*num_edges_prev >= weight, got {num_edges_prev} vs {s}")
    return (1.0 - s / (2.0 * num_edges_prev)) ** m


def attachment_probability_term(d_prev, assignment, num_edges_prev: int,
                                m: int, type_flip_matrix) -> float:
    """Probability of one specific (initial type -> final type) assignment.

    `assignment[k][l]` counts new edges that landed on the vertex (degree
    `d_prev` before the step) with initial type k flipped to final type l.
    The remaining m - s(assignment) draws all miss the vertex.
    """
    d_prev = tuple(d_prev)
    cell = np.asarray(assignment, dtype=np.int64)
    n = len(d_prev)
    if cell.shape != (n, n) or np.any(cell < 0):
        raise BadIndexMatrix(f"assignment must be {n}x{n} nonnegative integers")
    total_new = int(cell.sum())
    if total_new > m:
        raise BadIndexMatrix(f"assignment places {total_new} edges, step has {m}")
    if any(v < 0 for v in d_prev):
        raise BadArgs("degree entries must be nonnegative")
    s_prev = sum(d_prev)
    if num_edges_prev < 1 or 2 * num_edges_prev < s_prev:
        raise BadArgs("need 2*num_edges_prev >= weight of d_prev")
    flip = np.asarray(type_flip_matrix, dtype=float)
    two_e = 2.0 * num_edges_prev
    value = _cells_product(
        float(math.factorial(m) // math.factorial(m - total_new)),
        cell.tolist(), [v / two_e for v in d_prev], flip)
    return value * (1.0 - s_prev / two_e) ** (m - total_new)


def _cells_product(value: float, assignment, weights, flip) -> float:
    # value * prod over cells c = assignment[k][l] > 0 of
    # (weights[k] * F[k, l])**c / c!, one cell at a time
    n = len(weights)
    for k in range(n):
        for l in range(n):
            c = assignment[k][l]
            if c:
                value /= math.factorial(c)
                value *= (weights[k] * flip[k, l]) ** c
    return value


def _assignments_with_gains(gained) -> list:
    # all nonnegative integer matrices whose column sums equal `gained`
    n = len(gained)
    per_column = [list(compositions_of_weight(g, n)) for g in gained]
    out = []
    for cols in itertools.product(*per_column):
        out.append(tuple(tuple(cols[l][k] for l in range(n)) for k in range(n)))
    return out


def exact_attachment_probability(d_prev, gained, num_edges_prev: int, m: int,
                                 type_flip_matrix) -> float:
    """Probability that a vertex of degree d_prev gains exactly `gained`.

    `gained[l]` counts new incident edges of final type l. Sums the
    single-assignment terms over every way of attributing the gains to
    initial types.
    """
    gained = tuple(int(g) for g in gained)
    if any(g < 0 for g in gained):
        raise BadArgs("gained entries must be nonnegative")
    if sum(gained) > m:
        raise BadArgs(f"cannot gain {sum(gained)} edges in a step of {m}")
    total = 0.0
    for assignment in _assignments_with_gains(gained):
        total += attachment_probability_term(d_prev, assignment,
                                             num_edges_prev, m,
                                             type_flip_matrix)
    return total


def new_vertex_degree_probability(d, m: int, psi, type_flip_matrix) -> float:
    """Probability that a fresh vertex ends the step with degree d.

    Sums over every split of the m edges into (initial type, final type)
    cells; zero unless weight(d) equals m. `psi` supplies the per-type
    initial-assignment law, the matrix the flip law.
    """
    d = tuple(d)
    if sum(d) != m:
        return 0.0
    psi = np.asarray(psi, dtype=float)
    flip = np.asarray(type_flip_matrix, dtype=float)
    total = 0.0
    for assignment in _assignments_with_gains(d):
        total += _cells_product(float(math.factorial(m)), assignment, psi, flip)
    return total


def new_vertex_degree_limit(d, m: int, psi, type_flip_matrix) -> float:
    """Closed form of the fresh-vertex degree law at the proportion limit:
    multinomial in the assignment rates psi @ F."""
    d = tuple(d)
    if sum(d) != m:
        return 0.0
    return _multinomial_pmf(d, np.asarray(psi, dtype=float)
                            @ np.asarray(type_flip_matrix, dtype=float))


def edge_gain_rate_limit(d, l: int, type_flip_matrix) -> float:
    """Limit of n * P(gain exactly one type-l edge), for predecessors of d."""
    d = tuple(d)
    if d[l] < 1:
        raise BadArgs(f"d must have a type-{l + 1} edge to shed")
    flip = np.asarray(type_flip_matrix, dtype=float)
    previous = d[:l] + (d[l] - 1,) + d[l + 1:]
    return float(np.dot(previous, flip[:, l])) / 2.0


def binomial_bound_holds(n: int, x: float) -> bool:
    """Check |(1-x)**n - (1-n*x)| <= C(n, 2) * x**2 at one point.

    Holds for every integer n >= 1 and x in [0, 1]; a tiny relative slack
    absorbs floating-point rounding at equality cases.
    """
    if n < 1 or not 0.0 <= x <= 1.0:
        raise BadArgs("need n >= 1 and x in [0, 1]")
    lhs = abs((1.0 - x) ** n - (1.0 - n * x))
    rhs = math.comb(n, 2) * x * x
    return lhs <= rhs * (1.0 + 1e-12) + 1e-15
