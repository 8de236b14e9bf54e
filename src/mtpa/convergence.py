"""Convergence diagnostics: the per-snapshot series of `diagnose`, and the
exact finite-step attachment probabilities and limits they read.

Only `diagnose` loads this module. Its series simulate each replicate
through `harness.simulate`, which loads the simulator of the config's model
alone, so this module imports neither `graph` nor `urn`.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import partial

import numpy as np

from .config import GRAPH, ExperimentConfig, comparison_cutoff, snapshot_steps
from .errors import ValidationError
from .harness import map_replicates, psi_error, simulate, tv_distance
from .theory import (_compositions, solve_recurrence,
                     stationary_type_distribution)


def exact_no_edge_probability(d, num_edges_prev: int, m: int) -> float:
    """Probability that a vertex of degree d gains nothing in one step.

    Each of the m independent endpoint draws misses the vertex with
    probability 1 - weight(d) / (2 |E|), |E| taken before the step.
    """
    d = tuple(d)
    s = sum(d)
    if m < 1 or any(v < 0 for v in d):
        raise ValidationError("need m >= 1 and nonnegative degree entries")
    if s == 0:
        return 1.0
    if num_edges_prev < 1 or 2 * num_edges_prev < s:
        raise ValidationError(
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
        raise ValidationError(f"assignment must be {n}x{n} nonnegative integers")
    total_new = int(cell.sum())
    if total_new > m:
        raise ValidationError(f"assignment places {total_new} edges, step has {m}")
    if any(v < 0 for v in d_prev):
        raise ValidationError("degree entries must be nonnegative")
    s_prev = sum(d_prev)
    if num_edges_prev < 1 or 2 * num_edges_prev < s_prev:
        raise ValidationError("need 2*num_edges_prev >= weight of d_prev")
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
    # all nonnegative integer matrices whose column sums equal `gained`,
    # each column's splits in lexicographic order
    n = len(gained)
    layers = [list(zip(*degrees.tolist()))
              for degrees, _ in _compositions(n, 0, max(gained))]
    per_column = [layers[g] for g in gained]
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
        raise ValidationError("gained entries must be nonnegative")
    if sum(gained) > m:
        raise ValidationError(f"cannot gain {sum(gained)} edges in a step of {m}")
    total = 0.0
    for assignment in _assignments_with_gains(gained):
        total += attachment_probability_term(d_prev, assignment,
                                             num_edges_prev, m,
                                             type_flip_matrix)
    return total


def edge_gain_rate_limit(d, l: int, type_flip_matrix) -> float:
    """Limit of n * P(gain exactly one type-l edge), for predecessors of d."""
    d = tuple(d)
    if d[l] < 1:
        raise ValidationError(f"d must have a type-{l + 1} edge to shed")
    flip = np.asarray(type_flip_matrix, dtype=float)
    previous = d[:l] + (d[l] - 1,) + d[l + 1:]
    return float(np.dot(previous, flip[:, l])) / 2.0


def _series_replicate(cfg: ExperimentConfig, index: int, theory=None) -> list:
    """(n, proportions) per snapshot of one replicate, or (n, TV to
    `theory`) when a theoretical distribution is given."""
    _, snaps = simulate(cfg, index, cfg.snapshot_every,
                        census=theory is not None)
    if theory is None:
        return [(s.n, s.psi) for s in snaps]
    return [(s.n, tv_distance(s.distribution, theory, cfg.cutoff))
            for s in snaps]


def _analytic_grid(cfg: ExperimentConfig, name: str, weight: int) -> list:
    """(n, modelled edge count before step n) on the snapshot grid, step 0
    read as step 1, at the steps whose edges can hold a degree of
    `weight`: the exact probabilities need 2 * edges >= weight."""
    initial_edges = sum(cfg.seed_spec().type_counts())
    grid = [(n, initial_edges + cfg.m_edges * (n - 1))
            for n in sorted({max(n, 1) for n in snapshot_steps(
                cfg.n_steps, cfg.snapshot_every)})]
    held = [(n, edges) for n, edges in grid if 2 * edges >= weight]
    if not held:
        n, edges = grid[-1]
        raise ValidationError(f"the {name} series reads a degree of weight "
                              f"{weight}, but the {edges} edges before step "
                              f"{n}, the last, hold at most weight "
                              f"{2 * edges}")
    return held


# quantity -> the targets its series reads
SERIES_TARGETS = {"psi": (), "tv": (), "u_n": ("degree",),
                  "np_el": ("degree", "type")}


def convergence_series(cfg: ExperimentConfig, quantity: str, *,
                       degree=None, type_index: int | None = None):
    """Per-snapshot series of a convergence diagnostic with its limit.

    PSI and TV are simulated per replicate; U_N and NP_EL are analytic in
    the modelled edge count initial_edges + m*(n-1). Returns (header, rows).
    Each quantity takes exactly the targets it reads; `type_index` counts
    from 0, but messages count types from 1, as the CLI's --l does. The
    degree a series reads (d, or d - e_l for NP_EL) must be one a vertex
    can hold: degrees only grow, so every vertex weighs at least the lesser
    of m and the lightest seed vertex's degree. U_N and NP_EL skip the
    snapshot steps whose modelled edges cannot hold its weight yet, and
    need at least one that can.
    """
    name = quantity.strip().lower()
    if name not in SERIES_TARGETS:
        raise ValidationError(f"unknown quantity {quantity!r}")
    if name != "psi" and cfg.model != GRAPH:
        raise ValidationError(f"{name} series requires the graph model")
    for target, value in (("degree", degree), ("type", type_index)):
        if (value is None) == (target in SERIES_TARGETS[name]):
            raise ValidationError(f"the {name} series "
                                  f"{'needs' if value is None else 'reads no'} "
                                  f"target {target}")
    if degree is not None:
        degree = tuple(int(v) for v in degree)
        if len(degree) != cfg.n_types:
            raise ValidationError(f"target degree has {len(degree)} entries for "
                                  f"{cfg.n_types} types")
    if type_index is not None and not 0 <= type_index < cfg.n_types:
        raise ValidationError(f"target type {type_index + 1} is not one of "
                              f"1..{cfg.n_types}")
    if degree is not None:
        weight = sum(degree) - (type_index is not None)
        seed = Counter(v for a, b, _ in cfg.seed_spec().edges for v in (a, b))
        lightest = min(cfg.m_edges, *seed.values())
        if weight < lightest:
            raise ValidationError(f"the {name} series reads a degree of weight "
                                  f"{weight}, but no vertex weighs less than "
                                  f"{lightest}")
    if name == "psi":
        psi_ref = stationary_type_distribution(cfg.f_matrix)
        header = (["replicate", "n"]
                  + [f"psi_{l + 1}" for l in range(cfg.n_types)]
                  + ["max_abs_error"])
        rows = []
        series = map_replicates(cfg, partial(_series_replicate, cfg))
        for r, snapshots in enumerate(series):
            for n, psi in snapshots:
                rows.append((r, n) + tuple(psi) + (psi_error(psi, psi_ref),))
        return header, rows

    if name == "tv":
        theory = solve_recurrence(cfg.f_matrix, cfg.m_edges,
                                  comparison_cutoff(cfg))
        series = map_replicates(
            cfg, partial(_series_replicate, cfg, theory=theory))
        return ["replicate", "n", "tv"], [(r,) + row for r, rows in
                                          enumerate(series) for row in rows]

    if name == "u_n":
        limit = sum(degree) / 2.0
        header = ["n", "u_n", "limit", "abs_error"]
        rows = []
        for n, edges_prev in _analytic_grid(cfg, name, weight):
            value = n * (1.0 - exact_no_edge_probability(degree, edges_prev,
                                                         cfg.m_edges))
            rows.append((n, value, limit, abs(value - limit)))
        return header, rows

    # np_el
    d, l = degree, type_index
    schedule = cfg.schedule()
    limit = edge_gain_rate_limit(d, l, schedule.limit)
    previous = d[:l] + (d[l] - 1,) + d[l + 1:]
    unit = tuple(1 if k == l else 0 for k in range(len(d)))
    header = ["n", "n_times_p", "limit", "abs_error"]
    rows = []
    for n, edges_prev in _analytic_grid(cfg, name, weight):
        value = n * exact_attachment_probability(
            previous, unit, edges_prev, cfg.m_edges,
            schedule.matrix_at(n))
        rows.append((n, value, limit, abs(value - limit)))
    return header, rows
