"""Monte Carlo orchestration: replicates, comparisons, convergence series.

Replicates are independent simulations whose generators are derived from
(master_seed, replicate_index), so reports are reproducible and do not
depend on execution order. MTPA_THREADS caps process-level parallelism
(unset or 1 = serial, 0 = all cores); any other non-integer or negative
value is an error.
"""
from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import matrices
from .degrees import DegreeDistribution, aligned
from .errors import (BadArgs, BadPsi, BadQuantity, NotStochastic,
                     ValidationError)
from .graph import (CONSTANT, DECAYING, PerturbationSchedule, SeedGraphSpec,
                    check_graph_invariants, edge_type_proportions,
                    empirical_distribution, grow, new_graph, run)
from .theory import (dirichlet_psi_sample, exact_attachment_probability,
                     edge_gain_rate_limit, exact_no_edge_probability,
                     solve_recurrence, solve_unperturbed_recurrence,
                     stationary_type_distribution)
from .urn import (bernoulli_column_sampler, check_urn_invariants, new_urn,
                  run_urn)

GRAPH = "graph"
URN = "urn"


def replicate_stream(master_seed: int, index: int, lane: int = 0) -> np.random.Generator:
    """Independent generator keyed by (master seed, replicate index)."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(lane, index))
    return np.random.Generator(np.random.PCG64(seq))


def max_workers(replicates: int) -> int:
    raw = os.environ.get("MTPA_THREADS", "1")
    try:
        requested = int(raw)
    except ValueError:
        requested = -1
    if requested < 0:
        raise ValidationError(
            f"MTPA_THREADS must be a nonnegative integer, got {raw!r}")
    if requested == 0:
        requested = os.cpu_count() or 1
    return max(1, min(requested, replicates))


@dataclass
class ExperimentConfig:
    """Parameters of one experiment, and the one place that holds every
    default and range check, for config-file and flag values alike."""

    n_types: int
    model: str = GRAPH
    m_edges: int = 1
    f_matrix: np.ndarray | None = None    # None -> identity when n_types == 1
    schedule_kind: str = CONSTANT
    decay_matrix: np.ndarray | None = None
    decay_rho: float | None = None        # None -> 1.0 when decaying
    seed_edges: list | None = None        # None -> default seed graph
    initial_composition: list | None = None  # None -> seed type counts
    n_steps: int = 10_000
    snapshot_every: int = 1_000
    replicates: int = 1
    master_seed: int = 0
    max_weight: int | None = None         # d_max; None -> max(30, m+10)
    cutoff: int | None = None             # comparison weight K; None -> m+10
    tv_tolerance: float = 0.02
    psi_tolerance: float = 0.02
    pass_fraction: float = 0.95

    def __post_init__(self):
        if self.model not in (GRAPH, URN):
            raise ValidationError(
                f"model must be {GRAPH} or {URN}, got {self.model!r}")
        for name, value, low in (("types", self.n_types, 1),
                                 ("edges_per_step", self.m_edges, 1),
                                 ("steps", self.n_steps, 0),
                                 ("snapshot_every", self.snapshot_every, 1),
                                 ("replicates", self.replicates, 1),
                                 ("master_seed", self.master_seed, 0)):
            if value < low:
                raise ValidationError(f"{name} must be >= {low}, got {value}")
        for name in ("tv_tolerance", "psi_tolerance", "pass_fraction"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        if self.f_matrix is None:
            if self.n_types != 1:
                raise ValidationError("f is required when types > 1 "
                                      "(model.f, --f or --f-file)")
            self.f_matrix = [[1.0]]
        try:
            self.f_matrix = matrices.as_row_stochastic(self.f_matrix, what="f")
        except NotStochastic as exc:
            raise ValidationError(str(exc)) from exc
        if len(self.f_matrix) != self.n_types:
            raise ValidationError(
                f"f has {len(self.f_matrix)} rows for {self.n_types} types")
        if self.schedule_kind not in (CONSTANT, DECAYING):
            raise ValidationError(
                f"unknown schedule kind {self.schedule_kind!r}")
        if self.model == URN and self.schedule_kind != CONSTANT:
            raise ValidationError(
                "the urn model has no step-dependent columns; "
                f"schedule must be {CONSTANT}, got {self.schedule_kind!r}")
        if self.schedule_kind == CONSTANT:
            for key, value in (("decay", self.decay_matrix),
                               ("decay_rho", self.decay_rho)):
                if value is not None:
                    raise ValidationError(
                        f"{key} is set but the schedule is {CONSTANT}; only "
                        f"a {DECAYING} schedule reads it")
        elif self.decay_rho is None:
            self.decay_rho = 1.0
        if self.max_weight is None:
            self.max_weight = max(30, self.m_edges + 10)
        if self.cutoff is None:
            self.cutoff = self.m_edges + 10
        if self.max_weight < self.m_edges:
            raise ValidationError(
                f"max_weight {self.max_weight} is below m {self.m_edges}")
        if self.cutoff < self.m_edges:
            raise ValidationError(
                f"cutoff {self.cutoff} is below m {self.m_edges}; no vertex "
                "weighs less than m, so the comparison would be empty")
        if self.cutoff > self.max_weight:
            raise ValidationError(
                f"cutoff {self.cutoff} exceeds max_weight {self.max_weight}")

    def schedule(self) -> PerturbationSchedule:
        return PerturbationSchedule(self.f_matrix, self.schedule_kind,
                                    self.decay_matrix, self.decay_rho)

    def seed_spec(self) -> SeedGraphSpec:
        if self.seed_edges is None:
            return SeedGraphSpec.default(self.n_types)
        return SeedGraphSpec(self.n_types, list(self.seed_edges))

    def urn_composition(self) -> list:
        if self.initial_composition is not None:
            return list(self.initial_composition)
        return self.seed_spec().type_counts()

    def resolved(self) -> dict:
        """JSON-friendly dict of every field (for manifests)."""
        out = {}
        for name, value in self.__dict__.items():
            if isinstance(value, np.ndarray):
                out[name] = [float(v) for v in value.ravel()]
            elif isinstance(value, list):
                out[name] = [list(v) if isinstance(v, tuple) else v for v in value]
            else:
                out[name] = value
        return out


def tv_distance(p: DegreeDistribution, q: DegreeDistribution,
                cutoff: int) -> float:
    """Half the L1 distance over the rows of weight at most `cutoff` of
    either side, correctly rounded: fsum adds each max(p, q) - min(p, q)
    exactly, so no row order can change the result."""
    _, (a, b) = aligned((p, q), cutoff)
    return 0.5 * math.fsum(np.concatenate((np.maximum(a, b),
                                           -np.minimum(a, b))).tolist())


@dataclass
class ReplicateResult:
    index: int
    tv: float | None
    psi: tuple
    psi_error: float
    violations: list


@dataclass
class ComparisonReport:
    """Aggregated empirical-vs-theoretical comparison across replicates."""

    model: str
    replicates: list                 # ReplicateResult, by index
    psi_reference: tuple
    mean_tv: float | None            # graph model only
    tv_passed: bool | None           # graph model only
    psi_ok: int                      # replicates with psi within tolerance
    psi_passed: bool
    unaccounted_theory_mass: float | None
    # graph model only: (degrees, mean empirical mass, theoretical mass)
    # over the rows of weight <= cutoff of the theory or any replicate
    per_degree_errors: tuple | None
    tv_tolerance: float
    psi_tolerance: float
    pass_fraction: float
    cutoff: int
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary_lines(self) -> list:
        """The report as text, with the verdicts `run_experiment` reached."""
        verdict = {True: "PASS", False: "FAIL"}
        lines = [f"model: {self.model}",
                 f"replicates: {len(self.replicates)}"]
        if self.mean_tv is not None:
            lines.append(
                f"mean TV distance (cutoff {self.cutoff}): {self.mean_tv:.6f} "
                f"(tolerance {self.tv_tolerance:g}): "
                f"{verdict[self.tv_passed]}")
            lines.append(
                "unaccounted theoretical mass beyond cutoff: "
                f"{self.unaccounted_theory_mass:.6f}")
        lines.append(
            f"psi within {self.psi_tolerance:g}: "
            f"{self.psi_ok}/{len(self.replicates)} "
            f"(required fraction {self.pass_fraction:g}): "
            f"{verdict[self.psi_passed]}")
        violations = [v for r in self.replicates for v in r.violations]
        lines.append("conservation checks: " + verdict[not violations])
        for v in violations:
            lines.append(f"  violation: {v}")
        lines.append("overall: " + verdict[self.passed])
        return lines


def _graph_replicate(cfg: ExperimentConfig, index: int):
    rng = replicate_stream(cfg.master_seed, index)
    graph = new_graph(cfg.seed_spec())
    grow(graph, cfg.schedule(), cfg.m_edges, cfg.n_steps, rng)
    violations = check_graph_invariants(graph, cfg.m_edges)
    truncated = empirical_distribution(graph).truncated(cfg.cutoff)
    return ReplicateResult(index, None, edge_type_proportions(graph), 0.0,
                           violations), truncated


def _urn_replicate(cfg: ExperimentConfig, index: int):
    rng = replicate_stream(cfg.master_seed, index)
    sampler = bernoulli_column_sampler(cfg.f_matrix)
    urn = new_urn(cfg.urn_composition(), cfg.m_edges, sampler)
    run_urn(urn, sampler, cfg.n_steps, cfg.snapshot_every, rng)
    violations = check_urn_invariants(urn)
    return ReplicateResult(index, None, urn.fractions(), 0.0, violations), None


def _map_replicates(cfg: ExperimentConfig, task) -> list:
    """`task(index)` for every replicate index, in index order; `task` must
    pickle, so it is a module-level function or a partial of one."""
    indices = range(cfg.replicates)
    workers = max_workers(cfg.replicates)
    if workers == 1:
        return [task(r) for r in indices]
    # imported here: it loads multiprocessing, which serial runs never use
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task, indices))


def run_experiment(cfg: ExperimentConfig) -> ComparisonReport:
    """Run all replicates and compare against the deterministic reference.

    Tolerance failures are recorded in the report, not raised.
    """
    psi_ref = stationary_type_distribution(cfg.f_matrix)
    replicate = _graph_replicate if cfg.model == GRAPH else _urn_replicate
    raw = _map_replicates(cfg, partial(replicate, cfg))
    results = [result for result, _ in raw]
    for result in results:
        result.psi_error = float(np.max(np.abs(
            np.asarray(result.psi) - psi_ref)))

    failures = []
    unaccounted = None
    per_degree = None
    mean_tv = tv_passed = None
    if cfg.model == GRAPH:
        theory = solve_recurrence(cfg.f_matrix, cfg.m_edges, cfg.max_weight)
        theory_cut = theory.truncated(cfg.cutoff)
        unaccounted = 1.0 - theory_cut.total()
        for result, truncated in raw:
            result.tv = tv_distance(truncated, theory_cut, cfg.cutoff)
        degrees, (theoretical, *empirical) = aligned(
            [theory_cut] + [truncated for _, truncated in raw], cfg.cutoff)
        # summed replicate by replicate, in index order
        per_degree = (degrees, sum(empirical) / len(results), theoretical)
        mean_tv = float(np.mean([r.tv for r in results]))
        tv_passed = mean_tv <= cfg.tv_tolerance
        if not tv_passed:
            failures.append(
                f"mean TV {mean_tv:.6f} exceeds {cfg.tv_tolerance:g}")

    ok = sum(1 for r in results if r.psi_error <= cfg.psi_tolerance)
    psi_passed = ok / len(results) >= cfg.pass_fraction
    if not psi_passed:
        failures.append(
            f"only {ok}/{len(results)} replicates have terminal proportions "
            f"within {cfg.psi_tolerance:g}")
    violations = [v for r in results for v in r.violations]
    if violations:
        failures.append(f"{len(violations)} conservation violations")

    return ComparisonReport(
        model=cfg.model,
        replicates=results,
        psi_reference=tuple(float(v) for v in psi_ref),
        mean_tv=mean_tv,
        tv_passed=tv_passed,
        psi_ok=ok,
        psi_passed=psi_passed,
        unaccounted_theory_mass=unaccounted,
        per_degree_errors=per_degree,
        tv_tolerance=cfg.tv_tolerance,
        psi_tolerance=cfg.psi_tolerance,
        pass_fraction=cfg.pass_fraction,
        cutoff=cfg.cutoff,
        failures=failures,
    )


def _series_replicate(cfg: ExperimentConfig, index: int, theory=None) -> list:
    """(n, proportions) per snapshot of one replicate, or (n, TV to
    `theory`) when a theoretical distribution is given."""
    rng = replicate_stream(cfg.master_seed, index)
    if cfg.model == URN:
        sampler = bernoulli_column_sampler(cfg.f_matrix)
        urn = new_urn(cfg.urn_composition(), cfg.m_edges, sampler)
        snaps = run_urn(urn, sampler, cfg.n_steps, cfg.snapshot_every, rng)
        return [(s.n, s.fractions) for s in snaps]
    graph = new_graph(cfg.seed_spec())
    snaps = run(graph, cfg.schedule(), cfg.m_edges, cfg.n_steps,
                cfg.snapshot_every, rng)
    if theory is None:
        return [(s.n, s.psi) for s in snaps]
    return [(s.n, tv_distance(s.distribution, theory, cfg.cutoff))
            for s in snaps]


def _analytic_grid(cfg: ExperimentConfig) -> list:
    """(n, modelled edge count before step n) on the snapshot grid."""
    initial_edges = sum(cfg.seed_spec().type_counts())
    grid = sorted({1, cfg.n_steps}
                  | {k for k in range(cfg.snapshot_every, cfg.n_steps + 1,
                                      cfg.snapshot_every)})
    return [(n, initial_edges + cfg.m_edges * (n - 1)) for n in grid if n >= 1]


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
    of m and the lightest seed vertex's degree.
    """
    name = quantity.strip().lower()
    if name not in SERIES_TARGETS:
        raise BadQuantity(f"unknown quantity {quantity!r}")
    for target, value in (("degree", degree), ("type", type_index)):
        if (value is None) == (target in SERIES_TARGETS[name]):
            raise BadArgs(f"the {name} series "
                          f"{'needs' if value is None else 'reads no'} "
                          f"target {target}")
    if degree is not None:
        degree = tuple(int(v) for v in degree)
        if len(degree) != cfg.n_types:
            raise BadArgs(f"target degree has {len(degree)} entries for "
                          f"{cfg.n_types} types")
    if type_index is not None and not 0 <= type_index < cfg.n_types:
        raise BadArgs(f"target type {type_index + 1} is not one of "
                      f"1..{cfg.n_types}")
    if degree is not None:
        weight = sum(degree) - (type_index is not None)
        seed = Counter(v for a, b, _ in cfg.seed_spec().edges for v in (a, b))
        lightest = min(cfg.m_edges, *seed.values())
        if weight < lightest:
            raise BadArgs(f"the {name} series reads a degree of weight "
                          f"{weight}, but no vertex weighs less than "
                          f"{lightest}")
    if name == "psi":
        psi_ref = stationary_type_distribution(cfg.f_matrix)
        header = (["replicate", "n"]
                  + [f"psi_{l + 1}" for l in range(cfg.n_types)]
                  + ["max_abs_error"])
        rows = []
        series = _map_replicates(cfg, partial(_series_replicate, cfg))
        for r, snapshots in enumerate(series):
            for n, psi in snapshots:
                err = max(abs(a - b) for a, b in zip(psi, psi_ref))
                rows.append((r, n) + tuple(psi) + (err,))
        return header, rows

    if name == "tv":
        if cfg.model != GRAPH:
            raise BadQuantity("tv series requires the graph model")
        theory = solve_recurrence(cfg.f_matrix, cfg.m_edges, cfg.max_weight)
        series = _map_replicates(
            cfg, partial(_series_replicate, cfg, theory=theory))
        return ["replicate", "n", "tv"], [(r,) + row for r, rows in
                                          enumerate(series) for row in rows]

    if name == "u_n":
        limit = sum(degree) / 2.0
        header = ["n", "u_n", "limit", "abs_error"]
        rows = []
        for n, edges_prev in _analytic_grid(cfg):
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
    for n, edges_prev in _analytic_grid(cfg):
        value = n * exact_attachment_probability(
            previous, unit, edges_prev, cfg.m_edges,
            schedule.matrix_at(n))
        rows.append((n, value, limit, abs(value - limit)))
    return header, rows


@dataclass(eq=False)
class StudyReport:
    """Spread of the conditional non-perturbed answer vs the perturbed one,
    as columns over the (K, N) `degrees` in `sort_key` order."""

    n_samples: int
    degrees: np.ndarray
    unperturbed_mean: np.ndarray
    unperturbed_std: np.ndarray
    perturbed: np.ndarray


def perturbed_vs_unperturbed_study(cfg: ExperimentConfig, n_psi_samples: int,
                                   psi_samples=None) -> StudyReport:
    """Contrast the deterministic perturbed masses with the random
    non-perturbed ones across sampled type proportions.

    Without explicit `psi_samples` the proportions are Dirichlet with the
    seed graph's per-type edge counts, which is the tree case and therefore
    requires one edge per step.
    """
    if psi_samples is None:
        if cfg.m_edges != 1:
            raise BadArgs("Dirichlet proportions only apply when each step "
                          "adds a single edge; pass psi_samples explicitly")
        rng = replicate_stream(cfg.master_seed, 0, lane=1)
        counts = cfg.seed_spec().type_counts()
        psi_samples = [dirichlet_psi_sample(counts, rng)
                       for _ in range(n_psi_samples)]
    if not len(psi_samples):
        raise BadArgs("need at least one psi sample")
    if any(np.shape(psi) != (cfg.n_types,) for psi in psi_samples):
        raise BadPsi(f"every psi sample needs {cfg.n_types} entries")

    # a weight layer depends only on lighter ones, so both walks stop at
    # the cutoff, with the same rows; one walk carries every sample
    perturbed = solve_recurrence(cfg.f_matrix, cfg.m_edges, cfg.cutoff)
    degrees, mean, std = solve_unperturbed_recurrence(
        np.array(psi_samples, dtype=float).T, cfg.m_edges, cfg.cutoff)
    return StudyReport(
        n_samples=len(psi_samples),
        degrees=degrees,
        unperturbed_mean=mean,
        unperturbed_std=std,
        perturbed=perturbed.values,
    )
