"""Monte Carlo orchestration: replicates, comparisons, and the contrast
study of the perturbed and the non-perturbed limits.

Replicates are independent simulations whose generators are derived from
(master_seed, replicate_index), so reports are reproducible and do not
depend on execution order. MTPA_THREADS caps process-level parallelism
(unset or 1 = serial, 0 = one worker per CPU this process may run on, as
`taskset` or a cpuset allows); any other non-integer or negative value is
an error. `simulate` runs every replicate of both models: `compare` asks it
for the final graph or urn alone, and `diagnose`'s series (in
`convergence`) for every snapshot.

A command loads only the layers its model runs: `graph`, `urn` and
`theory` are each imported when this module first reads one of their
functions (see `mtpa.LAZY`), so an urn `compare` or `diagnose` never loads
`graph`, an urn `compare` never loads the lattice solver, and `study` never
loads a simulator.
"""
from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from . import lazy
from .config import (GRAPH, ExperimentConfig, comparison_cutoff,
                     replicate_stream)
from .errors import ValidationError
from .matrices import stationary_type_distribution

if TYPE_CHECKING:
    from .degrees import DegreeDistribution

# every `graph`, `urn` and `theory` function this module calls is read
# through `_this`, this module, so a replacement set on the module is what
# runs, in pool workers too; `__getattr__` imports the function's module
# when it is first read
__getattr__, _load = lazy(globals())
_this = sys.modules[__name__]


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
        requested = (len(os.sched_getaffinity(0))
                     if hasattr(os, "sched_getaffinity")
                     else os.cpu_count() or 1)
    return max(1, min(requested, replicates))


def tv_distance(p: DegreeDistribution, q: DegreeDistribution,
                cutoff: int) -> float:
    """Half the L1 distance over the rows of weight at most `cutoff` of
    either side, correctly rounded: fsum adds each max(p, q) - min(p, q)
    exactly, so no row order can change the result."""
    from .degrees import aligned

    _, (a, b) = aligned((p, q), cutoff)
    return _half_l1(a, b)


def _half_l1(a: np.ndarray, b: np.ndarray) -> float:
    """Half the L1 distance of two aligned mass columns, correctly rounded;
    a row where both are 0.0 adds 0.0 and -0.0, which leave it unchanged."""
    return 0.5 * math.fsum(np.concatenate((np.maximum(a, b),
                                           -np.minimum(a, b))).tolist())


def psi_error(psi, psi_ref) -> float:
    """The largest absolute difference between the type proportions `psi`
    and the stationary `psi_ref`."""
    return float(np.max(np.abs(np.asarray(psi) - psi_ref)))


@dataclass
class ReplicateResult:
    index: int
    tv: float | None
    psi: tuple
    psi_error: float
    violations: list


@dataclass
class ComparisonReport:
    """Aggregated empirical-vs-theoretical comparison across replicates of
    `cfg`, whose tolerances the stored verdicts were reached under."""

    cfg: ExperimentConfig
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

    @property
    def passed(self) -> bool:
        # tv_passed is None for the urn model, which has no TV verdict
        return (self.tv_passed is not False and self.psi_passed
                and not any(r.violations for r in self.replicates))

    def summary_lines(self) -> list:
        """The report as text, with the verdicts `run_experiment` reached."""
        verdict = {True: "PASS", False: "FAIL"}
        cfg = self.cfg
        lines = [f"model: {cfg.model}",
                 f"replicates: {len(self.replicates)}"]
        if self.mean_tv is not None:
            lines.append(
                f"mean TV distance (cutoff {cfg.cutoff}): {self.mean_tv:.6f} "
                f"(tolerance {cfg.tv_tolerance:g}): "
                f"{verdict[self.tv_passed]}")
            lines.append(
                "unaccounted theoretical mass beyond cutoff: "
                f"{self.unaccounted_theory_mass:.6f}")
        lines.append(
            f"psi within {cfg.psi_tolerance:g}: "
            f"{self.psi_ok}/{len(self.replicates)} "
            f"(required fraction {cfg.pass_fraction:g}): "
            f"{verdict[self.psi_passed]}")
        violations = [v for r in self.replicates for v in r.violations]
        lines.append("conservation checks: " + verdict[not violations])
        for v in violations:
            lines.append(f"  violation: {v}")
        lines.append("overall: " + verdict[self.passed])
        return lines


def simulate(cfg: ExperimentConfig, index: int, snapshot_every: int,
             census: bool = False) -> tuple:
    """Replicate `index` of `cfg`, simulated by its model: the final graph
    or urn, and its snapshots, every `snapshot_every` steps and at the last
    (a graph's with their censuses if `census`). `compare` and `diagnose`
    run every replicate through here."""
    rng = replicate_stream(cfg.master_seed, index)
    if cfg.model == GRAPH:
        graph = _this.new_graph(cfg.seed_spec())
        return graph, _this.run(graph, cfg.schedule(), cfg.m_edges,
                                cfg.n_steps, snapshot_every, rng, census=census)
    sampler = _this.bernoulli_column_sampler(cfg.f_matrix)
    urn = _this.new_urn(cfg.urn_composition(), cfg.m_edges, sampler)
    return urn, _this.run_urn(urn, sampler, cfg.n_steps, snapshot_every, rng)


def _replicate(cfg: ExperimentConfig, index: int) -> tuple:
    """A compare replicate's (psi, violations, census): a graph's census
    cut at the cutoff, None for an urn. Compare reads the last snapshot
    alone, so it asks for no other."""
    state, _ = simulate(cfg, index, max(cfg.n_steps, 1))
    if cfg.model != GRAPH:
        return state.fractions(), _this.check_urn_invariants(state), None
    violations = _this.check_graph_invariants(state, cfg.m_edges)
    truncated = _this.empirical_distribution(state).truncated(cfg.cutoff)
    return _this.edge_type_proportions(state), violations, truncated


def map_replicates(cfg: ExperimentConfig, task) -> list:
    """`task(index)` for every replicate index, in index order; `task` must
    pickle, so it is a module-level function or a partial of one."""
    # each replicate simulates cfg's model, by the module of its name;
    # loaded here, so that forked pool workers start with it
    _load(cfg.model)
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
    # solve first, so an over-cap lattice fails before any replicate runs
    psi_ref = stationary_type_distribution(cfg.f_matrix)
    if cfg.model == GRAPH:
        theory = _this.solve_recurrence(cfg.f_matrix, cfg.m_edges,
                                        comparison_cutoff(cfg))
    raw = map_replicates(cfg, partial(_replicate, cfg))

    tvs = [None] * len(raw)
    unaccounted = per_degree = mean_tv = tv_passed = None
    if cfg.model == GRAPH:
        from .degrees import aligned

        unaccounted = 1.0 - theory.total()
        # one table of the theory and every census; a replicate's TV over
        # it is its TV over the rows of the pair, as the others' rows add 0
        degrees, (theoretical, *empirical) = aligned(
            [theory] + [census for *_, census in raw], cfg.cutoff)
        tvs = [_half_l1(column, theoretical) for column in empirical]
        # summed replicate by replicate, in index order
        per_degree = (degrees, sum(empirical) / len(raw), theoretical)
        mean_tv = float(np.mean(tvs))
        tv_passed = mean_tv <= cfg.tv_tolerance
    results = [ReplicateResult(i, tv, psi, psi_error(psi, psi_ref), violations)
               for i, ((psi, violations, _), tv) in enumerate(zip(raw, tvs))]

    ok = sum(1 for r in results if r.psi_error <= cfg.psi_tolerance)
    psi_passed = ok / len(results) >= cfg.pass_fraction

    return ComparisonReport(
        cfg=cfg,
        replicates=results,
        psi_reference=tuple(float(v) for v in psi_ref),
        mean_tv=mean_tv,
        tv_passed=tv_passed,
        psi_ok=ok,
        psi_passed=psi_passed,
        unaccounted_theory_mass=unaccounted,
        per_degree_errors=per_degree,
    )


@dataclass(eq=False)
class StudyReport:
    """Spread of the conditional non-perturbed answer vs the perturbed one,
    as columns over the (K, N) `degrees` in degree order."""

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
            raise ValidationError("Dirichlet proportions only apply when each step "
                                  "adds a single edge; pass psi_samples explicitly")
        rng = replicate_stream(cfg.master_seed, 0, lane=1)
        counts = cfg.seed_spec().type_counts()
        psi_samples = [_this.dirichlet_psi_sample(counts, rng)
                       for _ in range(n_psi_samples)]
    if not len(psi_samples):
        raise ValidationError("need at least one psi sample")
    if any(np.shape(psi) != (cfg.n_types,) for psi in psi_samples):
        raise ValidationError(f"every psi sample needs {cfg.n_types} entries")

    # a weight layer depends only on lighter ones, so both walks stop at
    # the cutoff, with the same rows; one walk carries every sample
    cutoff = comparison_cutoff(cfg)
    perturbed = _this.solve_recurrence(cfg.f_matrix, cfg.m_edges, cutoff)
    degrees, mean, std = _this.solve_unperturbed_recurrence(
        np.array(psi_samples, dtype=float).T, cfg.m_edges, cutoff)
    return StudyReport(
        n_samples=len(psi_samples),
        degrees=degrees,
        unperturbed_mean=mean,
        unperturbed_std=std,
        perturbed=perturbed.values,
    )
