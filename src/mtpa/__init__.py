"""Preferential attachment with perturbed multi-type edges.

Exact simulation of the typed growth dynamics and of the generalized urn
describing its edge-type proportions, plus deterministic solvers for the
asymptotic degree distribution and a Monte Carlo harness comparing the two.
"""

__version__ = "0.1.0"

from .degrees import DegreeDistribution
from .graph import (PerturbationSchedule, SeedGraphSpec, TypedGraph,
                    empirical_distribution, grow, new_graph, pa_step, run)
from .harness import (ExperimentConfig, run_experiment, tv_distance,
                      replicate_stream)
from .theory import (solve_recurrence, solve_unperturbed_recurrence,
                     stationary_type_distribution)
from .urn import (ColumnSampler, UrnState, assumption_audit,
                  bernoulli_column_sampler, new_urn, run_urn, urn_step)

__all__ = [
    "ColumnSampler", "DegreeDistribution", "ExperimentConfig",
    "PerturbationSchedule", "SeedGraphSpec", "TypedGraph", "UrnState",
    "assumption_audit", "bernoulli_column_sampler", "empirical_distribution",
    "grow", "new_graph", "new_urn", "pa_step", "replicate_stream", "run",
    "run_experiment", "run_urn", "solve_recurrence",
    "solve_unperturbed_recurrence", "stationary_type_distribution",
    "tv_distance", "urn_step",
]
