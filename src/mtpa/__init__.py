"""Preferential attachment with perturbed multi-type edges.

Exact simulation of the typed growth dynamics and of the generalized urn
describing its edge-type proportions, plus deterministic solvers for the
asymptotic degree distribution and a Monte Carlo harness comparing the two.

`import mtpa` loads no module of the package: each name in `__all__` is
imported from its module when it is first read (PEP 562), so a command
loads only the layers it runs.
"""

__version__ = "0.1.0"

# module -> the public names it gives the package
_EXPORTS = {
    "config": ("ExperimentConfig", "SeedGraphSpec", "replicate_stream"),
    "degrees": ("DegreeDistribution",),
    "graph": ("PerturbationSchedule", "TypedGraph", "empirical_distribution",
              "grow", "new_graph", "pa_step", "run"),
    "harness": ("run_experiment", "tv_distance"),
    "matrices": ("stationary_type_distribution",),
    "theory": ("solve_recurrence", "solve_unperturbed_recurrence"),
    "urn": ("ColumnSampler", "UrnState", "assumption_audit",
            "bernoulli_column_sampler", "new_urn", "run_urn", "urn_step"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__import__(f"{__name__}.{_MODULE_OF[name]}",
                               fromlist=[name]), name)
    globals()[name] = value
    return value
