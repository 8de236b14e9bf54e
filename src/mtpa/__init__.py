"""Preferential attachment with perturbed multi-type edges.

Exact simulation of the typed growth dynamics and of the generalized urn
describing its edge-type proportions, plus deterministic solvers for the
asymptotic degree distribution and a Monte Carlo harness comparing the two.

`import mtpa` loads no module of the package, and a command loads only the
layers it runs. Which module defines a function a namespace reads lazily,
and when that module is imported, is decided here alone: `LAZY` lists the
names, and `lazy` gives the package, `mtpa.cli` and `mtpa.harness` each
their module `__getattr__` (PEP 562) and `_load`.
"""

__version__ = "0.1.0"

# module -> every name the package, `cli` or `harness` reads from it lazily
LAZY = {
    "config": ("ExperimentConfig", "SeedGraphSpec", "replicate_stream"),
    "convergence": ("convergence_series",),
    "degrees": ("DegreeDistribution",),
    "graph": ("PerturbationSchedule", "TypedGraph", "check_graph_invariants",
              "edge_type_proportions", "empirical_distribution", "new_graph",
              "pa_step", "run"),
    "harness": ("perturbed_vs_unperturbed_study", "run_experiment",
                "tv_distance"),
    "matrices": ("stationary_type_distribution",),
    "theory": ("dirichlet_psi_sample", "solve_recurrence",
               "solve_unperturbed_recurrence"),
    "urn": ("ColumnSampler", "UrnState", "assumption_audit",
            "bernoulli_column_sampler", "check_urn_invariants", "new_urn",
            "run_urn", "urn_step"),
}

__all__ = [
    "ColumnSampler", "DegreeDistribution", "ExperimentConfig",
    "PerturbationSchedule", "SeedGraphSpec", "TypedGraph", "UrnState",
    "assumption_audit", "bernoulli_column_sampler", "empirical_distribution",
    "new_graph", "new_urn", "pa_step", "replicate_stream", "run",
    "run_experiment", "run_urn", "solve_recurrence",
    "solve_unperturbed_recurrence", "stationary_type_distribution",
    "tv_distance", "urn_step",
]


def lazy(namespace: dict):
    """The `__getattr__` and `_load` of the module whose globals are
    `namespace`. `_load(module)` imports `module` and binds its LAZY names
    in `namespace` with `setdefault`, so a name bound first, such as a
    replacement set on the module, stays the one read; `__getattr__` loads
    the module of a LAZY name when the name is first read."""
    def _load(module: str) -> None:
        names = LAZY[module]
        # the import statement's own path, which -X importtime reports
        loaded = __import__(f"{__name__}.{module}", fromlist=names)
        for name in names:
            namespace.setdefault(name, getattr(loaded, name))

    def __getattr__(name: str):
        for module, names in LAZY.items():
            if name in names:
                _load(module)
                return namespace[name]
        raise AttributeError(f"module {namespace['__name__']!r} has no "
                             f"attribute {name!r}")

    return __getattr__, _load


__getattr__ = lazy(globals())[0]
