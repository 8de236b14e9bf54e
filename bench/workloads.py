"""The benchmark's workloads: the `mtpa` commands each one runs.

Every input is generated here from the workload seed, which becomes the
master seed of each config, so the program receives only generated files
and flags. Two sizes exist: `full` is what the benchmark measures, `tiny`
is for the self-test and for the short companion runs of a traced run.
README.md in this directory gives the reason for each workload.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Command:
    """One `mtpa` invocation; `--out <out>` is appended when it runs."""

    argv: tuple
    out: str
    expected_exit: int = 0


@dataclass(frozen=True)
class Plan:
    """Everything one execution of a workload needs."""

    commands: tuple
    files: dict          # file name -> text, written into the work dir
    work: int            # edges, draws or lattice cells per execution
    params: dict         # sizes the output checks need


def lattice_cells(n_types: int, m: int, max_weight: int) -> int:
    """Cells a recurrence solver fills: weights m..max_weight in n types."""
    return math.comb(max_weight + n_types, n_types) - math.comb(m - 1 + n_types, n_types)


def _ini(sections: dict) -> str:
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in keys.items()]
        lines.append("")
    return "\n".join(lines)


# The criterion-3 seed graph: 100 parallel edges of each type damp the slow
# mode of the type proportions (second eigenvalue 0.8), without which the
# mean TV of a few replicates often exceeds its tolerance.
_PARALLEL_SEED = "".join(f"0 1 {t}\n" for t in (1, 2) for _ in range(100))


def graph_compare(seed: int, size: str) -> Plan:
    steps, replicates, d_max, cutoff, tv_tol, psi_tol = {
        # over seeds 0-11 the full size gave mean TV 0.009-0.023
        "full": (60_000, 2, 40, 12, 0.03, 0.05),
        "tiny": (2_000, 2, 20, 8, 1.0, 1.0),
    }[size]
    m = 2
    config = _ini({
        "model": {"kind": "graph", "types": 2, "edges_per_step": m,
                  "f": "symmetric:0.9", "schedule": "constant"},
        "run": {"steps": steps, "snapshot_every": steps,
                "replicates": replicates, "master_seed": seed},
        "graph": {"seed_graph": "seed_graph.txt"},
        "compare": {"d_max": d_max, "cutoff": cutoff, "tv_tolerance": tv_tol,
                    "psi_tolerance": psi_tol, "pass_fraction": 0.95},
    })
    return Plan(
        commands=(Command(("compare", "--config", "graph_compare.ini"), "out_compare"),),
        files={"graph_compare.ini": config, "seed_graph.txt": _PARALLEL_SEED},
        work=steps * m * replicates,
        params={"replicates": replicates, "n_types": 2, "steps": steps},
    )


def graph_snapshots(seed: int, size: str) -> Plan:
    steps, every = {"full": (12_500, 250), "tiny": (2_000, 500)}[size]
    m = 4
    decay = ",".join("0.1" if i == j else "-0.05" for i in range(3) for j in range(3))
    config = _ini({
        "model": {"kind": "graph", "types": 3, "edges_per_step": m,
                  "f": "symmetric:0.8", "schedule": "decaying",
                  "decay": decay, "decay_rho": 0.5},
        "run": {"steps": steps, "snapshot_every": every, "master_seed": seed},
    })
    return Plan(
        commands=(Command(("simulate-graph", "--config", "graph_snapshots.ini"),
                          "out_snapshots"),),
        files={"graph_snapshots.ini": config},
        work=steps * m,
        # the default seed graph: 2 vertices joined by one edge of each type
        params={"steps": steps, "snapshot_every": every, "m": m, "n_types": 3,
                "seed_vertices": 2, "seed_edges": 3},
    )


def urn_compare(seed: int, size: str) -> Plan:
    steps, replicates, psi_tol = {"full": (50_000, 5, 0.05),
                                  "tiny": (5_000, 2, 1.0)}[size]
    m = 4
    config = _ini({
        "model": {"kind": "urn", "types": 3, "edges_per_step": m,
                  "f": "0.7,0.2,0.1,0.1,0.8,0.1,0.2,0.2,0.6",
                  "schedule": "constant"},
        "run": {"steps": steps, "snapshot_every": 1000,
                "replicates": replicates, "master_seed": seed},
        "compare": {"psi_tolerance": psi_tol, "pass_fraction": 0.95},
    })
    return Plan(
        commands=(Command(("compare", "--config", "urn_compare.ini"), "out_compare"),),
        files={"urn_compare.ini": config},
        work=steps * m * replicates,
        params={"replicates": replicates, "psi_tolerance": psi_tol},
    )


def theory_solve(seed: int, size: str) -> Plan:
    solve_dmax, study_dmax, cutoff, samples = {"full": (26, 40, 11, 14),
                                               "tiny": (12, 15, 8, 5)}[size]
    config = _ini({
        "model": {"types": 3, "edges_per_step": 1, "f": "symmetric:0.8"},
        "run": {"master_seed": seed},
        "compare": {"d_max": study_dmax, "cutoff": cutoff},
    })
    solve = ("solve", "--n", "4", "--m", "2", "--f", "symmetric:0.7",
             "--dmax", str(solve_dmax), "--seed", str(seed))
    study = ("study", "--config", "study.ini", "--psi-samples", str(samples))
    return Plan(
        commands=(Command(solve, "out_solve"), Command(study, "out_study")),
        files={"study.ini": config},
        work=(lattice_cells(4, 2, solve_dmax)
              + (1 + samples) * lattice_cells(3, 1, study_dmax)),
        params={"solve_m": 2, "solve_n": 4, "solve_dmax": solve_dmax,
                "study_m": 1, "study_n": 3, "cutoff": cutoff},
    )


WORKLOADS = {
    "graph_compare": graph_compare,
    "graph_snapshots": graph_snapshots,
    "urn_compare": urn_compare,
    "theory_solve": theory_solve,
}
