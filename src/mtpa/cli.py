"""Command-line interface binding all modules into reproducible runs.

Every subcommand writes its outputs plus a manifest (resolved config, master
seed, tool version, per-file digests) into --out. Exit codes: 0 success,
1 tolerance failure from `compare`, 2 usage or configuration errors.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__, matrices
from .config import config_fields, parse_list
from .errors import MtpaError, ValidationError
from .graph import SeedGraphSpec, new_graph, run
from .harness import (ExperimentConfig, convergence_series,
                      perturbed_vs_unperturbed_study, replicate_stream,
                      run_experiment)
from .output import (write_csv, write_distribution_csv, write_graph_snapshots,
                     write_manifest, write_urn_trajectory)
from .theory import solve_recurrence, solve_unperturbed_recurrence
from .urn import assumption_audit, bernoulli_column_sampler, new_urn, run_urn


# flag -> its argparse keywords, for every command that takes the flag
FLAGS = {
    "--config": dict(help="experiment config file"),
    "--seed": dict(type=int, dest="master_seed",
                   help="master seed (overrides config)"),
    "--out": dict(default="mtpa_out", help="output directory"),
    "--replicates": dict(type=int, help="override replicate count"),
    "--steps": dict(type=int, dest="n_steps", help="override step count"),
    "--snapshot-every": dict(type=int, help="override snapshot interval"),
    "--n": dict(type=int, dest="n_types", help="number of edge types"),
    "--m": dict(type=int, dest="m_edges", help="edges (or draws) per step"),
    "--f": dict(help="row-major comma list or symmetric:p"),
    "--f-file": dict(help="matrix file: N then N*N reals"),
    "--seed-graph": dict(help="seed edge-list file (a b t per line)"),
    "--c0": dict(help="initial composition, comma list"),
    "--dmax": dict(type=int, dest="max_weight", help="truncation weight"),
    "--psi": dict(help="type proportions, comma list"),
    "--e0": dict(help="seed type counts for Dirichlet proportions "
                      "(single-edge steps only)"),
    "--quantity": dict(help="psi | tv | u_n | np_el"),
    "--d": dict(help="target degree, comma list"),
    "--l": dict(type=int, help="target type (1-based)"),
    "--samples": dict(type=int, default=10_000,
                      help="replacement matrices to sample"),
    "--psi-samples": dict(type=int, default=1000,
                          help="Dirichlet type proportions to sample"),
}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per COMMANDS entry, taking only the flags it lists (a
    trailing ! marks a required one) and no abbreviation of any flag."""
    parser = argparse.ArgumentParser(
        prog="mtpa", allow_abbrev=False,
        description="Preferential attachment with perturbed multi-type "
                    "edges: simulate, solve, and verify.")
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, flags) in COMMANDS.items():
        sub = commands.add_parser(name, help=help_text, allow_abbrev=False)
        for flag in flags.split():
            option = flag.rstrip("!")
            sub.add_argument(option, required=flag.endswith("!"),
                             **FLAGS[option])
        sub.set_defaults(handler=handler)
    return parser


# the dests of the flags that set their ExperimentConfig field as given
_FIELD_FLAGS = ("master_seed", "n_steps", "replicates", "snapshot_every",
                "n_types", "m_edges", "max_weight")


def _resolve_config(args, model: str | None = None,
                    need_f: bool = True) -> ExperimentConfig:
    """The one path from a config file and flags to a config.

    The fields a config file sets are laid under the flags, each flag
    overriding its field the same way in every subcommand; ExperimentConfig
    then supplies every default and runs every range check. Without a
    config file --n is required. A command that never reads F
    (`need_f=False`) gets the identity, whatever F its config file gives.
    """
    fields = config_fields(args.config) if args.config else {}
    fields.update({field: getattr(args, field) for field in _FIELD_FLAGS
                   if getattr(args, field, None) is not None})
    if model is not None:
        fields["model"] = model
    n_types = fields.get("n_types")
    if n_types is None:
        raise ValidationError("either --config or --n is required")
    if getattr(args, "f_file", None):
        fields["f_matrix"] = matrices.read_matrix(args.f_file)
    elif getattr(args, "f", None):
        fields["f_matrix"] = matrices.parse_matrix(args.f, n_types, what="f")
    elif not need_f:
        fields["f_matrix"] = np.eye(n_types)
    if getattr(args, "seed_graph", None):
        fields["seed_edges"] = SeedGraphSpec.from_file(args.seed_graph,
                                                       n_types).edges
    if getattr(args, "c0", None):
        fields["initial_composition"] = parse_list(args.c0, int, "--c0")
    return ExperimentConfig(**fields)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _manifest(args, out: Path, cfg_dict: dict, master_seed, outputs) -> None:
    write_manifest(out, command=["mtpa"] + list(args.raw_argv),
                   version=__version__, master_seed=master_seed,
                   config=cfg_dict, outputs=outputs)


def _cmd_simulate_graph(args) -> int:
    cfg = _resolve_config(args, model="graph")
    out = _out_dir(args)
    rng = replicate_stream(cfg.master_seed, 0)
    # the graph is not kept: the writer reads only the snapshots
    snapshots = run(new_graph(cfg.seed_spec()), cfg.schedule(), cfg.m_edges,
                    cfg.n_steps, cfg.snapshot_every, rng)
    psi_path, dist_path = write_graph_snapshots(out, snapshots, cfg.n_types)
    _manifest(args, out, cfg.resolved(), cfg.master_seed,
              [psi_path, dist_path])
    print(f"wrote {psi_path} and {dist_path}")
    return 0


def _cmd_simulate_urn(args) -> int:
    cfg = _resolve_config(args, model="urn")
    out = _out_dir(args)
    rng = replicate_stream(cfg.master_seed, 0)
    sampler = bernoulli_column_sampler(cfg.f_matrix)
    urn = new_urn(cfg.urn_composition(), cfg.m_edges, sampler)
    snapshots = run_urn(urn, sampler, cfg.n_steps, cfg.snapshot_every, rng)
    path = write_urn_trajectory(out / "trajectory.csv", snapshots, cfg.n_types)
    _manifest(args, out, cfg.resolved(), cfg.master_seed, [path])
    print(f"wrote {path}")
    return 0


def _cmd_solve(args) -> int:
    cfg = _resolve_config(args)
    n, m, dmax = cfg.n_types, cfg.m_edges, cfg.max_weight
    out = _out_dir(args)
    dist = solve_recurrence(cfg.f_matrix, m, dmax)
    path = write_distribution_csv(out / "distribution.csv", dist, n)
    config = {"n_types": n, "m_edges": m, "d_max": dmax,
              "f": [float(v) for v in cfg.f_matrix.ravel()]}
    _manifest(args, out, config, args.master_seed, [path])
    print(f"wrote {path} ({len(dist)} degree vectors, "
          f"total mass {dist.total():.6f})")
    return 0


def _cmd_solve_unperturbed(args) -> int:
    cfg = _resolve_config(args, need_f=False)
    n, m, dmax = cfg.n_types, cfg.m_edges, cfg.max_weight
    if args.psi and args.e0:
        raise ValidationError("give --psi or --e0, not both")
    if args.psi:
        psi = np.array(parse_list(args.psi, float, "--psi"))
    elif args.e0:
        from .theory import dirichlet_psi_sample
        counts = parse_list(args.e0, int, "--e0")
        if m != 1:
            raise ValidationError("--e0 proportions only apply with --m 1")
        rng = replicate_stream(cfg.master_seed, 0, lane=1)
        psi = dirichlet_psi_sample(counts, rng)
    else:
        raise ValidationError("--psi or --e0 is required")
    if psi.size != n:
        raise ValidationError(f"psi needs {n} entries, got {psi.size}")
    out = _out_dir(args)
    dist = solve_unperturbed_recurrence(psi, m, dmax)
    path = write_distribution_csv(out / "distribution.csv", dist, n)
    config = {"n_types": n, "m_edges": m, "d_max": dmax,
              "psi": [float(v) for v in psi]}
    _manifest(args, out, config, args.master_seed, [path])
    print(f"wrote {path}")
    return 0


def _cmd_compare(args) -> int:
    cfg = _resolve_config(args)
    out = _out_dir(args)
    report = run_experiment(cfg)

    report_path = out / "report.txt"
    with open(report_path, "w") as fh:
        for line in report.summary_lines():
            fh.write(line + "\n")

    rep_header = ["replicate", "tv", "psi_error"]
    rep_rows = [(r.index, r.tv if r.tv is not None else "", r.psi_error)
                for r in report.replicates]
    rep_path = write_csv(out / "replicates.csv", rep_header, rep_rows)

    outputs = [report_path, rep_path]
    if report.per_degree_errors is not None:
        degrees, emp, theo = report.per_degree_errors
        err_header = ([f"d_{i + 1}" for i in range(cfg.n_types)]
                      + ["empirical_mean", "theoretical", "abs_error"])
        err_rows = list(zip(*degrees.T.tolist(), emp.tolist(), theo.tolist(),
                            np.abs(emp - theo).tolist()))
        outputs.append(write_csv(out / "errors.csv", err_header, err_rows))

    _manifest(args, out, cfg.resolved(), cfg.master_seed, outputs)
    for line in report.summary_lines():
        print(line)
    return 0 if report.passed else 1


def _cmd_diagnose(args) -> int:
    cfg = _resolve_config(args)
    degree = None if args.d is None else parse_list(args.d, int, "--d")
    type_index = None if args.l is None else args.l - 1
    header, rows = convergence_series(cfg, args.quantity, degree=degree,
                                      type_index=type_index)
    out = _out_dir(args)
    path = write_csv(out / "series.csv", header, rows)
    _manifest(args, out, cfg.resolved(), cfg.master_seed, [path])
    print(f"wrote {path}")
    return 0


def _cmd_audit(args) -> int:
    cfg = _resolve_config(args)
    sampler = bernoulli_column_sampler(cfg.f_matrix)
    report = assumption_audit(sampler, args.samples,
                              replicate_stream(cfg.master_seed, 0, lane=2))
    out = _out_dir(args)
    path = out / "audit.txt"
    with open(path, "w") as fh:
        for line in report.lines():
            fh.write(line + "\n")
    config = {"f": [float(v) for v in cfg.f_matrix.ravel()],
              "samples": args.samples}
    _manifest(args, out, config, cfg.master_seed, [path])
    for line in report.lines():
        print(line)
    return 0


def _cmd_study(args) -> int:
    cfg = _resolve_config(args)
    study = perturbed_vs_unperturbed_study(cfg, args.psi_samples)
    out = _out_dir(args)
    header = ([f"d_{i + 1}" for i in range(cfg.n_types)]
              + ["unperturbed_mean", "unperturbed_std", "perturbed"])
    rows = list(zip(*study.degrees.T.tolist(), study.unperturbed_mean.tolist(),
                    study.unperturbed_std.tolist(), study.perturbed.tolist()))
    path = write_csv(out / "study.csv", header, rows)
    _manifest(args, out, cfg.resolved(), cfg.master_seed, [path])
    spread = study.unperturbed_std.max(initial=0.0)
    print(f"wrote {path} (max spread {spread:.4f})")
    return 0


_MODEL = "--config --seed --out --n --m --f --f-file"
_RUN = "--config! --seed --out --replicates --steps --snapshot-every"

# command -> (handler, help, the flags it reads)
COMMANDS = {
    "simulate-graph": (_cmd_simulate_graph,
                       "simulate the typed-edge growth model",
                       _MODEL + " --steps --snapshot-every --seed-graph"),
    "simulate-urn": (_cmd_simulate_urn, "simulate the urn",
                     _MODEL + " --steps --snapshot-every --c0"),
    "solve": (_cmd_solve, "asymptotic degree distribution (perturbed)",
              _MODEL + " --dmax"),
    "solve-unperturbed": (_cmd_solve_unperturbed,
                          "conditional distribution without perturbation",
                          "--config --seed --out --n --m --dmax --psi --e0"),
    "compare": (_cmd_compare,
                "replicated simulation vs theory, with PASS/FAIL report",
                _RUN),
    "diagnose": (_cmd_diagnose, "convergence series",
                 _RUN + " --quantity! --d --l"),
    "audit": (_cmd_audit, "sample replacement matrices and audit them",
              "--config --seed --out --n --f --f-file --samples"),
    "study": (_cmd_study, "spread of the non-perturbed answer vs the "
                          "deterministic perturbed one",
              "--config! --seed --out --psi-samples"),
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    args.raw_argv = argv
    try:
        return args.handler(args)
    except MtpaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
