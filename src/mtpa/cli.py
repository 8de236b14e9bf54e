"""Command-line interface binding all modules into reproducible runs.

Every subcommand writes its outputs plus a manifest (resolved config, master
seed, tool version, per-file digests) into --out. Exit codes: 0 success,
1 tolerance failure from `compare`, 2 a usage error or any `MtpaError`
(a rejected input, a failed numeric check or a broken run).

A process started as `python -m mtpa.cli` or as the `mtpa` script enters
through `console_main`, which ends it with `os._exit` once `main` has
returned and the standard streams are flushed: every output file is closed
by then, and interpreter teardown with numpy loaded, which no output depends
on, costs tens of milliseconds of a process that works for about 0.1 s (see
the README). `main` itself returns its exit code, so an in-process caller
sees no difference.

A command process does only the start-up work its command needs:
- It runs without the cyclic garbage collector, from the first line of
  this module (as `python -m mtpa.cli`) or of `console_main` (as the `mtpa`
  script) until its hard exit. The collector's passes, mostly while numpy
  imports, cost milliseconds and reclaim a few hundred objects; imported
  as a module, this one leaves the collector as it was.
- It imports only the layers it runs: the simulation, theory and harness
  functions are read through `_this` and loaded on first use (see
  `mtpa.LAZY`), so `solve` never compiles the simulators and
  `simulate-graph` never compiles the urn, the harness or the solver.
- Its parser gives flags only to the subparser of the command it runs.
"""
from __future__ import annotations

import gc

if __name__ == "__main__":
    gc.disable()  # before any other import; see console_main

import argparse
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__, lazy, matrices
from .config import (ExperimentConfig, SeedGraphSpec, config_fields,
                     parse_list, replicate_stream)
from .errors import MtpaError, ValidationError
from .output import (write_csv, write_distribution_csv, write_graph_snapshots,
                     write_manifest, write_urn_trajectory)

# every simulation, theory and harness function a handler calls is read
# through `_this`, this module, so a replacement set on the module is what
# runs; `__getattr__` imports the function's module when it is first read
__getattr__ = lazy(globals())[0]
_this = sys.modules[__name__]


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
    "--psi-samples": dict(type=int, default=1000,
                          help="Dirichlet type proportions to sample"),
}

# the flags whose value is a comma list, which may start with a minus
_LIST_FLAGS = ("--f", "--c0", "--psi", "--e0", "--d")


def _join_list_values(argv: list) -> list:
    """argv with each _LIST_FLAGS flag that is followed by a value starting
    with a minus and then a digit or "." joined to it as one `flag=value`
    token. argparse reads such a value, unless it is a plain number, as a
    flag; joined, it parses as the value of its flag."""
    joined = []
    for arg in argv:
        if joined and joined[-1] in _LIST_FLAGS and re.match(r"-[\d.]", arg):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def build_parser(flagged=None) -> argparse.ArgumentParser:
    """One subparser per COMMANDS entry, listed with its help. Each command
    in `flagged` (by default every one) takes only the flags it lists (a
    trailing ! marks a required one) and no abbreviation of any flag; any
    other command's subparser is left without flags."""
    parser = argparse.ArgumentParser(
        prog="mtpa", allow_abbrev=False,
        description="Preferential attachment with perturbed multi-type "
                    "edges: simulate, solve, and verify.")
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, flags) in COMMANDS.items():
        sub = commands.add_parser(name, help=help_text, allow_abbrev=False)
        sub.set_defaults(handler=handler)
        if flagged is not None and name not in flagged:
            continue
        for flag in flags.split():
            option = flag.rstrip("!")
            sub.add_argument(option, required=flag.endswith("!"),
                             **FLAGS[option])
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
    snapshots = _this.run(_this.new_graph(cfg.seed_spec()), cfg.schedule(),
                          cfg.m_edges, cfg.n_steps, cfg.snapshot_every, rng)
    psi_path, dist_path = write_graph_snapshots(out, snapshots, cfg.n_types)
    _manifest(args, out, cfg.resolved(), cfg.master_seed,
              [psi_path, dist_path])
    print(f"wrote {psi_path} and {dist_path}")
    return 0


def _cmd_simulate_urn(args) -> int:
    cfg = _resolve_config(args, model="urn")
    out = _out_dir(args)
    rng = replicate_stream(cfg.master_seed, 0)
    sampler = _this.bernoulli_column_sampler(cfg.f_matrix)
    urn = _this.new_urn(cfg.urn_composition(), cfg.m_edges, sampler)
    snapshots = _this.run_urn(urn, sampler, cfg.n_steps, cfg.snapshot_every,
                              rng)
    path = write_urn_trajectory(out / "trajectory.csv", snapshots, cfg.n_types)
    _manifest(args, out, cfg.resolved(), cfg.master_seed, [path])
    print(f"wrote {path}")
    return 0


def _cmd_solve(args) -> int:
    cfg = _resolve_config(args)
    n, m, dmax = cfg.n_types, cfg.m_edges, cfg.max_weight
    out = _out_dir(args)
    dist = _this.solve_recurrence(cfg.f_matrix, m, dmax)
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
    seed = args.master_seed  # recorded as given: --psi draws nothing
    if args.psi:
        psi = np.array(parse_list(args.psi, float, "--psi"))
    elif args.e0:
        counts = parse_list(args.e0, int, "--e0")
        if m != 1:
            raise ValidationError("--e0 proportions only apply with --m 1")
        seed = cfg.master_seed  # the seed the draw uses, from any source
        rng = replicate_stream(seed, 0, lane=1)
        psi = _this.dirichlet_psi_sample(counts, rng)
    else:
        raise ValidationError("--psi or --e0 is required")
    if psi.size != n:
        raise ValidationError(f"psi needs {n} entries, got {psi.size}")
    out = _out_dir(args)
    dist = _this.solve_unperturbed_recurrence(psi, m, dmax)
    path = write_distribution_csv(out / "distribution.csv", dist, n)
    config = {"n_types": n, "m_edges": m, "d_max": dmax,
              "psi": [float(v) for v in psi]}
    _manifest(args, out, config, seed, [path])
    print(f"wrote {path}")
    return 0


def _cmd_compare(args) -> int:
    cfg = _resolve_config(args)
    out = _out_dir(args)
    report = _this.run_experiment(cfg)

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
    header, rows = _this.convergence_series(cfg, args.quantity,
                                            degree=degree,
                                            type_index=type_index)
    out = _out_dir(args)
    path = write_csv(out / "series.csv", header, rows)
    _manifest(args, out, cfg.resolved(), cfg.master_seed, [path])
    print(f"wrote {path}")
    return 0


def _cmd_study(args) -> int:
    cfg = _resolve_config(args)
    study = _this.perturbed_vs_unperturbed_study(cfg, args.psi_samples)
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
_RUN = "--config! --seed --out --replicates --steps"

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
                 _RUN + " --snapshot-every --quantity! --d --l"),
    "study": (_cmd_study, "spread of the non-perturbed answer vs the "
                          "deterministic perturbed one",
              "--config! --seed --out --psi-samples"),
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # the top-level parser takes no option with a value, so the first
    # command name in argv names the subparser that argparse runs
    parser = build_parser(flagged=[arg for arg in argv if arg in COMMANDS][:1])
    try:
        args = parser.parse_args(_join_list_values(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    args.raw_argv = argv
    try:
        return args.handler(args)
    except MtpaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    """Run `main` on sys.argv with the cyclic garbage collector off and
    end the process with its exit code, skipping interpreter teardown.
    Nothing a command builds needs the collector: the process ends before
    its garbage would matter. Only a normal return takes the hard exit: an
    exception from `main`, or a stream that cannot be flushed (a closed
    pipe), takes the usual `sys.exit` path, with its traceback and exit
    code."""
    gc.disable()
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):  # ValueError: the stream was closed
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    console_main()
