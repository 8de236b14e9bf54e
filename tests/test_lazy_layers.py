"""Each command loads only the layers it runs, and calls them late.

`import mtpa` loads no module, `mtpa.cli` imports a simulation, theory
or harness module only when a command first reads one of its functions,
and `mtpa.harness` imports `graph`, `urn` and `theory` one at a time, as
the model it compares reads them, so the module set a command process
ends with is fixed here, command by command. The benchmark's probes
replace functions on `mtpa.cli` and `mtpa.harness`; the tests below check
that the replacement is what runs, serial and in pool workers, and that a
parallel `compare` in a fresh process, whose workers may have to load the
simulators themselves, writes the bytes of a serial one.
"""
from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from collections import Counter
from importlib import import_module
from pathlib import Path

import pytest

import mtpa
from mtpa import cli, harness
from mtpa.config import parse_config
from test_cli_exit import child_env, outputs, spawn, workdir

BENCH_CHILD = Path(__file__).resolve().parents[1] / "bench" / "child.py"

# every command reads these
BASE = {"mtpa", "mtpa.cli", "mtpa.config", "mtpa.errors", "mtpa.matrices",
        "mtpa.output"}
# what a graph and an urn model's comparison read beyond BASE
GRAPH = {"mtpa.degrees", "mtpa.graph", "mtpa.harness", "mtpa.theory"}
URN = {"mtpa.harness", "mtpa.urn"}

# name -> (argv, the modules beyond BASE its process loads)
COMMANDS = {
    "help": (["--help"], set()),
    "solve": (["solve", "--n", "2", "--f", "symmetric:0.9", "--dmax", "8"],
              {"mtpa.degrees", "mtpa.theory"}),
    "solve-unperturbed": (["solve-unperturbed", "--n", "2", "--psi",
                           "0.3,0.7", "--dmax", "8"],
                          {"mtpa.degrees", "mtpa.theory"}),
    "solve-unperturbed-e0": (["solve-unperturbed", "--n", "2", "--e0", "1,2",
                              "--dmax", "8"], {"mtpa.degrees", "mtpa.theory"}),
    "study": (["study", "--config", "study.ini", "--psi-samples", "3"],
              {"mtpa.degrees", "mtpa.harness", "mtpa.theory"}),
    "simulate-graph": (["simulate-graph", "--config", "decaying.ini",
                        "--steps", "20"], {"mtpa.degrees", "mtpa.graph"}),
    "simulate-urn": (["simulate-urn", "--config", "urn.ini", "--steps", "20"],
                     {"mtpa.urn"}),
    "audit": (["audit", "--n", "2", "--f", "symmetric:0.9", "--samples", "5"],
              {"mtpa.urn"}),
    "compare-graph": (["compare", "--config", "graph.ini", "--steps", "20"],
                      GRAPH),
    "compare-urn": (["compare", "--config", "urn.ini", "--steps", "20"], URN),
    # a diagnose loads its model's simulator alone: graph.ini's, then urn.ini's
    "diagnose": (["diagnose", "--config", "graph.ini", "--steps", "20",
                  "--quantity", "tv"], GRAPH | {"mtpa.convergence"}),
    "diagnose-urn": (["diagnose", "--config", "urn.ini", "--steps", "20",
                      "--quantity", "psi"],
                     URN | {"mtpa.convergence", "mtpa.degrees",
                            "mtpa.theory"}),
}

# run `mtpa.cli.main` on argv, then print the mtpa modules as the last line
PROBE = """
import json, sys
import mtpa.cli
code = mtpa.cli.main(sys.argv[1:])
print(json.dumps([code, sorted(name for name in sys.modules
                               if name.split(".")[0] == "mtpa")]))
"""


def loaded(argv: list, cwd: Path) -> tuple:
    proc = spawn(["-c", PROBE, *argv], cwd, capture_output=True, text=True,
                 check=True)
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    return code, set(modules)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_each_command_loads_only_its_layers(name, tmp_path):
    argv, extra = COMMANDS[name]
    if argv[0] != "--help":
        argv = argv + ["--out", "out"]
    code, modules = loaded(argv, workdir(tmp_path / "run"))
    assert code == 0
    assert modules == BASE | extra


def test_importing_mtpa_loads_no_module_of_it(tmp_path):
    code = ("import json, sys, mtpa; print(json.dumps(sorted(name for name "
            "in sys.modules if name.split('.')[0] == 'mtpa')))")
    proc = spawn(["-c", code], tmp_path, capture_output=True, text=True,
                 check=True)
    assert json.loads(proc.stdout) == ["mtpa"]


# the package's public names: `mtpa.__all__` lists these, in this order
PUBLIC = [
    "ColumnSampler", "DegreeDistribution", "ExperimentConfig",
    "PerturbationSchedule", "SeedGraphSpec", "TypedGraph", "UrnState",
    "assumption_audit", "bernoulli_column_sampler", "empirical_distribution",
    "new_graph", "new_urn", "pa_step", "replicate_stream", "run",
    "run_experiment", "run_urn", "solve_recurrence",
    "solve_unperturbed_recurrence", "stationary_type_distribution",
    "tv_distance", "urn_step",
]


def test_every_lazy_name_resolves_to_its_module():
    assert mtpa.__all__ == PUBLIC
    assert set(PUBLIC) <= {name for names in mtpa.LAZY.values()
                           for name in names}
    for namespace in (mtpa, cli, harness):
        for module, names in mtpa.LAZY.items():
            defining = import_module(f"mtpa.{module}")
            for name in names:
                value = getattr(defining, name)
                assert value.__module__ == defining.__name__, name
                assert getattr(namespace, name) is value, (namespace, name)
        with pytest.raises(AttributeError):
            namespace.no_such_name


def bench_work_calls() -> tuple:
    spec = importlib.util.spec_from_file_location("bench_child", BENCH_CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child.WORK_CALLS


class Reached(Exception):
    pass


# each work call the benchmark's set-up probe replaces -> a command reaching it
WORK_COMMANDS = {
    "run_experiment": COMMANDS["compare-graph"][0],
    "run": COMMANDS["simulate-graph"][0],
    "run_urn": COMMANDS["simulate-urn"][0],
    "solve_recurrence": COMMANDS["solve"][0],
    "solve_unperturbed_recurrence": COMMANDS["solve-unperturbed"][0],
    "perturbed_vs_unperturbed_study": COMMANDS["study"][0],
}


def test_the_work_commands_cover_the_bench_work_calls():
    assert sorted(WORK_COMMANDS) == sorted(bench_work_calls())


# what the benchmark's probes read of the program: every set-up stop is a
# name on `mtpa.cli`, the trace probe installs, and the memory probe's
# imports resolve. `install` replaces functions on mtpa's modules, so this
# runs in a fresh process
BENCH_HOOKS = """
import sys
sys.path.insert(0, sys.argv[1])
import child
import mtpa.cli as cli
for name in child.WORK_CALLS:
    getattr(cli, name)
child.install(child.Recorder())
from mtpa.config import parse_config
from mtpa.graph import new_graph, pa_step
from mtpa.harness import replicate_stream
print("ok")
"""


def test_the_bench_probes_find_what_they_wrap(tmp_path):
    proc = spawn(["-c", BENCH_HOOKS, str(BENCH_CHILD.parent)], tmp_path,
                 capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


@pytest.mark.parametrize("name", sorted(WORK_COMMANDS))
def test_a_replacement_on_the_cli_is_what_runs(name, tmp_path, monkeypatch):
    def sentinel(*args, **kwargs):
        raise Reached(name)

    monkeypatch.chdir(workdir(tmp_path / "run"))
    monkeypatch.setattr(cli, name, sentinel)
    with pytest.raises(Reached):
        cli.main(WORK_COMMANDS[name] + ["--out", "out"])


# config -> the harness functions its comparison calls, with the count of
# calls: once per run, or once per replicate (graph.ini has 2, urn.ini 3)
HARNESS_CALLS = {
    "graph.ini": {"stationary_type_distribution": 1, "solve_recurrence": 1,
                  "new_graph": 2, "run": 2, "check_graph_invariants": 2,
                  "empirical_distribution": 2, "edge_type_proportions": 2},
    "urn.ini": {"stationary_type_distribution": 1,
                "bernoulli_column_sampler": 3, "new_urn": 3, "run_urn": 3,
                "check_urn_invariants": 3},
    # the study's calls, by perturbed_vs_unperturbed_study(cfg, 3)
    "study.ini": {"dirichlet_psi_sample": 3, "solve_recurrence": 1,
                  "solve_unperturbed_recurrence": 1},
}


def spy_on_harness(names, log: Path, monkeypatch) -> None:
    """Replace each of `names` on the harness by a spy that appends its
    name to `log`, a file, so that a pool worker's calls are seen too."""
    for name in names:
        real = getattr(harness, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            with open(log, "a") as fh:
                fh.write(_name + "\n")
            return _real(*args, **kwargs)

        monkeypatch.setattr(harness, name, spy)


def test_a_replacement_on_the_harness_is_what_runs(tmp_path, monkeypatch):
    run = workdir(tmp_path / "run")
    for config in ("graph.ini", "urn.ini"):
        for threads in ("1", "2"):
            log = tmp_path / f"{config}.{threads}.log"
            with monkeypatch.context() as patch:
                spy_on_harness(HARNESS_CALLS[config], log, patch)
                patch.setenv("MTPA_THREADS", threads)
                harness.run_experiment(parse_config(run / config))
            assert (Counter(log.read_text().split())
                    == HARNESS_CALLS[config]), (config, threads)


def test_a_replacement_on_the_harness_is_what_the_study_runs(tmp_path,
                                                            monkeypatch):
    log = tmp_path / "calls.log"
    spy_on_harness(HARNESS_CALLS["study.ini"], log, monkeypatch)
    harness.perturbed_vs_unperturbed_study(
        parse_config(workdir(tmp_path / "run") / "study.ini"), 3)
    assert Counter(log.read_text().split()) == HARNESS_CALLS["study.ini"]


# binds the replacements named by argv[1] before harness has loaded any
# layer, then runs each target in argv[2:]: a config's comparison, or the
# study of study.ini; prints how often a replacement ran
FRESH_HARNESS = """
import sys
import mtpa.harness as harness
from mtpa.config import parse_config

calls = []
def spy(*args, **kwargs):
    calls.append(args)
    raise RuntimeError("replaced")
for name in sys.argv[1].split(","):
    setattr(harness, name, spy)
for target in sys.argv[2:]:
    try:
        if target == "study":
            harness.perturbed_vs_unperturbed_study(parse_config("study.ini"), 3)
        else:
            harness.run_experiment(parse_config(target))
    except RuntimeError:
        pass
print(len(calls))
"""


def fresh_harness_calls(names: str, targets: list, tmp_path) -> int:
    proc = spawn(["-c", FRESH_HARNESS, names, *targets],
                 workdir(tmp_path / "run"), capture_output=True, text=True,
                 check=True)
    return int(proc.stdout)


def test_a_replacement_bound_before_the_first_run_is_kept(tmp_path):
    assert fresh_harness_calls("new_graph,run_urn", ["graph.ini", "urn.ini"],
                               tmp_path) == 2


def test_a_theory_replacement_bound_before_the_first_run_is_kept(tmp_path):
    assert fresh_harness_calls("solve_recurrence,dirichlet_psi_sample",
                               ["graph.ini", "study"], tmp_path) == 2


@pytest.mark.parametrize("config", ("graph.ini", "urn.ini"))
def test_parallel_compare_in_a_fresh_process_matches_serial(config, tmp_path):
    argv = [sys.executable, "-m", "mtpa.cli", "compare", "--config", config,
            "--out", "out"]
    got = {}
    for threads in ("1", "2"):
        cwd = workdir(tmp_path / f"threads{threads}")
        subprocess.run(argv, cwd=cwd, env=dict(child_env(),
                                               MTPA_THREADS=threads),
                       check=True, capture_output=True, timeout=120)
        got[threads] = outputs(cwd / "out")
    assert "replicates.csv" in got["1"]
    assert got["2"] == got["1"]
