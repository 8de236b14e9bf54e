"""Each command loads only the layers it runs, and calls them late.

`import mtpa` loads no module, and `mtpa.cli` imports a simulation, theory
or harness module only when a command first reads one of its functions, so
the module set a command process ends with is fixed here, command by
command. The benchmark's probes replace functions on `mtpa.cli` and
`mtpa.harness`; the tests below check that the replacement is what runs,
and that a parallel `compare` in a fresh process, whose workers may have to
load the simulators themselves, writes the bytes of a serial one.
"""
from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import mtpa
from mtpa import cli, harness
from mtpa.config import parse_config
from test_cli_exit import child_env, outputs, spawn, workdir

BENCH_CHILD = Path(__file__).resolve().parents[1] / "bench" / "child.py"

# every command reads these
BASE = {"mtpa", "mtpa.cli", "mtpa.config", "mtpa.degrees", "mtpa.errors",
        "mtpa.matrices", "mtpa.output"}
SIMULATION = {"mtpa.graph", "mtpa.harness", "mtpa.theory", "mtpa.urn"}

# name -> (argv, the modules beyond BASE its process loads)
COMMANDS = {
    "help": (["--help"], set()),
    "solve": (["solve", "--n", "2", "--f", "symmetric:0.9", "--dmax", "8"],
              {"mtpa.theory"}),
    "solve-unperturbed": (["solve-unperturbed", "--n", "2", "--psi",
                           "0.3,0.7", "--dmax", "8"], {"mtpa.theory"}),
    "solve-unperturbed-e0": (["solve-unperturbed", "--n", "2", "--e0", "1,2",
                              "--dmax", "8"], {"mtpa.theory"}),
    "study": (["study", "--config", "study.ini", "--psi-samples", "3"],
              {"mtpa.harness", "mtpa.theory"}),
    "simulate-graph": (["simulate-graph", "--config", "decaying.ini",
                        "--steps", "20"], {"mtpa.graph"}),
    "simulate-urn": (["simulate-urn", "--config", "urn.ini", "--steps", "20"],
                     {"mtpa.urn"}),
    "audit": (["audit", "--n", "2", "--f", "symmetric:0.9", "--samples", "5"],
              {"mtpa.urn"}),
    "compare-graph": (["compare", "--config", "graph.ini", "--steps", "20"],
                      SIMULATION),
    "compare-urn": (["compare", "--config", "urn.ini", "--steps", "20"],
                    SIMULATION),
    "diagnose": (["diagnose", "--config", "graph.ini", "--steps", "20",
                  "--quantity", "tv"], SIMULATION | {"mtpa.convergence"}),
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


def test_every_public_name_resolves_to_its_module():
    for name in mtpa.__all__:
        module = import_module(f"mtpa.{mtpa._MODULE_OF[name]}")
        assert getattr(mtpa, name) is getattr(module, name)
    with pytest.raises(AttributeError):
        mtpa.no_such_name


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


@pytest.mark.parametrize("name", sorted(WORK_COMMANDS))
def test_a_replacement_on_the_cli_is_what_runs(name, tmp_path, monkeypatch):
    def sentinel(*args, **kwargs):
        raise Reached(name)

    monkeypatch.chdir(workdir(tmp_path / "run"))
    monkeypatch.setattr(cli, name, sentinel)
    with pytest.raises(Reached):
        cli.main(WORK_COMMANDS[name] + ["--out", "out"])


def test_a_replacement_on_the_harness_is_what_runs(tmp_path, monkeypatch):
    workdir(tmp_path / "run")
    calls = []
    for name in ("new_graph", "run_urn"):
        real = getattr(harness, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(harness, name, spy)
    for config in ("graph.ini", "urn.ini"):
        harness.run_experiment(parse_config(tmp_path / "run" / config))
    assert calls.count("new_graph") == 2 and calls.count("run_urn") == 3


# binds the replacements before harness has loaded graph or urn
FRESH_HARNESS = """
import sys
import mtpa.harness as harness
from mtpa.config import parse_config

calls = []
def spy(*args, **kwargs):
    calls.append(args)
    raise RuntimeError("replaced")
harness.new_graph = harness.run_urn = spy
for config in sys.argv[1:]:
    try:
        harness.run_experiment(parse_config(config))
    except RuntimeError:
        pass
print(len(calls))
"""


def test_a_replacement_bound_before_the_first_run_is_kept(tmp_path):
    proc = spawn(["-c", FRESH_HARNESS, "graph.ini", "urn.ini"],
                 workdir(tmp_path / "run"), capture_output=True, text=True,
                 check=True)
    assert proc.stdout.strip() == "2"


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
