"""The command-line process ends with a hard exit once its outputs are written.

`python -m mtpa.cli` (and the `mtpa` script) enter through
`cli.console_main`, which flushes the standard streams and calls
`os._exit` with `main`'s code. These tests run that process with stdout
and stderr piped and block-buffered (PYTHONUNBUFFERED unset), so a stream
left unflushed would lose its lines, and compare every byte it leaves with
an in-process `main` run of the same argv.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mtpa
from mtpa.cli import main
from test_golden import COMMANDS, CONFIGS, GRAPH_CFG

SRC = os.path.dirname(os.path.dirname(mtpa.__file__))

FILES = dict(CONFIGS, **{
    "tight.ini": GRAPH_CFG.replace("tv_tolerance = 1.0",
                                   "tv_tolerance = 1e-9"),
    "fractional.ini": GRAPH_CFG.replace("steps = 400", "steps = 2.5"),
    # decay rows that sum to 1, read by commands that never build a schedule
    "bad_decay.ini": GRAPH_CFG.replace("edges_per_step = 2",
                                       "edges_per_step = 1").replace(
        "f = symmetric:0.9", "f = symmetric:0.9\nschedule = decaying\n"
        "decay = 0.5,0.5,0.5,0.5\ndecay_rho = -3"),
    "loop.txt": "0 1 1\n1 1 2\n0 2 2\n"})

# name -> (argv, exit code); --out is appended to the commands that write
CASES = {
    "compare_pass": (COMMANDS["compare_graph"], 0),
    "compare_fail": (["compare", "--config", "tight.ini"], 1),
    "simulate_graph": (COMMANDS["simulate_graph_decaying"], 0),
    "solve": (COMMANDS["solve"], 0),
    "usage_error": (["solve", "--n", "2", "--bogus", "1"], 2),
    "config_error": (["compare", "--config", "missing.ini"], 2),
    "seed_loop": (["simulate-graph", "--config", "graph.ini",
                   "--seed-graph", "loop.txt"], 2),
    "negative_count": (["simulate-urn", "--n", "2", "--f", "symmetric:0.9",
                        "--c0=-1,2"], 2),
    "lattice_cap": (["solve", "--n", "3", "--f", "symmetric:0.8",
                     "--dmax", "400"], 2),
    "unknown_quantity": (["diagnose", "--config", "graph.ini",
                          "--quantity", "bogus"], 2),
    "fractional_steps": (["compare", "--config", "fractional.ini"], 2),
    "decay_solve": (["solve", "--config", "bad_decay.ini"], 2),
    "decay_study": (["study", "--config", "bad_decay.ini",
                     "--psi-samples", "2"], 2),
    "decay_diagnose": (["diagnose", "--config", "bad_decay.ini",
                        "--quantity", "u_n", "--d", "1,0"], 2),
    "help": (["--help"], 0),
    "subcommand_help": (["compare", "--help"], 0),
    "version": (["--version"], 0),
}
# list values that start with a minus, spelled "--flag value"; the
# "--flag=value" spelling gives the same exit code and stderr
SIGNED = {
    "negative_count_spaced": ["simulate-urn", "--n", "2", "--f",
                              "symmetric:0.9", "--c0", "-1,2"],
    "negative_psi": ["solve-unperturbed", "--n", "2", "--psi", "-0.5,1.5"],
    "negative_e0": ["solve-unperturbed", "--n", "2", "--e0", "-1,2"],
    "negative_f": ["solve", "--n", "2", "--f", "-0.1,1.1,0.5,0.5"],
    "negative_d": ["diagnose", "--config", "graph.ini", "--quantity", "u_n",
                   "--d", "-1,3"],
}
CASES.update((name, (argv, 2)) for name, argv in SIGNED.items())
WRITES = ("compare_pass", "compare_fail", "simulate_graph", "solve")
# name -> the one line an input error leaves on stderr
ERRORS = {
    "seed_loop": "error: seed edge (1, 1) is a loop\n",
    "negative_count": "error: negative ball count in [-1, 2]\n",
    "negative_count_spaced": "error: negative ball count in [-1, 2]\n",
    "negative_psi": "error: psi [-0.5, 1.5] is not a probability vector\n",
    "negative_e0": "error: counts [-1, 2] must be positive integers\n",
    "negative_f": "error: f has entries outside [0, 1]\n",
    "negative_d": "error: need m >= 1 and nonnegative degree entries\n",
    "lattice_cap": "error: lattice up to weight 400 in 3 types exceeds "
                   "10000000 cells\n",
    "unknown_quantity": "error: unknown quantity 'bogus'\n",
    "fractional_steps": "error: run.steps: invalid literal for int() with "
                        "base 10: '2.5'\n",
    "decay_solve": "error: decay matrix rows must sum to 0\n",
    "decay_study": "error: decay matrix rows must sum to 0\n",
    "decay_diagnose": "error: decay matrix rows must sum to 0\n",
}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=SRC, MTPA_THREADS="1", COLUMNS="80")
    return env


def spawn(argv: list, cwd: Path, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=child_env(),
                          timeout=120, **kwargs)


def workdir(path: Path) -> Path:
    path.mkdir()
    for name, text in FILES.items():
        (path / name).write_text(text)
    return path


def outputs(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("name", sorted(CASES))
def test_process_matches_in_process_main(name, tmp_path, monkeypatch,
                                         capsys):
    argv, code = CASES[name]
    argv = argv + (["--out", "out"] if name in WRITES else [])
    # the same relative argv in two directories, so the manifests agree
    proc = spawn(["-m", "mtpa.cli", *argv], workdir(tmp_path / "process"),
                 capture_output=True)
    monkeypatch.chdir(workdir(tmp_path / "inproc"))
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setenv("MTPA_THREADS", "1")
    assert main(argv) == code
    seen = capsys.readouterr()
    assert proc.returncode == code, proc.stderr
    assert proc.stdout.decode() == seen.out
    assert proc.stderr.decode() == seen.err
    assert seen.out or seen.err
    if name in ERRORS:
        assert seen.err == ERRORS[name]
    if name in WRITES:
        got = outputs(tmp_path / "process" / "out")
        assert "manifest.json" in got
        assert got == outputs(tmp_path / "inproc" / "out")


@pytest.mark.parametrize("name", sorted(SIGNED))
def test_a_signed_list_value_reads_the_same_in_either_spelling(
        name, tmp_path, monkeypatch, capsys):
    *argv, flag, value = SIGNED[name]
    monkeypatch.chdir(workdir(tmp_path / "work"))
    assert main(argv + [flag, value]) == 2
    spaced = capsys.readouterr()
    assert main(argv + [f"{flag}={value}"]) == 2
    assert capsys.readouterr() == spaced


def test_a_list_flag_followed_by_a_flag_stays_a_usage_error(capsys):
    assert main(["solve-unperturbed", "--n", "2", "--psi", "--out", "x"]) == 2
    assert capsys.readouterr().err.endswith(
        "error: argument --psi: expected one argument\n")


# an atexit callback runs only if the interpreter tears itself down
WRAPPER = """
import atexit, runpy, sys
import mtpa.harness

atexit.register(print, "teardown ran", file=sys.stderr)
if sys.argv.pop(1) == "raise":
    def run_experiment(cfg):
        raise RuntimeError("injected failure")
    mtpa.harness.run_experiment = run_experiment
runpy.run_module("mtpa.cli", run_name="__main__", alter_sys=True)
"""


def test_normal_return_skips_teardown(tmp_path):
    proc = spawn(["-c", WRAPPER, "keep", "--version"], tmp_path,
                 capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == f"{mtpa.__version__}\n"
    assert proc.stderr == ""


def test_unexpected_exception_keeps_traceback_and_exit_code(tmp_path):
    proc = spawn(["-c", WRAPPER, "raise", "compare", "--config", "graph.ini",
                  "--out", "out"], workdir(tmp_path / "work"),
                 capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("Traceback (most recent call last):\n")
    assert "RuntimeError: injected failure\n" in proc.stderr
    assert proc.stderr.endswith("teardown ran\n")
    assert proc.stdout == ""


@pytest.mark.parametrize("argv", [["--version"], ["solve", "--n", "2", "--f",
                                                 "symmetric:0.9", "--dmax",
                                                 "5", "--out", "out"]])
def test_unflushable_stdout_takes_the_usual_exit(argv, tmp_path):
    # no reader: the flush fails, and the interpreter's own exit reports
    # it (exit code 120) as it does without the hard exit
    read, write = os.pipe()
    os.close(read)
    try:
        proc = spawn(["-m", "mtpa.cli", *argv], tmp_path, stdout=write,
                     stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert proc.returncode == 120
    assert "BrokenPipeError" in proc.stderr
