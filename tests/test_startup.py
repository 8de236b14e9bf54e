"""A command process does only the start-up work its command needs.

`main` gives flags only to the subparser of the command it runs, which
must parse every argv as the parser with all seven subparsers flagged
does, errors included, once a list value that starts with a minus is
joined to its flag. A `python -m mtpa.cli` process runs its command with
the cyclic garbage collector off; importing `mtpa.cli` and calling `main`
in process leaves the collector as it was.
"""
from __future__ import annotations

import argparse

import pytest

from mtpa import cli
from test_cli_exit import spawn

# command -> an argv that sets most of its flags; no file is read, since
# the handlers are replaced by a recorder. A value may name another command,
# as `compare`'s --out does
SAMPLES = {
    "simulate-graph": ["simulate-graph", "--config", "g.ini", "--seed", "3",
                       "--out", "o", "--n", "2", "--m", "1", "--f",
                       "symmetric:0.9", "--steps", "10", "--snapshot-every",
                       "5", "--seed-graph", "seed.txt"],
    "simulate-urn": ["simulate-urn", "--n", "2", "--m", "2", "--f",
                     "0.9,0.1,0.1,0.9", "--c0", "1,1", "--steps", "10"],
    "solve": ["solve", "--n", "2", "--f-file", "f.txt", "--dmax", "8"],
    "solve-unperturbed": ["solve-unperturbed", "--n", "2", "--psi", "0.3,0.7",
                          "--dmax", "8", "--seed", "4", "--out", "o"],
    "compare": ["compare", "--config", "c.ini", "--replicates", "2",
                "--steps", "20", "--out", "solve"],
    "diagnose": ["diagnose", "--config", "c.ini", "--quantity", "tv", "--d",
                 "1,2", "--l", "1"],
    "study": ["study", "--config", "s.ini", "--psi-samples", "3"],
}


def test_the_samples_cover_every_command():
    assert sorted(SAMPLES) == sorted(cli.COMMANDS)


@pytest.fixture
def recorded(monkeypatch) -> list:
    """The Namespace of every command `main` runs, in place of its work."""
    seen = []

    def record(args):
        seen.append(args)
        return 0

    for name, (_, help_text, flags) in list(cli.COMMANDS.items()):
        monkeypatch.setitem(cli.COMMANDS, name, (record, help_text, flags))
    return seen


@pytest.mark.parametrize("command", sorted(SAMPLES))
def test_one_subparser_parses_as_all_of_them(command, recorded):
    argv = SAMPLES[command]
    assert cli.main(argv) == 0
    (args,) = recorded
    assert args.raw_argv == argv
    del args.raw_argv
    assert args == cli.build_parser().parse_args(argv)


def full_parse_error(argv: list, capsys) -> str:
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(SAMPLES))
@pytest.mark.parametrize("kind", ("another command's flag", "unknown flag"))
def test_a_flag_the_command_lacks_is_the_same_usage_error(command, kind,
                                                          recorded, capsys):
    taken = {flag.rstrip("!") for flag in cli.COMMANDS[command][2].split()}
    flag = ("--bogus" if kind == "unknown flag"
            else next(flag for flag in cli.FLAGS if flag not in taken))
    argv = SAMPLES[command] + [flag, "1"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: " + flag in err
    assert err == full_parse_error(argv, capsys)
    assert recorded == []


def test_a_missing_required_flag_is_the_same_usage_error(recorded, capsys):
    assert cli.main(["compare"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: mtpa compare")
    assert err == full_parse_error(["compare"], capsys)


def test_help_lists_every_command_with_its_help(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "200")  # one line per command
    assert cli.main(["--help"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for name, (_, help_text, _) in cli.COMMANDS.items():
        assert any(line.split() == [name, *help_text.split()]
                   for line in lines), name


def test_each_subcommand_help_lists_its_flags(capsys):
    for name, (_, _, flags) in cli.COMMANDS.items():
        assert cli.main([name, "--help"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: mtpa {name}")
        for flag in flags.split():
            assert flag.rstrip("!") in out


def test_build_parser_flags_only_the_commands_given():
    parser = cli.build_parser(flagged=["solve"])
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert sorted(subparsers.choices) == sorted(cli.COMMANDS)
    for name, sub in subparsers.choices.items():
        options = {s for action in sub._actions for s in action.option_strings}
        assert (options - {"-h", "--help"} != set()) == (name == "solve")


# --------------------------------------------------------------------------
# the cyclic garbage collector

IN_PROCESS = """
import gc, sys
import mtpa.cli
code = mtpa.cli.main(sys.argv[1:])
print(code, gc.isenabled())
"""

# the -m entry as runpy runs it, with the solver replaced by a probe that
# reports the collector's state while the handler runs, and the collector
# passes since `mtpa.cli` began to run: numpy is loaded before it, but
# compiling and importing the rest of the command still allocates enough
# to set off passes, unless the collector is off from its first line
AS_MAIN = """
import gc, runpy
import mtpa.theory

passes = [0]
gc.callbacks.append(lambda phase, info: passes.__setitem__(
    0, passes[0] + (phase == "stop")))
solve = mtpa.theory.solve_recurrence
def probe(*args, **kwargs):
    print("collector on:", gc.isenabled(), "passes:", passes[0])
    return solve(*args, **kwargs)
mtpa.theory.solve_recurrence = probe
gc.collect()
passes[0] = 0
runpy.run_module("mtpa.cli", run_name="__main__", alter_sys=True)
"""

SOLVE = ["solve", "--n", "2", "--f", "symmetric:0.9", "--dmax", "6", "--out",
         "out"]


def test_main_in_process_leaves_the_collector_on(tmp_path):
    proc = spawn(["-c", IN_PROCESS, *SOLVE], tmp_path, capture_output=True,
                 text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "0 True"


def test_a_command_process_runs_with_the_collector_off(tmp_path):
    proc = spawn(["-c", AS_MAIN, *SOLVE], tmp_path, capture_output=True,
                 text=True, check=True)
    assert proc.stdout.splitlines()[0] == "collector on: False passes: 0"


# --------------------------------------------------------------------------
# the manifest's modules

# run `mtpa.cli.main` on argv, then print its exit code and which of the
# modules only the manifest reads the process has loaded
MANIFEST_MODULES = """
import sys
import mtpa.cli
code = mtpa.cli.main(sys.argv[1:])
print(code, *sorted({"hashlib", "_hashlib", "json"} & set(sys.modules)))
"""


@pytest.mark.parametrize("argv, last_line", [
    (["--help"], "0"),
    (["--version"], "0"),
    (["solve", "--bogus"], "2"),             # a flag the command lacks
    (["solve", "--out", "out"], "2"),        # neither --config nor --n
    (SOLVE, "0 _hashlib hashlib json"),      # writes a manifest
])
def test_only_a_manifest_loads_hashlib_and_json(argv, last_line, tmp_path):
    proc = spawn(["-c", MANIFEST_MODULES, *argv], tmp_path,
                 capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == last_line
