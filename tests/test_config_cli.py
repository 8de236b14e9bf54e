"""Config parsing and CLI surface: exit codes, outputs, manifests."""
from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

from mtpa.cli import COMMANDS, FLAGS, _resolve_config, build_parser, main
from mtpa.config import (ExperimentConfig, SeedGraphSpec, config_fields,
                         parse_config, snapshot_steps)
from mtpa.errors import ValidationError
from mtpa.graph import PerturbationSchedule, new_graph, run
from mtpa.harness import replicate_stream, run_experiment
from mtpa.matrices import read_matrix
from mtpa.output import file_digest
from mtpa.urn import bernoulli_column_sampler, new_urn, run_urn


MINIMAL = """
[model]
kind = graph
types = 2
edges_per_step = 1
f = symmetric:0.9
"""


def write_config(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


# --------------------------------------------------------------------------
# config files

def test_minimal_config_gets_documented_defaults(tmp_path):
    cfg = parse_config(write_config(tmp_path, MINIMAL))
    assert cfg.model == "graph"
    assert cfg.n_types == 2
    assert cfg.m_edges == 1
    assert np.allclose(cfg.f_matrix, [[0.9, 0.1], [0.1, 0.9]])
    assert cfg.n_steps == 10_000
    assert cfg.snapshot_every == 1_000
    assert cfg.replicates == 1
    assert cfg.master_seed == 0
    assert cfg.max_weight == 30
    assert cfg.cutoff == 11  # m + 10
    assert cfg.tv_tolerance == 0.02
    assert cfg.pass_fraction == 0.95


def test_config_bad_row_names_the_key(tmp_path):
    bad = MINIMAL.replace("symmetric:0.9", "0.9,0.1,0.3,0.6")
    with pytest.raises(ValidationError) as err:
        parse_config(write_config(tmp_path, bad))
    assert "f row 2" in str(err.value)


def test_config_missing_file_is_parse_error(tmp_path):
    with pytest.raises(ValidationError, match="^cannot read config "):
        parse_config(tmp_path / "nope.ini")


def test_config_malformed_ini_is_parse_error(tmp_path):
    with pytest.raises(ValidationError, match="^config .*: File contains no "
                       "section headers"):
        parse_config(write_config(tmp_path, "types = 2\nno section header"))


def test_config_requires_types_and_f(tmp_path):
    with pytest.raises(ValidationError):
        parse_config(write_config(tmp_path, "[model]\nkind = graph\n"))
    with pytest.raises(ValidationError):
        parse_config(write_config(tmp_path, "[model]\ntypes = 2\n"))


def test_config_explicit_matrix_and_urn_fields(tmp_path):
    text = """
[model]
kind = urn
types = 2
edges_per_step = 3
f = 0.8,0.2,0.4,0.6

[urn]
initial_composition = 2,5

[run]
steps = 123
master_seed = 9
"""
    cfg = parse_config(write_config(tmp_path, text))
    assert cfg.model == "urn"
    assert cfg.urn_composition() == [2, 5]
    assert cfg.n_steps == 123
    assert cfg.m_edges == 3
    assert cfg.master_seed == 9


def test_config_seed_graph_file(tmp_path):
    seed = tmp_path / "seed.txt"
    seed.write_text("0 1 1\n0 1 2\n1 2 1\n")
    text = MINIMAL + f"\n[graph]\nseed_graph = {seed}\n"
    cfg = parse_config(write_config(tmp_path, text))
    assert cfg.seed_edges == [(0, 1, 0), (0, 1, 1), (1, 2, 0)]
    assert cfg.urn_composition() == [2, 1]


def test_matrix_file_format(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("2\n0.9 0.1\n0.1 0.9\n")
    assert np.allclose(read_matrix(path), [[0.9, 0.1], [0.1, 0.9]])
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n0.9 0.1 0.1\n")
    with pytest.raises(ValidationError, match=r"expected 2\*2 entries, got 3$"):
        read_matrix(bad)


# --------------------------------------------------------------------------
# CLI basics

def test_unknown_subcommand_exits_two(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_usage_error_exits_two(capsys):
    assert main(["solve"]) == 2  # neither --config nor --n
    capsys.readouterr()


def test_solve_single_type_csv_value(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["solve", "--n", "1", "--m", "2", "--dmax", "50",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    header, rows = read_rows(out / "distribution.csv")
    assert header == ["d_1", "mass", "provenance"]
    table = {int(r[0]): float(r[1]) for r in rows}
    assert table[2] == 0.5
    assert abs(table[3] - 0.2) < 1e-15
    assert rows[0][2] == "THEORETICAL_PERTURBED"


def test_solve_unperturbed_cli(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["solve-unperturbed", "--n", "2", "--m", "1",
                 "--psi", "0.5,0.5", "--dmax", "10",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    header, rows = read_rows(out / "distribution.csv")
    table = {(int(r[0]), int(r[1])): float(r[2]) for r in rows}
    assert abs(table[(1, 0)] - 1 / 3) < 1e-12
    assert rows[0][3] == "THEORETICAL_UNPERTURBED"


def test_e0_records_the_seed_its_draw_used(tmp_path, capsys):
    # a config's master_seed draws psi as --seed does, and the manifest
    # records it either way
    cfg = write_config(tmp_path,
                       "[model]\ntypes = 2\n[run]\nmaster_seed = 5\n")
    runs = {}
    for name, seed_args in (("config", ["--config", str(cfg)]),
                            ("flag", ["--n", "2", "--seed", "5"])):
        out = tmp_path / name
        assert main(["solve-unperturbed", *seed_args, "--e0", "1,1",
                     "--out", str(out)]) == 0
        runs[name] = json.loads((out / "manifest.json").read_text())
    capsys.readouterr()
    assert runs["config"]["master_seed"] == runs["flag"]["master_seed"] == 5
    assert runs["config"]["config"] == runs["flag"]["config"]


def test_psi_and_e0_together_is_usage_error(tmp_path, capsys):
    assert main(["solve-unperturbed", "--n", "2", "--psi", "0.5,0.5",
                 "--e0", "3,1", "--out", str(tmp_path / "o")]) == 2
    assert "give --psi or --e0, not both" in capsys.readouterr().err


def test_solve_unperturbed_ignores_the_config_f(tmp_path, capsys):
    # solve-unperturbed never reads F, so a config's f, even one that is
    # not stochastic, changes nothing
    digests = []
    for name, f_line in (("b.ini", "f = 0.9,0.2,0.1,0.9\n"), ("a.ini", "")):
        cfg = write_config(tmp_path, "[model]\ntypes = 2\n" + f_line, name)
        out = tmp_path / f"out_{name}"
        assert main(["solve-unperturbed", "--config", str(cfg),
                     "--psi", "0.5,0.5", "--out", str(out)]) == 0
        digests.append(file_digest(out / "distribution.csv"))
    capsys.readouterr()
    assert digests[0] == digests[1]


def test_non_finite_psi_and_f_are_usage_errors(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["solve-unperturbed", "--n", "2", "--m", "1",
                 "--psi", "nan,0.5", "--out", out]) == 2
    assert "is not a probability vector" in capsys.readouterr().err
    assert main(["solve", "--n", "2", "--f", "0.5,0.5,nan,0.5",
                 "--out", out]) == 2
    assert "has entries outside [0, 1]" in capsys.readouterr().err


def test_manifest_lists_outputs_with_correct_digests(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["solve", "--n", "1", "--m", "1", "--dmax", "10",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tool"] == "mtpa"
    assert manifest["command"][0] == "mtpa"
    assert set(manifest["outputs"]) == {"distribution.csv"}
    digest = manifest["outputs"]["distribution.csv"]
    assert digest == f"sha256:{file_digest(out / 'distribution.csv')}"


def test_simulate_graph_outputs_and_reproducibility(tmp_path, capsys):
    args = ["simulate-graph", "--n", "2", "--f", "symmetric:0.9",
            "--m", "1", "--steps", "300", "--snapshot-every", "100",
            "--seed", "17"]
    out_a, out_b, out_c = (tmp_path / s for s in ("a", "b", "c"))
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    capsys.readouterr()
    for name in ("psi.csv", "distribution.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    assert main(["simulate-graph", "--n", "2", "--f", "symmetric:0.9",
                 "--m", "1", "--steps", "300", "--snapshot-every", "100",
                 "--seed", "18", "--out", str(out_c)]) == 0
    capsys.readouterr()
    assert (out_a / "psi.csv").read_bytes() != (out_c / "psi.csv").read_bytes()
    header, rows = read_rows(out_a / "psi.csv")
    assert header == ["n", "psi_1", "psi_2"]
    assert [int(r[0]) for r in rows] == [0, 100, 200, 300]


def test_simulate_urn_trajectory_format(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["simulate-urn", "--n", "2", "--f", "0.8,0.2,0.4,0.6",
                 "--c0", "1,3", "--steps", "200", "--snapshot-every", "50",
                 "--seed", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    header, rows = read_rows(out / "trajectory.csv")
    assert header == ["n", "c_1", "c_2", "frac_1", "frac_2"]
    assert rows[0][:3] == ["0", "1", "3"]
    final = rows[-1]
    assert int(final[1]) + int(final[2]) == 4 + 200


def test_compare_exit_codes(tmp_path, capsys):
    passing = write_config(tmp_path, """
[model]
kind = urn
types = 2
f = 0.8,0.2,0.4,0.6
[run]
steps = 4000
replicates = 4
master_seed = 5
[compare]
psi_tolerance = 0.2
""", name="pass.ini")
    out = tmp_path / "pass_out"
    assert main(["compare", "--config", str(passing),
                 "--out", str(out)]) == 0
    report = (out / "report.txt").read_text()
    assert "overall: PASS" in report
    capsys.readouterr()

    failing = write_config(tmp_path, """
[model]
kind = urn
types = 2
f = 0.8,0.2,0.4,0.6
[run]
steps = 100
replicates = 4
master_seed = 5
[compare]
psi_tolerance = 0.000000001
""", name="fail.ini")
    out2 = tmp_path / "fail_out"
    assert main(["compare", "--config", str(failing),
                 "--out", str(out2)]) == 1
    assert "overall: FAIL" in (out2 / "report.txt").read_text()
    capsys.readouterr()


def test_compare_graph_writes_error_table(tmp_path, capsys):
    cfg = write_config(tmp_path, """
[model]
kind = graph
types = 2
f = symmetric:0.9
[run]
steps = 500
replicates = 2
master_seed = 11
[compare]
d_max = 20
cutoff = 6
tv_tolerance = 1.0
psi_tolerance = 1.0
""")
    out = tmp_path / "out"
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    header, rows = read_rows(out / "errors.csv")
    assert header == ["d_1", "d_2", "empirical_mean", "theoretical",
                      "abs_error"]
    assert rows  # at least the low-weight cells
    header, rows = read_rows(out / "replicates.csv")
    assert header == ["replicate", "tv", "psi_error"]
    assert len(rows) == 2


def test_diagnose_series_csv(tmp_path, capsys):
    cfg = write_config(tmp_path, MINIMAL + """
[run]
steps = 10000
snapshot_every = 2500
""")
    out = tmp_path / "out"
    assert main(["diagnose", "--config", str(cfg), "--quantity", "u_n",
                 "--d", "2,1", "--out", str(out)]) == 0
    capsys.readouterr()
    header, rows = read_rows(out / "series.csv")
    assert header == ["n", "u_n", "limit", "abs_error"]
    assert float(rows[-1][3]) < 1e-3


def test_diagnose_np_el_uses_one_based_type(tmp_path, capsys):
    cfg = write_config(tmp_path, MINIMAL + """
[run]
steps = 10000
snapshot_every = 5000
""")
    out = tmp_path / "out"
    assert main(["diagnose", "--config", str(cfg), "--quantity", "np_el",
                 "--d", "2,1", "--l", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    _, rows = read_rows(out / "series.csv")
    assert float(rows[-1][1]) == pytest.approx(0.5, abs=1e-3)


def test_study_cli(tmp_path, capsys):
    cfg = write_config(tmp_path, MINIMAL + """
[run]
master_seed = 2
[compare]
d_max = 6
cutoff = 2
""")
    out = tmp_path / "out"
    assert main(["study", "--config", str(cfg), "--psi-samples", "200",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    header, rows = read_rows(out / "study.csv")
    assert header == ["d_1", "d_2", "unperturbed_mean", "unperturbed_std",
                      "perturbed"]
    table = {(int(r[0]), int(r[1])): tuple(map(float, r[2:])) for r in rows}
    assert table[(1, 0)][2] == pytest.approx(1 / 3, abs=1e-12)


def test_config_error_exits_two(tmp_path, capsys):
    bad = write_config(tmp_path, MINIMAL.replace("symmetric:0.9",
                                                 "0.9,0.2,0.1,0.9"))
    assert main(["compare", "--config", str(bad),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "f row" in err


# --------------------------------------------------------------------------
# config validation and flag resolution

DECAYING_GRAPH = MINIMAL + """schedule = decaying
decay = 0.1,-0.1,-0.1,0.1
decay_rho = -1
"""


def test_config_grammar_matches_allowed_keys():
    import mtpa.config as config

    grammar = {}
    section = None
    for line in config.__doc__.splitlines():
        if not line.startswith("    "):  # the grammar block is indented
            continue
        line = line.split("#", 1)[0].strip()
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
            grammar[section] = set()
        elif section and "=" in line:
            grammar[section].add(line.split("=", 1)[0].strip())
    assert grammar == {section: set(keys)
                       for section, keys in config.FIELDS.items()}


@pytest.mark.parametrize("text, named", [
    (MINIMAL.replace("edges_per_step", "edges_per_stp"), "model.edges_per_stp"),
    (MINIMAL + "\n[run]\nstep = 100\n", "run.step"),
    (MINIMAL + "\n[grpah]\nseed_graph = s.txt\n", "[grpah]"),
    ("[DEFAULT]\nsteps = 5\n" + MINIMAL, "[DEFAULT]"),
])
def test_config_unknown_key_is_usage_error(tmp_path, capsys, text, named):
    path = write_config(tmp_path, text)
    with pytest.raises(ValidationError) as err:
        parse_config(path)
    assert named in str(err.value)
    assert main(["simulate-graph", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    assert named in capsys.readouterr().err


def test_urn_config_rejects_decaying_schedule(tmp_path, capsys):
    urn = write_config(tmp_path, DECAYING_GRAPH.replace("kind = graph",
                                                        "kind = urn"))
    with pytest.raises(ValidationError):
        parse_config(urn)
    assert main(["compare", "--config", str(urn),
                 "--out", str(tmp_path / "a")]) == 2
    assert "schedule" in capsys.readouterr().err


@pytest.mark.parametrize("decay, rho, message", [
    (None, 1.0, "decaying schedule needs a decay matrix"),
    ([[0.1, -0.1]], 1.0, "decay matrix shape does not match F"),
    ([[0.5, 0.5], [0.5, 0.5]], -3.0, "decay matrix rows must sum to 0"),
    ([[0.1, -0.1], [0.0, 0.0]], 0.0, "decay exponent rho must be positive"),
], ids=["missing", "shape", "row_sums", "rho"])
def test_config_and_schedule_reject_a_decay_alike(decay, rho, message):
    f = [[0.9, 0.1], [0.1, 0.9]]
    with pytest.raises(ValidationError, match=f"^{message}$"):
        ExperimentConfig(2, f_matrix=f, schedule_kind="decaying",
                         decay_matrix=decay, decay_rho=rho)
    with pytest.raises(ValidationError, match=f"^{message}$"):
        PerturbationSchedule(f, "decaying", decay, rho)


def test_simulate_urn_rejects_decaying_graph_config(tmp_path, capsys):
    graph = write_config(tmp_path, DECAYING_GRAPH.replace("decay_rho = -1",
                                                          "decay_rho = 1"))
    assert parse_config(graph).schedule_kind == "decaying"
    assert main(["simulate-urn", "--config", str(graph), "--steps", "10",
                 "--out", str(tmp_path / "a")]) == 2
    assert "schedule" in capsys.readouterr().err


def test_seed_graph_is_relative_to_the_config_file(tmp_path, monkeypatch,
                                                    capsys):
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "seed.txt").write_text("0 1 1\n0 1 2\n1 2 1\n")
    cfg = write_config(sub, MINIMAL + "\n[graph]\nseed_graph = seed.txt\n")
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    assert parse_config(cfg).seed_edges == [(0, 1, 0), (0, 1, 1), (1, 2, 0)]
    assert main(["simulate-graph", "--config", "../sub/cfg.ini",
                 "--steps", "5", "--out", "o"]) == 0
    capsys.readouterr()
    manifest = json.loads((elsewhere / "o" / "manifest.json").read_text())
    assert manifest["config"]["seed_edges"] == [[0, 1, 0], [0, 1, 1], [1, 2, 0]]


def test_model_flags_override_a_config_in_every_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path, MINIMAL)
    model = ["--m", "2", "--f", "symmetric:0.7"]
    for command, flags, name in (
            ("solve", model + ["--dmax", "10"], "distribution.csv"),
            ("simulate-graph", model + ["--steps", "50"], "distribution.csv"),
            ("simulate-urn", model + ["--steps", "50"], "trajectory.csv")):
        via_config, via_flags = tmp_path / f"{command}_c", tmp_path / f"{command}_f"
        assert main([command, "--config", str(cfg)] + flags
                    + ["--out", str(via_config)]) == 0
        assert main([command, "--n", "2"] + flags
                    + ["--out", str(via_flags)]) == 0
        assert ((via_config / name).read_bytes()
                == (via_flags / name).read_bytes()), command
    capsys.readouterr()
    manifest = json.loads((tmp_path / "solve_c" / "manifest.json").read_text())
    assert manifest["config"]["m_edges"] == 2
    # a type count that does not fit the config's F is a usage error
    assert main(["solve", "--config", str(cfg), "--n", "3",
                 "--out", str(tmp_path / "bad")]) == 2
    assert "types" in capsys.readouterr().err


@pytest.mark.parametrize("argv, named", [
    (["simulate-urn", "--n", "2", "--f", "symmetric:0.9", "--c0", "1,x"],
     "--c0"),
    (["solve-unperturbed", "--n", "2", "--psi", "0.5,x"], "--psi"),
    (["solve-unperturbed", "--n", "2", "--e0", "1,z"], "--e0"),
    (["diagnose", "--config", "cfg.ini", "--quantity", "u_n", "--d", "2,y"],
     "--d"),
    (["simulate-urn", "--config", "urn.ini"], "urn.initial_composition"),
], ids=["c0", "psi", "e0", "d", "initial_composition"])
def test_malformed_list_is_usage_error(tmp_path, monkeypatch, capsys, argv,
                                       named):
    write_config(tmp_path, MINIMAL)
    write_config(tmp_path, MINIMAL.replace("kind = graph", "kind = urn")
                 + "\n[urn]\ninitial_composition = 1,x\n", name="urn.ini")
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out", "o"]) == 2
    assert f"error: {named}:" in capsys.readouterr().err


def test_decay_with_constant_schedule_is_usage_error(tmp_path, capsys):
    for line in ("decay = 0.1,-0.1,-0.1,0.1", "decay_rho = 7"):
        path = write_config(tmp_path, MINIMAL + line + "\n")
        key = line.split(" =")[0]
        with pytest.raises(ValidationError, match=f"^{key} is set"):
            parse_config(path)
        assert main(["simulate-graph", "--config", str(path), "--steps", "5",
                     "--out", str(tmp_path / "o")]) == 2
        assert "schedule is constant" in capsys.readouterr().err


def test_unknown_schedule_is_usage_error(tmp_path, capsys):
    # solve, study and diagnose u_n never build the schedule itself
    path = write_config(tmp_path, MINIMAL + "schedule = bogus\n")
    for argv in (["solve"], ["study", "--psi-samples", "2"],
                 ["diagnose", "--quantity", "u_n", "--d", "1,0"]):
        assert main(argv + ["--config", str(path),
                            "--out", str(tmp_path / "o")]) == 2
        assert "unknown schedule kind 'bogus'" in capsys.readouterr().err


def test_cutoff_below_m_is_usage_error(tmp_path, capsys):
    # no vertex weighs less than m, so the comparison would pass vacuously;
    # the cutoff is checked where a comparison reads it, not on parsing
    path = write_config(tmp_path, MINIMAL.replace("edges_per_step = 1",
                                                  "edges_per_step = 2")
                        + "\n[run]\nsteps = 10\n\n[compare]\ncutoff = 1\n")
    with pytest.raises(ValidationError, match="cutoff 1 is below m 2"):
        run_experiment(parse_config(path))
    for argv in (["compare"], ["diagnose", "--quantity", "tv"]):
        assert main(argv + ["--config", str(path),
                            "--out", str(tmp_path / "o")]) == 2
        assert "cutoff 1 is below m 2" in capsys.readouterr().err


def test_a_bound_is_checked_only_by_the_commands_that_read_it(tmp_path,
                                                              capsys):
    # solve reads no cutoff
    solve = write_config(tmp_path, MINIMAL + "\n[compare]\nd_max = 60\n"
                         "cutoff = 20\n", name="solve.ini")
    out = tmp_path / "solve"
    assert main(["solve", "--config", str(solve), "--m", "25",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["config"]["m_edges"], manifest["config"]["d_max"]) == (
        25, 60)
    # compare reads no d_max: its cutoff follows m = 6 to its default, 16
    compare = write_config(
        tmp_path, MINIMAL.replace("edges_per_step = 1", "edges_per_step = 6")
        + "\n[run]\nsteps = 20\n\n[compare]\nd_max = 5\n"
        "tv_tolerance = 1.0\npsi_tolerance = 1.0\n", name="compare.ini")
    out = tmp_path / "compare"
    assert main(["compare", "--config", str(compare),
                 "--out", str(out)]) == 0
    assert "(cutoff 16)" in capsys.readouterr().out
    # and the solve commands still reject a d_max below m
    for argv in (["solve"], ["solve-unperturbed", "--psi", "0.5,0.5"]):
        assert main(argv + ["--config", str(compare),
                            "--out", str(tmp_path / "o")]) == 2
        assert "d_max 5 is below m 6" in capsys.readouterr().err


SOLVED_TO_THE_CUTOFF = MINIMAL + """
[run]
steps = 300
snapshot_every = 100
replicates = 2
master_seed = 4
[compare]
cutoff = 9
tv_tolerance = 1.0
psi_tolerance = 1.0
"""


@pytest.mark.parametrize("argv, names", [
    (["compare"], ("report.txt", "errors.csv", "replicates.csv")),
    (["diagnose", "--quantity", "tv"], ("series.csv",)),
], ids=["compare", "diagnose-tv"])
def test_comparisons_do_not_read_d_max(tmp_path, capsys, argv, names):
    # d_max = cutoff, the default (30) and 200 give the same bytes
    outputs = []
    for d_max in ("9", None, "200"):
        text = SOLVED_TO_THE_CUTOFF + (f"d_max = {d_max}\n" if d_max else "")
        path = write_config(tmp_path, text, name=f"{d_max}.ini")
        out = tmp_path / f"out_{d_max}"
        assert main(argv + ["--config", str(path), "--out", str(out)]) == 0
        outputs.append([(out / name).read_bytes() for name in names])
    capsys.readouterr()
    assert outputs[0] == outputs[1] == outputs[2]


def test_a_cutoff_past_d_max_is_no_error(tmp_path, capsys):
    # only the solve commands read d_max, and they read no cutoff
    path = write_config(tmp_path, MINIMAL + "\n[run]\nsteps = 50\n"
                        "\n[compare]\nd_max = 12\ncutoff = 20\n"
                        "tv_tolerance = 1.0\npsi_tolerance = 1.0\n")
    for argv in (["solve"], ["compare"], ["study", "--psi-samples", "2"]):
        assert main(argv + ["--config", str(path),
                            "--out", str(tmp_path / argv[0])]) == 0, argv
    capsys.readouterr()
    manifest = json.loads((tmp_path / "solve" / "manifest.json").read_text())
    assert manifest["config"]["d_max"] == 12


def test_dmax_sets_the_config_field(tmp_path, capsys):
    path = write_config(tmp_path, MINIMAL + "\n[compare]\nd_max = 12\n")
    out = tmp_path / "o"
    assert main(["solve", "--config", str(path), "--dmax", "9",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["d_max"] == 9
    # one range check for the file and the flag
    assert main(["solve", "--n", "1", "--m", "3", "--dmax", "2",
                 "--out", str(out)]) == 2
    assert "d_max 2 is below m 3" in capsys.readouterr().err


def test_m_dependent_defaults_follow_an_m_flag(tmp_path, capsys):
    # the config (m = 1) sets neither d_max nor cutoff
    path = write_config(tmp_path, MINIMAL)
    out = tmp_path / "o"
    assert main(["solve", "--config", str(path), "--m", "40",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["m_edges"] == 40
    assert manifest["config"]["d_max"] == 50
    # an explicit d_max still wins, and one below m is a usage error
    explicit = write_config(tmp_path, MINIMAL + "\n[compare]\nd_max = 45\n"
                            "cutoff = 42\n", name="explicit.ini")
    assert main(["solve", "--config", str(explicit), "--m", "40",
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["d_max"] == 45
    assert main(["solve", "--config", str(explicit), "--m", "46",
                 "--out", str(out)]) == 2
    assert "below m" in capsys.readouterr().err


# --------------------------------------------------------------------------
# one place for every default and range check: ExperimentConfig

def test_config_fields_are_only_what_the_file_sets(tmp_path):
    fields = config_fields(write_config(tmp_path, MINIMAL))
    assert set(fields) == {"model", "n_types", "m_edges", "f_matrix"}


def test_flags_and_a_config_resolve_alike(tmp_path):
    parser = build_parser()
    flags = parser.parse_args(["simulate-graph", "--n", "2",
                               "--f", "symmetric:0.9"])
    config = parser.parse_args(["simulate-graph", "--config",
                                str(write_config(tmp_path, MINIMAL))])
    assert (_resolve_config(flags, model="graph").resolved()
            == _resolve_config(config, model="graph").resolved())


@pytest.mark.parametrize("text, named", [
    (MINIMAL.replace("kind = graph", "kind ="), "model.kind is empty"),
    (MINIMAL + "schedule =\n", "model.schedule is empty"),
    (MINIMAL + "\n[graph]\nseed_graph =\n", "graph.seed_graph is empty"),
    (MINIMAL + "\n[run]\nsteps =\n", "run.steps is empty"),
], ids=["kind", "schedule", "seed_graph", "steps"])
def test_empty_value_is_usage_error(tmp_path, capsys, text, named):
    path = write_config(tmp_path, text)
    assert main(["simulate-graph", "--config", str(path), "--steps", "5",
                 "--out", str(tmp_path / "o")]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["simulate-graph", "--n", "2", "--f", "symmetric:0.9", "--steps", "5",
     "--seed", "-1"],
    ["simulate-urn", "--n", "2", "--f", "symmetric:0.9", "--steps", "5",
     "--seed", "-1"],
    ["compare", "--config", "seed.ini"],
    ["solve", "--n", "2", "--f", "symmetric:0.9", "--seed", "-2"],
], ids=["simulate-graph", "simulate-urn", "compare", "solve"])
def test_negative_seed_is_usage_error(tmp_path, monkeypatch, capsys, argv):
    write_config(tmp_path, MINIMAL + "\n[run]\nsteps = 5\nmaster_seed = -3\n",
                 name="seed.ini")
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out", "o"]) == 2
    assert "master_seed must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("tolerances, named", [
    ("tv_tolerance = nan\npass_fraction = nan\n", "tv_tolerance"),
    ("psi_tolerance = inf\n", "psi_tolerance"),
    ("pass_fraction = -inf\n", "pass_fraction"),
], ids=["nan", "inf", "-inf"])
def test_non_finite_tolerance_is_usage_error(tmp_path, capsys, tolerances,
                                             named):
    path = write_config(tmp_path, MINIMAL + "\n[run]\nsteps = 50\n"
                        "\n[compare]\n" + tolerances)
    assert main(["compare", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    assert f"{named} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "o" / "report.txt").exists()


@pytest.mark.parametrize("argv, message", [
    (["np_el", "--d", "1,2,3", "--l", "1"], "has 3 entries for 2 types"),
    (["np_el", "--d", "1,2", "--l", "5"], "target type 5 is not one of 1..2"),
    (["np_el", "--d", "1,2", "--l", "0"], "target type 0 is not one of 1..2"),
    (["u_n", "--d", "1"], "has 1 entries for 2 types"),
    (["u_n", "--d", "1,1", "--l", "1"], "the u_n series reads no target type"),
    (["psi", "--d", "1,1"], "the psi series reads no target degree"),
    (["tv", "--l", "1"], "the tv series reads no target type"),
    (["np_el", "--l", "1"], "the np_el series needs target degree"),
], ids=["np_el-d3", "np_el-l5", "np_el-l0", "u_n-d1", "u_n-l", "psi-d",
        "tv-l", "np_el-no-d"])
def test_diagnose_targets_are_checked(tmp_path, capsys, argv, message):
    path = write_config(tmp_path, MINIMAL + "\n[run]\nsteps = 20\n"
                        "snapshot_every = 10\n")
    assert main(["diagnose", "--config", str(path), "--quantity"] + argv
                + ["--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err


def test_config_only_commands_require_a_config(capsys):
    for command in ("compare", "diagnose", "study"):
        assert main([command, "--quantity", "psi"] if command == "diagnose"
                    else [command]) == 2
        assert "required: --config" in capsys.readouterr().err


# --------------------------------------------------------------------------
# each subcommand takes exactly the flags it reads

def option_strings(command) -> set:
    parser = build_parser()
    sub = next(action for action in parser._actions
               if action.dest == "command").choices[command]
    return {s for action in sub._actions for s in action.option_strings
            } - {"-h", "--help"}


def test_each_command_takes_only_the_flags_it_reads():
    model = {"--config", "--seed", "--out", "--n", "--m", "--f", "--f-file"}
    run = {"--config", "--seed", "--out", "--replicates", "--steps"}
    expected = {
        "simulate-graph": model | {"--steps", "--snapshot-every",
                                   "--seed-graph"},
        "simulate-urn": model | {"--steps", "--snapshot-every", "--c0"},
        "solve": model | {"--dmax"},
        "solve-unperturbed": {"--config", "--seed", "--out", "--n", "--m",
                              "--dmax", "--psi", "--e0"},
        "compare": run,
        "diagnose": run | {"--snapshot-every", "--quantity", "--d", "--l"},
        "study": {"--config", "--seed", "--out", "--psi-samples"},
    }
    for command, flags in expected.items():
        assert option_strings(command) == flags, command
    assert sum(len(flags) for flags in expected.values()) == 54


def test_every_flag_is_some_commands_and_every_listed_flag_is_known():
    listed = {flag.rstrip("!") for _, _, flags in COMMANDS.values()
              for flag in flags.split()}
    assert listed == set(FLAGS)


def test_the_readme_flag_table_lists_exactly_the_commands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| subcommand | flags |\n|---|---|\n", 1)[1]
    rows = re.findall(r"^\| `([^`]+)` \| `([^`]+)` \|$",
                      table.split("\n\n", 1)[0], re.M)
    assert rows == [(name, flags) for name, (_, _, flags) in COMMANDS.items()]


BASE_ARGV = {
    "simulate-graph": ["simulate-graph", "--n", "2", "--f", "symmetric:0.9",
                       "--steps", "5"],
    "simulate-urn": ["simulate-urn", "--n", "2", "--f", "symmetric:0.9",
                     "--steps", "5"],
    "solve": ["solve", "--n", "2", "--f", "symmetric:0.9", "--dmax", "5"],
    "compare": ["compare", "--config", "urn.ini", "--steps", "20"],
    "solve-unperturbed": ["solve-unperturbed", "--n", "2", "--psi", "0.5,0.5",
                          "--dmax", "5"],
    "study": ["study", "--config", "cfg.ini", "--psi-samples", "2"],
}

# flags no code path of their command reads, flags that change none of
# their command's outputs, and spellings that are gone
UNREAD = ([("simulate-graph", ["--replicates", "4"]),
           ("simulate-urn", ["--replicates", "4"]),
           ("compare", ["--snapshot-every", "5"])]
          + [(command, [flag, "5"])
             for command in ("solve", "solve-unperturbed", "study")
             for flag in ("--replicates", "--steps", "--snapshot-every")]
          + [("solve-unperturbed", ["--f", "symmetric:0.9"]),
             ("solve-unperturbed", ["--f-file", "f.txt"]),
             ("solve", ["--d", "12"])]  # not an abbreviation of --dmax
          + [(command, ["--types", "2"])
             for command in ("simulate-graph", "simulate-urn", "solve",
                             "solve-unperturbed")])


@pytest.mark.parametrize("command, extra", UNREAD,
                         ids=[f"{c} {e[0]}" for c, e in UNREAD])
def test_an_unread_flag_is_a_usage_error(tmp_path, monkeypatch, capsys,
                                         command, extra):
    write_config(tmp_path, MINIMAL)
    write_config(tmp_path, MINIMAL.replace("graph", "urn")
                 + "[compare]\npsi_tolerance = 1.0\n", name="urn.ini")
    (tmp_path / "f.txt").write_text("2 0.9 0.1 0.1 0.9\n")
    monkeypatch.chdir(tmp_path)
    assert main(BASE_ARGV[command] + ["--out", "o"]) == 0
    assert main(BASE_ARGV[command] + extra + ["--out", "o"]) == 2
    assert f"unrecognized arguments: {extra[0]}" in capsys.readouterr().err


def test_the_un_spelling_of_u_n_is_gone(tmp_path, monkeypatch, capsys):
    diagnose = ["diagnose", "--config", str(write_config(tmp_path, MINIMAL)),
                "--d", "2,1", "--out", str(tmp_path / "o"), "--quantity"]
    assert main(diagnose + ["u_n"]) == 0
    assert main(diagnose + ["un"]) == 2
    assert "unknown quantity 'un'" in capsys.readouterr().err


# --------------------------------------------------------------------------
# flip matrices and diagnose targets

TINY_NEGATIVE_F = "0.5,-1e-13,0.5000000000001,0.25,0.5,0.25,0.25,0.25,0.5"


def test_a_tiny_negative_f_entry_is_a_usage_error(tmp_path, capsys):
    # within the row-sum tolerance, but it would make its row CDF decrease
    path = write_config(tmp_path, MINIMAL.replace("types = 2", "types = 3")
                        .replace("symmetric:0.9", TINY_NEGATIVE_F))
    with pytest.raises(ValidationError, match="f has entries outside"):
        parse_config(path)
    for argv in (["simulate-graph", "--config", str(path)],
                 ["simulate-urn", "--n", "3", "--f", TINY_NEGATIVE_F]):
        assert main(argv + ["--steps", "5", "--out", str(tmp_path / "o")]) == 2
        assert "f has entries outside [0, 1]" in capsys.readouterr().err


def test_a_row_sum_prints_as_a_plain_float(tmp_path, capsys):
    assert main(["solve", "--n", "2", "--f", "0.9,0.1,0.3,0.8",
                 "--out", str(tmp_path / "o")]) == 2
    assert "error: f row 2 sums to 1.1, not 1\n" == capsys.readouterr().err


def test_one_type_symmetric_shorthand_is_its_one_entry(tmp_path, capsys):
    # with one type, symmetric:p is [[p]], which only p = 1 makes stochastic
    assert main(["solve", "--n", "1", "--f", "symmetric:0.3",
                 "--out", str(tmp_path / "o")]) == 2
    assert "f row 1 sums to 0.3, not 1" in capsys.readouterr().err
    solve = ["solve", "--n", "1", "--dmax", "20", "--out"]
    assert main(solve + [str(tmp_path / "p1"), "--f", "symmetric:1"]) == 0
    assert main(solve + [str(tmp_path / "default")]) == 0
    capsys.readouterr()
    assert ((tmp_path / "p1" / "distribution.csv").read_bytes()
            == (tmp_path / "default" / "distribution.csv").read_bytes())


@pytest.mark.parametrize("m, argv, weight, held", [
    (2, ["u_n", "--d", "0,0"], 0, "1,1"),
    (2, ["np_el", "--d", "1,0", "--l", "1"], 0, "2,1"),
    # the default seed's two vertices weigh 2 (one edge of each type), less
    # than m = 3, so weight 2 is the least a vertex can hold
    (3, ["u_n", "--d", "1,0"], 1, "1,1"),
    (3, ["np_el", "--d", "1,1", "--l", "2"], 1, "1,2"),
], ids=["u_n", "np_el", "u_n-seed", "np_el-seed"])
def test_diagnose_target_lighter_than_any_vertex(tmp_path, capsys, m, argv,
                                                 weight, held):
    path = write_config(tmp_path, MINIMAL.replace(
        "edges_per_step = 1", f"edges_per_step = {m}")
        + "\n[run]\nsteps = 20\nsnapshot_every = 10\n")
    diagnose = ["diagnose", "--config", str(path), "--out",
                str(tmp_path / "o"), "--quantity"]
    assert main(diagnose + argv) == 2
    assert (f"the {argv[0]} series reads a degree of weight {weight}, but no "
            "vertex weighs less than 2" in capsys.readouterr().err)
    assert main(diagnose + argv[:2] + [held] + argv[3:]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv, first", [
    # weight 5: the default seed's 2 edges hold it from step 3 on
    (["u_n", "--d", "3,2"], 10),
    # weight 59, d - e_1: 30 edges hold it from step 29 on
    (["np_el", "--d", "30,30", "--l", "1"], 30),
], ids=["u_n", "np_el"])
def test_diagnose_target_heavier_than_the_seed(tmp_path, capsys, argv,
                                               first):
    # the analytic series starts at the first snapshot step whose modelled
    # edges (2 + n - 1 before step n, at m = 1) can hold the degree it reads
    path = write_config(tmp_path, MINIMAL
                        + "\n[run]\nsteps = 100\nsnapshot_every = 10\n")
    out = tmp_path / "o"
    assert main(["diagnose", "--config", str(path), "--out", str(out),
                 "--quantity"] + argv) == 0
    capsys.readouterr()
    _, rows = read_rows(out / "series.csv")
    assert [int(row[0]) for row in rows] == list(range(first, 101, 10))


def test_diagnose_target_no_snapshot_step_can_hold(tmp_path, capsys):
    path = write_config(tmp_path, MINIMAL
                        + "\n[run]\nsteps = 100\nsnapshot_every = 10\n")
    assert main(["diagnose", "--config", str(path), "--out",
                 str(tmp_path / "o"), "--quantity", "u_n", "--d",
                 "300,2"]) == 2
    assert capsys.readouterr().err == (
        "error: the u_n series reads a degree of weight 302, but the 101 "
        "edges before step 100, the last, hold at most weight 202\n")


# --------------------------------------------------------------------------
# one snapshot rule for both simulators


@pytest.mark.parametrize("n_steps, every, steps", [
    (0, 5, [0]),
    (3, 5, [0, 3]),
    (10, 5, [0, 5, 10]),
    (11, 5, [0, 5, 10, 11]),
], ids=["zero-steps", "every-past-n", "every-divides", "every-leaves-rest"])
def test_snapshot_steps(n_steps, every, steps):
    assert snapshot_steps(n_steps, every) == steps


@pytest.mark.parametrize("n_steps, every, message", [
    (-1, 5, "n_steps must be nonnegative"),
    (10, 0, "snapshot_every must be at least 1"),
], ids=["negative-steps", "zero-every"])
def test_both_simulators_reject_a_bad_grid_alike(n_steps, every, message):
    match = f"^{message}$"
    with pytest.raises(ValidationError, match=match):
        snapshot_steps(n_steps, every)
    graph = new_graph(SeedGraphSpec.default(2))
    with pytest.raises(ValidationError, match=match):
        run(graph, PerturbationSchedule(np.eye(2)), 1, n_steps, every,
            replicate_stream(0, 0))
    sampler = bernoulli_column_sampler(np.eye(2))
    with pytest.raises(ValidationError, match=match):
        run_urn(new_urn([1, 1], 1, sampler), sampler, n_steps, every,
                replicate_stream(0, 0))
