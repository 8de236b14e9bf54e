"""Harness tests: TV metric, replicated experiments, diagnostics, studies."""
from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import mtpa
from mtpa import harness
from mtpa.cli import main
from mtpa.config import comparison_cutoff, parse_config
from mtpa.convergence import convergence_series
from mtpa.degrees import DegreeDistribution
from mtpa.errors import ValidationError
from mtpa.graph import empirical_distribution, new_graph, run
from mtpa.harness import (ExperimentConfig, max_workers,
                          perturbed_vs_unperturbed_study, replicate_stream,
                          run_experiment, tv_distance)
from mtpa.output import write_csv
from mtpa.theory import solve_recurrence
from test_run_urn import spy_chunks
from test_walk import sort_key

F_NEAR_ID = [[0.9, 0.1], [0.1, 0.9]]


def dist(masses):
    items = sorted(masses.items(), key=lambda item: sort_key(item[0]))
    return DegreeDistribution(np.array([d for d, _ in items]),
                              np.array([p for _, p in items]))


# --------------------------------------------------------------------------
# total variation

def test_tv_identical_distributions():
    p = dist({(1, 0): 0.4, (0, 1): 0.6})
    assert tv_distance(p, p, 5) == 0.0


def test_tv_disjoint_supports_inside_cutoff():
    p = dist({(1, 0): 1.0})
    q = dist({(0, 1): 1.0})
    assert tv_distance(p, q, 5) == 1.0


def test_tv_half_overlap():
    p = dist({(1, 0): 1.0})
    q = dist({(1, 0): 0.5, (0, 1): 0.5})
    assert tv_distance(p, q, 5) == 0.5


def test_tv_ignores_mass_beyond_cutoff():
    p = dist({(1, 0): 0.5, (9, 9): 0.5})
    q = dist({(1, 0): 0.5, (8, 8): 0.5})
    assert tv_distance(p, q, 2) == 0.0
    assert tv_distance(q, p, 2) == 0.0  # symmetric


def exact_tv(p, q, cutoff: int) -> float:
    """Half the L1 distance of the stored masses over the rows of weight at
    most `cutoff`, as an exact rational, rounded to a float once."""
    rows = {d for d in (*p.masses, *q.masses) if sum(d) <= cutoff}
    return float(sum(abs(Fraction(p.masses.get(d, 0.0))
                         - Fraction(q.masses.get(d, 0.0)))
                     for d in rows) / 2)


def test_tv_is_correctly_rounded_on_grown_graphs():
    cfg = ExperimentConfig(n_types=2, m_edges=2, f_matrix=F_NEAR_ID,
                           max_weight=16, cutoff=8)
    theory = solve_recurrence(cfg.f_matrix, 2, 16)
    wrong = []
    for seed in range(20):
        graph = new_graph(cfg.seed_spec())
        run(graph, cfg.schedule(), 2, 3000, 3000, replicate_stream(seed, 0),
            census=False)
        census = empirical_distribution(graph)
        want = exact_tv(census, theory, 8).hex()
        if {tv_distance(census, theory, 8).hex(),
                tv_distance(theory, census, 8).hex()} != {want}:
            wrong.append(seed)
    assert wrong == []


def test_tv_is_correctly_rounded_on_hand_built_rows():
    # m = 2 on the theory side: the census rows of weight 1 are its alone;
    # (3, 3) and (4, 4) lie past a cutoff of 3 on both sides
    census = dist({(1, 0): 0.1, (0, 1): 1 / 3, (0, 2): 0.2, (2, 1): 0.05,
                   (3, 3): 0.3169})
    theory = dist({(0, 2): 1 / 7, (1, 1): 0.3, (2, 0): 1 / 7, (2, 1): 0.11,
                   (4, 4): 0.3})
    empty = DegreeDistribution(np.empty((0, 2), dtype=np.int8), np.empty(0))
    for p, q in ((census, theory), (census, empty), (empty, theory),
                 (empty, empty)):
        for cutoff in (1, 2, 3, 8):
            assert tv_distance(p, q, cutoff).hex() == \
                exact_tv(p, q, cutoff).hex()
            assert tv_distance(q, p, cutoff).hex() == \
                exact_tv(p, q, cutoff).hex()
    assert tv_distance(empty, empty, 8) == 0.0


# --------------------------------------------------------------------------
# configs and streams

def test_config_validation():
    with pytest.raises(ValidationError):
        ExperimentConfig(model="bogus", n_types=2, m_edges=1,
                         f_matrix=F_NEAR_ID)
    with pytest.raises(ValidationError):
        ExperimentConfig(model="graph", n_types=2, m_edges=1,
                         f_matrix=F_NEAR_ID, replicates=0)


def test_default_cutoff_tracks_step_size():
    cfg = ExperimentConfig(model="graph", n_types=2, m_edges=3,
                           f_matrix=F_NEAR_ID, max_weight=30)
    assert cfg.cutoff == 13


def test_replicate_streams_are_independent_and_stable():
    a = replicate_stream(7, 0).random(4).tolist()
    b = replicate_stream(7, 1).random(4).tolist()
    again = replicate_stream(7, 0).random(4).tolist()
    assert a == again
    assert a != b
    assert replicate_stream(7, 0, lane=1).random(4).tolist() != a


def test_max_workers_env(monkeypatch, tmp_path, capsys):
    monkeypatch.delenv("MTPA_THREADS", raising=False)
    assert max_workers(8) == 1
    monkeypatch.setenv("MTPA_THREADS", "4")
    assert max_workers(8) == 4
    assert max_workers(2) == 2  # capped at replicate count
    monkeypatch.setenv("MTPA_THREADS", "0")
    assert max_workers(64) >= 1
    # all cores means the CPUs this process may run on, not the machine's
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert max_workers(64) == 1
    for bad in ("two", "1.5", "", "-1"):
        monkeypatch.setenv("MTPA_THREADS", bad)
        with pytest.raises(ValidationError):
            max_workers(8)
    from mtpa.cli import main
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[model]\ntypes = 1\n[run]\nsteps = 10\n")
    assert main(["diagnose", "--config", str(cfg), "--quantity", "psi",
                 "--out", str(tmp_path / "o")]) == 2
    assert "MTPA_THREADS" in capsys.readouterr().err


# --------------------------------------------------------------------------
# experiments

def small_graph_cfg(**overrides):
    base = dict(model="graph", n_types=2, m_edges=1, f_matrix=F_NEAR_ID,
                n_steps=400, snapshot_every=400, replicates=3, master_seed=60,
                max_weight=20, cutoff=8, tv_tolerance=1.0, psi_tolerance=1.0,
                pass_fraction=0.95)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_run_experiment_graph_report_shape():
    report = run_experiment(small_graph_cfg())
    assert report.cfg.model == "graph"
    assert len(report.replicates) == 3
    assert all(0.0 <= r.tv <= 1.0 for r in report.replicates)
    assert 0.0 <= report.mean_tv <= 1.0
    assert report.psi_reference == pytest.approx((0.5, 0.5), abs=1e-12)
    assert report.unaccounted_theory_mass >= 0.0
    assert report.passed
    assert any("overall: PASS" in line for line in report.summary_lines())


LIGHTER_THAN_M = """
[model]
types = 2
edges_per_step = 3
f = symmetric:0.9
[run]
steps = 2
replicates = 8
master_seed = 5
[compare]
tv_tolerance = 1.0
psi_tolerance = 1.0
"""


@pytest.mark.parametrize("threads", ("1", "2"))
def test_error_table_equals_a_dict_accumulation(tmp_path, monkeypatch,
                                                capsys, threads):
    # the default seed's two vertices weigh 2 < m = 3: while they gain no
    # edge, their rows lie outside the theory lattice
    monkeypatch.setenv("MTPA_THREADS", threads)
    path = tmp_path / "light.ini"
    path.write_text(LIGHTER_THAN_M)
    out = tmp_path / "out"
    assert main(["compare", "--config", str(path), "--out", str(out)]) == 0
    capsys.readouterr()

    cfg = parse_config(path)
    theory = solve_recurrence(cfg.f_matrix, cfg.m_edges,
                              cfg.max_weight).truncated(cfg.cutoff)
    acc = dict.fromkeys(theory.masses, 0.0)
    for index in range(cfg.replicates):
        _, _, census = harness._replicate(cfg, index)
        for d, p in census.masses.items():
            acc[d] = acc.get(d, 0.0) + p
    rows = []
    for d in sorted(acc, key=sort_key):
        emp, theo = acc[d] / cfg.replicates, theory.masses.get(d, 0.0)
        rows.append(d + (emp, theo, abs(emp - theo)))
    assert any(sum(d) < cfg.m_edges for d in acc)
    want = write_csv(tmp_path / "want.csv",
                     ["d_1", "d_2", "empirical_mean", "theoretical",
                      "abs_error"], rows)
    assert (out / "errors.csv").read_bytes() == want.read_bytes()


@pytest.mark.parametrize("threads", ("1", "2"))
def test_table_tvs_equal_tv_distance(tmp_path, monkeypatch, threads):
    # each TV is read off one table of the theory and all eight censuses;
    # it must be the pair's own TV bit for bit, though the table holds rows
    # that the pair lacks
    monkeypatch.setenv("MTPA_THREADS", threads)
    path = tmp_path / "light.ini"
    path.write_text(LIGHTER_THAN_M)
    cfg = parse_config(path)
    report = run_experiment(cfg)

    theory = solve_recurrence(cfg.f_matrix, cfg.m_edges,
                              comparison_cutoff(cfg))
    censuses = [harness._replicate(cfg, index)[2]
                for index in range(cfg.replicates)]
    rows = [set(census.masses) for census in censuses]
    assert any(row - set(theory.masses) for row in rows)
    assert any(row - other for row in rows for other in rows)
    tvs = [tv_distance(census, theory, cfg.cutoff) for census in censuses]
    assert [r.tv for r in report.replicates] == tvs
    assert report.mean_tv == float(np.mean(tvs))


OVER_CAP = """
[model]
types = 6
f = symmetric:0.5
[compare]
cutoff = 60
"""


@pytest.mark.parametrize("argv", (["compare"],
                                  ["diagnose", "--quantity", "tv"]),
                         ids=("compare", "diagnose-tv"))
def test_an_over_cap_cutoff_fails_before_any_replicate(tmp_path, monkeypatch,
                                                        capsys, argv):
    # the lattice up to weight 60 in 6 types holds C(66, 6) > 10**7 cells
    monkeypatch.delenv("MTPA_THREADS", raising=False)

    def no_growth(*args, **kwargs):
        raise AssertionError("a replicate started before the solve")

    # compare and diagnose tv both grow their replicates through harness.run
    monkeypatch.setattr(harness, "run", no_growth)
    path = tmp_path / "cap.ini"
    path.write_text(OVER_CAP)
    assert main(argv + ["--config", str(path),
                        "--out", str(tmp_path / "o")]) == 2
    assert ("lattice up to weight 60 in 6 types exceeds"
            in capsys.readouterr().err)


def test_run_experiment_degenerate_zero_steps():
    report = run_experiment(small_graph_cfg(replicates=1, n_steps=0))
    # empirical distribution is the seed census: all mass at (1, 1)
    assert len(report.replicates) == 1
    assert 0.0 <= report.replicates[0].tv <= 1.0
    assert report.passed


def test_run_experiment_records_tolerance_failures():
    report = run_experiment(small_graph_cfg(tv_tolerance=1e-9,
                                            psi_tolerance=1e-9))
    assert not report.passed
    assert report.tv_passed is False and report.psi_passed is False
    lines = report.summary_lines()
    assert lines[2].startswith("mean TV") and lines[2].endswith(": FAIL")
    assert lines[4].startswith("psi within") and lines[4].endswith(": FAIL")
    assert "overall: FAIL" in lines


def test_tolerance_equal_to_mean_tv_passes():
    mean_tv = run_experiment(small_graph_cfg()).mean_tv
    report = run_experiment(small_graph_cfg(tv_tolerance=mean_tv))
    assert report.mean_tv == report.cfg.tv_tolerance
    assert report.tv_passed and report.passed
    tv_line = next(line for line in report.summary_lines()
                   if line.startswith("mean TV"))
    assert tv_line.endswith(": PASS")


def test_summary_prints_the_stored_verdicts():
    # the text repeats the verdicts run_experiment reached, never re-decides
    report = run_experiment(small_graph_cfg())
    report.tv_passed = report.psi_passed = False
    lines = report.summary_lines()
    assert lines[2].endswith(": FAIL") and lines[4].endswith(": FAIL")
    assert lines[-1] == "overall: FAIL"


def test_a_conservation_violation_alone_fails_the_report():
    report = run_experiment(small_graph_cfg())
    assert report.passed
    report.replicates[0].violations.append("forced")
    assert not report.passed
    assert report.summary_lines()[-3:] == [
        "conservation checks: FAIL", "  violation: forced", "overall: FAIL"]


def test_run_experiment_is_reproducible():
    a = run_experiment(small_graph_cfg())
    b = run_experiment(small_graph_cfg())
    assert [r.tv for r in a.replicates] == [r.tv for r in b.replicates]
    assert [r.psi for r in a.replicates] == [r.psi for r in b.replicates]


def test_parallel_execution_matches_serial(monkeypatch):
    monkeypatch.delenv("MTPA_THREADS", raising=False)
    serial = run_experiment(small_graph_cfg(replicates=2, n_steps=200))
    monkeypatch.setenv("MTPA_THREADS", "2")
    parallel = run_experiment(small_graph_cfg(replicates=2, n_steps=200))
    assert [r.tv for r in serial.replicates] == \
        [r.tv for r in parallel.replicates]
    assert [r.psi for r in serial.replicates] == \
        [r.psi for r in parallel.replicates]


def test_importing_the_cli_loads_no_process_pool():
    # serial runs never start a pool, so they must not pay for importing one
    src = os.path.dirname(os.path.dirname(mtpa.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, mtpa.cli; print(sorted(name for name in "
            "('multiprocessing', 'concurrent.futures.process') "
            "if name in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    assert done.stdout.strip() == "[]"


def test_run_experiment_urn_mode():
    cfg = ExperimentConfig(model="urn", n_types=2, m_edges=1,
                           f_matrix=[[0.8, 0.2], [0.4, 0.6]],
                           initial_composition=[1, 3], n_steps=3000,
                           snapshot_every=3000, replicates=5, master_seed=61,
                           max_weight=15, cutoff=5, psi_tolerance=0.2)
    report = run_experiment(cfg)
    assert report.mean_tv is None
    assert report.psi_reference[0] == pytest.approx(2 / 3, abs=1e-12)
    assert len(report.replicates) == 5
    assert report.passed


URN_COMPARE_CFG = """
[model]
kind = urn
types = 3
edges_per_step = 4
f = 0.7,0.2,0.1,0.1,0.8,0.1,0.2,0.2,0.6
[run]
steps = 3000
snapshot_every = {every}
replicates = 2
master_seed = 64
[compare]
psi_tolerance = 1.0
"""


def test_urn_compare_chunks_ignore_snapshot_every(monkeypatch, tmp_path):
    # compare writes no snapshot, so a config's snapshot_every sets neither
    # the urn's stepping chunks nor a byte of the outputs
    monkeypatch.delenv("MTPA_THREADS", raising=False)
    # bound before the spy is set, so the harness's own check of the final
    # urn is not seen as a chunk
    harness._load("urn")
    runs = {}
    for every in (1, 3000):
        cfg = tmp_path / f"urn{every}.ini"
        cfg.write_text(URN_COMPARE_CFG.format(every=every))
        with monkeypatch.context() as patch:
            runs[every] = spy_chunks(patch)
            run_experiment(parse_config(cfg))
            assert main(["compare", "--config", str(cfg),
                         "--out", str(tmp_path / f"out{every}")]) == 0
    assert runs[1] == runs[3000]
    # the spy saw run_experiment's replicates and the CLI's alike
    assert sum(runs[1]) == 2 * 2 * 3000
    assert max(runs[1]) > 1
    for name in ("report.txt", "replicates.csv"):
        assert ((tmp_path / "out1" / name).read_bytes()
                == (tmp_path / "out3000" / name).read_bytes())


# --------------------------------------------------------------------------
# coupled graph/urn check

def test_graph_proportions_match_urn_in_distribution():
    # the edge-type counts of the growth model form exactly this urn:
    # terminal proportions across seeds must be KS-indistinguishable
    scipy_stats = pytest.importorskip("scipy.stats")
    from mtpa.graph import (PerturbationSchedule, SeedGraphSpec,
                            edge_type_proportions, new_graph, run)
    from mtpa.urn import bernoulli_column_sampler, new_urn, run_urn

    seeds = 40
    steps = 20_000
    schedule = PerturbationSchedule(F_NEAR_ID)
    graph_sample = []
    for r in range(seeds):
        g = new_graph(SeedGraphSpec.default(2))
        run(g, schedule, 1, steps, steps, replicate_stream(62, r), census=False)
        graph_sample.append(edge_type_proportions(g)[0])

    sampler = bernoulli_column_sampler(np.asarray(F_NEAR_ID))
    urn_sample = []
    for r in range(seeds):
        urn = new_urn([1, 1], 1, sampler)
        run_urn(urn, sampler, steps, steps, replicate_stream(63, r))
        urn_sample.append(urn.fractions()[0])

    result = scipy_stats.ks_2samp(graph_sample, urn_sample)
    assert result.pvalue > 0.01


def test_graph_proportion_variance_concentrates():
    cfg = small_graph_cfg()
    header, rows = convergence_series(
        ExperimentConfig(model="graph", n_types=2, m_edges=1,
                         f_matrix=F_NEAR_ID, n_steps=100_000,
                         snapshot_every=1000, replicates=12, master_seed=64,
                         max_weight=15, cutoff=5),
        "psi")
    idx_n = header.index("n")
    idx_psi1 = header.index("psi_1")
    early = [row[idx_psi1] for row in rows if row[idx_n] == 1000]
    late = [row[idx_psi1] for row in rows if row[idx_n] == 100_000]
    assert len(early) == len(late) == 12
    assert np.var(late) < np.var(early)


# --------------------------------------------------------------------------
# convergence series

def test_series_u_n_and_np_el_hit_limits():
    cfg = ExperimentConfig(model="graph", n_types=2, m_edges=2,
                           f_matrix=F_NEAR_ID, n_steps=10_000,
                           snapshot_every=2500, replicates=1, master_seed=65,
                           max_weight=20, cutoff=8)
    header, rows = convergence_series(cfg, "u_n", degree=(2, 1))
    assert header == ["n", "u_n", "limit", "abs_error"]
    assert all(row[2] == 1.5 for row in rows)
    assert rows[-1][3] < 1e-3

    header, rows = convergence_series(cfg, "np_el", degree=(2, 1),
                                      type_index=0)
    assert rows[-1][2] == pytest.approx(0.5, abs=1e-15)
    assert rows[-1][3] < 1e-3


def test_series_tv_shrinks_along_run():
    cfg = ExperimentConfig(model="graph", n_types=2, m_edges=1,
                           f_matrix=F_NEAR_ID, n_steps=20_000,
                           snapshot_every=1000, replicates=2, master_seed=66,
                           max_weight=20, cutoff=8)
    header, rows = convergence_series(cfg, "tv")
    by_rep = {}
    for rep, n, tv in rows:
        by_rep.setdefault(rep, []).append((n, tv))
    for series in by_rep.values():
        assert series[-1][1] < series[1][1]  # terminal below first post-seed


def test_series_argument_errors():
    cfg = small_graph_cfg()
    with pytest.raises(ValidationError, match="^unknown quantity 'entropy'$"):
        convergence_series(cfg, "entropy")
    with pytest.raises(ValidationError,
                       match="^the u_n series needs target degree$"):
        convergence_series(cfg, "u_n")
    with pytest.raises(ValidationError,
                       match="^the np_el series needs target type$"):
        convergence_series(cfg, "np_el", degree=(1, 1))
    # the urn has no seed graph for the analytic series to start from
    urn = small_graph_cfg(model="urn", initial_composition=[1, 3])
    for quantity, targets in (("tv", {}), ("u_n", dict(degree=(1, 1))),
                              ("np_el", dict(degree=(2, 1), type_index=0))):
        with pytest.raises(ValidationError,
                           match=f"^{quantity} series requires the graph"):
            convergence_series(urn, quantity, **targets)


# --------------------------------------------------------------------------
# perturbed vs unperturbed study

def test_study_spread_matches_uniform_proportions():
    # tree case, two types, unit seed counts: proportions are uniform on
    # [0,1], the weight-1 mass is (2/3) psi_1, so its spread is
    # (2/3) / sqrt(12) ~ 0.192
    cfg = ExperimentConfig(model="graph", n_types=2, m_edges=1,
                           f_matrix=F_NEAR_ID, master_seed=67, max_weight=6,
                           cutoff=2)
    study = perturbed_vs_unperturbed_study(cfg, 1500)
    row = study.degrees.tolist().index([1, 0])
    spread = study.unperturbed_std[row]
    assert abs(spread - 2 / 3 / np.sqrt(12)) < 0.02
    assert study.perturbed[row] == pytest.approx(1 / 3, abs=1e-12)
    # deterministic solver: identical masses on repeated solves
    again = perturbed_vs_unperturbed_study(cfg, 10)
    assert again.perturbed.tolist() == study.perturbed.tolist()


def test_study_requires_single_edge_steps_for_dirichlet():
    cfg = ExperimentConfig(model="graph", n_types=2, m_edges=2,
                           f_matrix=F_NEAR_ID, max_weight=6, cutoff=4)
    with pytest.raises(ValidationError,
                       match="^Dirichlet proportions only apply when each "):
        perturbed_vs_unperturbed_study(cfg, 10)
    # explicit proportions lift the restriction
    study = perturbed_vs_unperturbed_study(
        cfg, 0, psi_samples=[[0.5, 0.5], [0.3, 0.7]])
    assert study.n_samples == 2
