"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Monte Carlo tolerances were pinned by pilot runs before freezing (see the
inline notes); analytic tolerances are as stated. Run with `pytest -s` to
see the per-criterion lines and timings.
"""
from __future__ import annotations

import math
import re
import time

import numpy as np
import pytest

from mtpa.cli import main
from mtpa.degrees import compositions_of_weight
from mtpa.harness import (ExperimentConfig, perturbed_vs_unperturbed_study,
                          replicate_stream)
from mtpa.theory import (binomial_bound_holds, edge_gain_rate_limit,
                         exact_attachment_probability,
                         exact_no_edge_probability, solve_recurrence)
from mtpa.urn import (bernoulli_column_sampler, check_urn_invariants,
                      new_urn, run_urn)

F_PINNED = [[0.9, 0.1], [0.1, 0.9]]


def check(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} {name}: {status}  {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


# --------------------------------------------------------------------------
# shared heavy runs

@pytest.fixture(scope="module")
def graph_compare_run(tmp_path_factory):
    """One full run of the graph comparison experiment via the CLI.

    The criterion pins F = [[0.9,0.1],[0.1,0.9]], whose second eigenvalue
    0.8 puts the type-proportion urn in the slow-fluctuation regime
    (errors decay like n**-0.2). The seed graph is enlarged to 100 parallel
    edges per type, which damps the slow-mode amplitude enough for the
    frozen 0.02 tolerance; pilot runs over several master seeds gave mean
    TV about 0.010 +- 0.002 under this configuration.
    """
    root = tmp_path_factory.mktemp("criterion3")
    seed_file = root / "seed.txt"
    lines = []
    for t in (1, 2):
        lines += [f"0 1 {t}"] * 100
    seed_file.write_text("\n".join(lines) + "\n")
    config = root / "cfg.ini"
    config.write_text(f"""
[model]
kind = graph
types = 2
edges_per_step = 2
f = 0.9,0.1,0.1,0.9

[run]
steps = 200000
snapshot_every = 200000
replicates = 20
master_seed = 20240601

[graph]
seed_graph = {seed_file}

[compare]
d_max = 40
cutoff = 12
tv_tolerance = 0.02
psi_tolerance = 0.05
""")
    out = root / "run1"
    start = time.perf_counter()
    code = main(["compare", "--config", str(config), "--out", str(out)])
    elapsed = time.perf_counter() - start
    return {"config": config, "out": out, "exit_code": code,
            "elapsed": elapsed, "root": root}


@pytest.fixture(scope="module")
def urn_convergence_runs():
    """Criterion-4 urn runs: terminal proportion errors and conservation.

    The asymmetric matrix is the stated one. For the symmetric case the
    criterion leaves the matrix free; off-diagonal 0.3 keeps the second
    eigenvalue at 0.4, inside the square-root convergence regime where the
    0.02 tolerance is meaningful at 1e5 steps (a 0.9-diagonal symmetric
    matrix converges like n**-0.2 and needs a far larger horizon).
    """
    cases = {
        "asymmetric": (np.array([[0.8, 0.2], [0.4, 0.6]]), (2 / 3, 1 / 3)),
        "symmetric": (np.array([[0.7, 0.3], [0.3, 0.7]]), (0.5, 0.5)),
    }
    start = time.perf_counter()
    results = {}
    for lane, (name, (flip, psi_ref)) in enumerate(cases.items()):
        sampler = bernoulli_column_sampler(flip)
        errors = []
        violations = []
        for r in range(50):
            urn = new_urn([1, 1], 1, sampler)
            run_urn(urn, sampler, 100_000, 100_000,
                    replicate_stream(40_000 + lane, r))
            errors.append(max(abs(a - b)
                              for a, b in zip(urn.fractions(), psi_ref)))
            violations.extend(check_urn_invariants(urn))
        results[name] = (errors, violations)
    results["elapsed"] = time.perf_counter() - start
    return results


# --------------------------------------------------------------------------
# criteria

def test_criterion_1_single_type_closed_form():
    start = time.perf_counter()
    worst = 0.0
    for m in (1, 2, 3):
        dist = solve_recurrence([[1.0]], m, 200)
        for d in range(m, 201):
            expected = 2.0 * m * (m + 1) / (d * (d + 1) * (d + 2))
            worst = max(worst, abs(dist.mass((d,)) - expected))
    residual = 1.0 - solve_recurrence([[1.0]], 1, 200).total()
    elapsed = time.perf_counter() - start
    check(1, "single-type closed form",
          worst < 1e-12 and 0.0 <= residual < 2e-4 and elapsed < 1.0,
          f"max |err| {worst:.2e}, tail residual {residual:.2e}, "
          f"{elapsed:.2f}s")


def test_criterion_2_symmetric_weight_one_masses():
    start = time.perf_counter()
    values = []
    for off in (0.1, 0.3, 0.45):
        f = [[1 - off, off], [off, 1 - off]]
        dist = solve_recurrence(f, 1, 10)
        values.extend([dist.mass((1, 0)), dist.mass((0, 1))])
    worst = max(abs(v - 1 / 3) for v in values)
    elapsed = time.perf_counter() - start
    check(2, "symmetric determinism",
          worst < 1e-12 and elapsed < 1.0,
          f"max |x - 1/3| {worst:.2e} over three off-diagonals, "
          f"{elapsed:.2f}s")


def test_criterion_3_graph_matches_solver(graph_compare_run):
    report = (graph_compare_run["out"] / "report.txt").read_text()
    match = re.search(r"mean TV distance \(cutoff 12\): ([0-9.eE+-]+)",
                      report)
    mean_tv = float(match.group(1))
    check(3, "end-to-end degree distribution",
          graph_compare_run["exit_code"] == 0 and mean_tv <= 0.02,
          f"mean TV {mean_tv:.4f} <= 0.02 over 20 replicates of 2e5 steps, "
          f"{graph_compare_run['elapsed']:.0f}s (target 120s)")


def test_criterion_4_urn_proportion_limits(urn_convergence_runs):
    runs = urn_convergence_runs
    fractions = {}
    for name in ("asymmetric", "symmetric"):
        errors, _ = runs[name]
        fractions[name] = np.mean([e <= 0.02 for e in errors])
    ok = all(f >= 0.95 for f in fractions.values())
    check(4, "urn proportion convergence", ok,
          f"within 0.02: asymmetric {fractions['asymmetric']:.0%}, "
          f"symmetric {fractions['symmetric']:.0%} of 50 seeds; "
          f"{runs['elapsed']:.0f}s (target 30s)")


def test_criterion_5_attachment_rate_limits():
    start = time.perf_counter()
    flip = np.asarray(F_PINNED)
    n = 10_000
    initial_edges = 2
    worst_u = 0.0
    worst_rate = 0.0
    for m in (1, 2, 3):
        edges_prev = initial_edges + m * (n - 1)
        for s in range(1, 7):
            for d in compositions_of_weight(s, 2):
                u_n = n * (1.0 - exact_no_edge_probability(d, edges_prev, m))
                worst_u = max(worst_u, abs(u_n - s / 2.0))
                for l in range(2):
                    if d[l] < 1:
                        continue
                    previous = d[:l] + (d[l] - 1,) + d[l + 1:]
                    unit = (1, 0) if l == 0 else (0, 1)
                    value = n * exact_attachment_probability(
                        previous, unit, edges_prev, m, flip)
                    limit = edge_gain_rate_limit(d, l, flip)
                    worst_rate = max(worst_rate, abs(value - limit))
    elapsed = time.perf_counter() - start
    check(5, "finite-step attachment limits",
          worst_u < 1e-3 and worst_rate < 1e-3 and elapsed < 1.0,
          f"max |u_n - s/2| {worst_u:.2e}, max rate gap {worst_rate:.2e} "
          f"at n=1e4, {elapsed:.2f}s")


def test_criterion_6_gain_law_equals_outcome_tree():
    import itertools

    def brute_force(d_prev, num_edges, m, flip):
        n = len(d_prev)
        two_e = 2.0 * num_edges
        outcomes = [(None, 1.0 - sum(d_prev) / two_e)]
        for k in range(n):
            for l in range(n):
                outcomes.append(((k, l), (d_prev[k] / two_e) * flip[k][l]))
        law = {}
        for combo in itertools.product(outcomes, repeat=m):
            prob = 1.0
            gains = [0] * n
            for hit, p in combo:
                prob *= p
                if hit is not None:
                    gains[hit[1]] += 1
            law[tuple(gains)] = law.get(tuple(gains), 0.0) + prob
        return law

    flips = {
        1: [[1.0]],
        2: [[0.9, 0.1], [0.2, 0.8]],
        3: [[0.8, 0.1, 0.1], [0.2, 0.6, 0.2], [0.3, 0.3, 0.4]],
    }
    previous = {
        1: [(0,), (2,), (5,)],
        2: [(0, 0), (1, 0), (2, 1), (0, 3)],
        3: [(1, 0, 2), (0, 1, 1), (2, 2, 2)],
    }
    start = time.perf_counter()
    worst = 0.0
    instances = 0
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            for d_prev in previous[n]:
                law = brute_force(d_prev, 10, m, flips[n])
                for s in range(m + 1):
                    for gained in compositions_of_weight(s, n):
                        value = exact_attachment_probability(
                            d_prev, gained, 10, m, flips[n])
                        worst = max(worst, abs(value - law.get(gained, 0.0)))
                        instances += 1
    elapsed = time.perf_counter() - start
    check(6, "assignment-sum equals outcome tree",
          worst < 1e-12 and elapsed < 10.0,
          f"max |formula - tree| {worst:.2e} over {instances} instances, "
          f"{elapsed:.2f}s")


def test_criterion_7_binomial_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(424242)
    all_hold = all(binomial_bound_holds(int(rng.integers(1, 101)),
                                        float(rng.random()))
                   for _ in range(10_000))
    x = 0.3
    equality_gap = abs(abs((1 - x) ** 2 - (1 - 2 * x)) - math.comb(2, 2) * x * x)
    elapsed = time.perf_counter() - start
    check(7, "binomial linearization bound",
          all_hold and equality_gap < 1e-15 and elapsed < 1.0,
          f"1e4 random instances hold; n=2 equality gap {equality_gap:.1e}, "
          f"{elapsed:.2f}s")


def test_criterion_8_deterministic_vs_random_contrast():
    start = time.perf_counter()
    cfg = ExperimentConfig(model="graph", n_types=2, m_edges=1,
                           f_matrix=F_PINNED, master_seed=2024,
                           max_weight=4, cutoff=2)
    study = perturbed_vs_unperturbed_study(cfg, 1000)
    spread = study.unperturbed_std[(1, 0)]
    repeat = perturbed_vs_unperturbed_study(cfg, 5)
    deterministic = repeat.perturbed == study.perturbed
    elapsed = time.perf_counter() - start
    check(8, "random vs deterministic masses",
          spread > 0.15 and deterministic and elapsed < 5.0,
          f"unperturbed sd of weight-(1,0) mass {spread:.3f} > 0.15 "
          f"(analytic 0.192); perturbed masses identical across solves; "
          f"{elapsed:.2f}s")


def test_criterion_9_conservation_checks(graph_compare_run,
                                         urn_convergence_runs):
    report = (graph_compare_run["out"] / "report.txt").read_text()
    graph_ok = "conservation checks: PASS" in report
    urn_violations = (urn_convergence_runs["asymmetric"][1]
                      + urn_convergence_runs["symmetric"][1])
    check(9, "exact conservation", graph_ok and not urn_violations,
          f"graph report clean; urn violations: {len(urn_violations)}")


def test_criterion_10_reproducibility(graph_compare_run, monkeypatch):
    # the first run was serial; two workers must give the same bytes
    monkeypatch.setenv("MTPA_THREADS", "2")
    out2 = graph_compare_run["root"] / "run2"
    start = time.perf_counter()
    code = main(["compare", "--config", str(graph_compare_run["config"]),
                 "--out", str(out2)])
    elapsed = time.perf_counter() - start
    identical = all(
        (graph_compare_run["out"] / name).read_bytes()
        == (out2 / name).read_bytes()
        for name in ("report.txt", "replicates.csv", "errors.csv"))
    check(10, "byte-identical reruns", code == 0 and identical,
          f"report.txt, replicates.csv, errors.csv identical across serial "
          f"and two-worker runs; {elapsed:.0f}s")
