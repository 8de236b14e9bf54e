"""Golden output digests of a fixed, tiny command set.

Every output file a command writes is pinned by its sha256, except
`manifest.json`, which records argv paths. Each command runs with
MTPA_THREADS=1 and =2, so the pins also hold serial equal to parallel. A
refactor that changes any simulated, solved or formatted value changes a
digest here. The pins were made once from the program's own outputs and
must never be re-pinned to make a code change pass.
"""
from __future__ import annotations

import pytest

from mtpa.cli import main
from mtpa.output import file_digest

GRAPH_CFG = """
[model]
kind = graph
types = 2
edges_per_step = 2
f = symmetric:0.9
[run]
steps = 400
snapshot_every = 100
replicates = 2
master_seed = 11
[compare]
d_max = 16
cutoff = 6
tv_tolerance = 1.0
psi_tolerance = 1.0
"""

DECAYING_CFG = """
[model]
kind = graph
types = 3
edges_per_step = 2
f = symmetric:0.8
schedule = decaying
decay = 0.1,-0.05,-0.05,-0.05,0.1,-0.05,-0.05,-0.05,0.1
decay_rho = 0.5
[run]
steps = 300
snapshot_every = 100
master_seed = 4
"""

URN_CFG = """
[model]
kind = urn
types = 3
edges_per_step = 3
f = 0.7,0.2,0.1,0.1,0.8,0.1,0.2,0.2,0.6
[run]
steps = 2000
snapshot_every = 500
replicates = 3
master_seed = 5
[compare]
psi_tolerance = 1.0
"""

STUDY_CFG = """
[model]
types = 3
edges_per_step = 1
f = symmetric:0.8
[run]
master_seed = 2
[compare]
d_max = 10
cutoff = 5
"""

CONFIGS = {"graph.ini": GRAPH_CFG, "decaying.ini": DECAYING_CFG,
           "urn.ini": URN_CFG, "study.ini": STUDY_CFG}

# name -> argv (paths relative to the test directory, --out appended)
COMMANDS = {
    "simulate_graph_constant": [
        "simulate-graph", "--n", "2", "--f", "symmetric:0.9", "--m", "2",
        "--steps", "300", "--snapshot-every", "100", "--seed", "7"],
    "simulate_graph_decaying": ["simulate-graph", "--config", "decaying.ini"],
    "simulate_urn": [
        "simulate-urn", "--n", "3", "--f", "0.7,0.2,0.1,0.1,0.8,0.1,0.2,0.2,0.6",
        "--m", "2", "--c0", "1,2,3", "--steps", "500", "--snapshot-every",
        "100", "--seed", "3"],
    "compare_graph": ["compare", "--config", "graph.ini"],
    "compare_urn": ["compare", "--config", "urn.ini"],
    "solve": ["solve", "--n", "3", "--m", "2", "--f", "symmetric:0.7",
              "--dmax", "12"],
    "solve_unperturbed": ["solve-unperturbed", "--n", "2", "--m", "1",
                          "--psi", "0.3,0.7", "--dmax", "12"],
    "diagnose_psi_graph": ["diagnose", "--config", "graph.ini",
                           "--quantity", "psi"],
    "diagnose_psi_urn": ["diagnose", "--config", "urn.ini",
                         "--quantity", "psi"],
    "diagnose_tv": ["diagnose", "--config", "graph.ini", "--quantity", "tv"],
    "study": ["study", "--config", "study.ini", "--psi-samples", "20"],
    "diagnose_u_n": ["diagnose", "--config", "graph.ini", "--quantity", "u_n",
                     "--d", "2,1"],
    "diagnose_np_el": ["diagnose", "--config", "graph.ini", "--quantity",
                       "np_el", "--d", "2,1", "--l", "1"],
    # weight 22 > EXACT_FACTORIAL_LIMIT: both log-gamma fresh-vertex branches
    "solve_log_gamma": ["solve", "--n", "2", "--m", "22", "--f",
                        "symmetric:0.8", "--dmax", "26"],
    "solve_unperturbed_log_gamma": [
        "solve-unperturbed", "--n", "2", "--m", "22", "--psi", "0.3,0.7",
        "--dmax", "26"],
}

GOLDEN = {
    "compare_graph": {
        "errors.csv": "524358292efc7c6de33edb863504f55558d2a96d7d6c0e1316bbe33eccde2994",
        "replicates.csv": "8d9419d77fa123e750f9730d116435849bd3bf8ce60bc6cbf7663d0c5ff42982",
        "report.txt": "3c9032a89b43a1fa722736e22c324126417e22e2ee6fa46de266ad9b2e38b237",
    },
    "compare_urn": {
        "replicates.csv": "fbdd172a8388c1cb4170a388facd3b6ccb9518028795b3bbf133255ea034b6cd",
        "report.txt": "0750cc7744538dda71603eb75dd473b697617139c7802b347b66a54b3b369832",
    },
    "diagnose_psi_graph": {
        "series.csv": "ce3ac5cc2acaa9f792229e005a31be3f827af0734d6121233fc9c1d7a405e154",
    },
    "diagnose_np_el": {
        "series.csv": "aaf802d46a00b875bd366f09579a2af4ec7cfff72b3008dfb57f309d047ac6ca",
    },
    "diagnose_psi_urn": {
        "series.csv": "901287d2fd1d1d4b50dcf336d307910c991f921d08eb9f78c6b5854719fc0212",
    },
    "diagnose_tv": {
        "series.csv": "3a707e3c75db928e779fd6d9a8503e1b862099fa436d9deea561d1a87620f544",
    },
    "diagnose_u_n": {
        "series.csv": "da9375d6c2a4c001e465bd665a9134db60043145d6ea8a4c0df0a598af320664",
    },
    "simulate_graph_constant": {
        "distribution.csv": "1eb3165fa3886bf024cb800b48726f8fc9cfcb335b1554bd20126c0a957612e4",
        "psi.csv": "14cd3eee2c0aa3a5bc452b518b252298cc473c1babfcdb8aa6db1dbdff9d07c9",
    },
    "simulate_graph_decaying": {
        "distribution.csv": "4a9ccb42850ab17e53eefcbe1b46f4685daa32ed2630c352df884995e85d01f6",
        "psi.csv": "b0d4deeb13c571df551dc6ffc9b0b465ebf743f00420178e7c5881af05125d68",
    },
    "simulate_urn": {
        "trajectory.csv": "cdc1e65032dbda36df1d6a7f66b906892e0ae2ffd7e40285def45b4b739c8f02",
    },
    "solve": {
        "distribution.csv": "8a742816db7bce7e5086cf4db787cde27b269522ace0de9e282a6d69d6cb904b",
    },
    "solve_log_gamma": {
        "distribution.csv": "8fe805852e2263699c8b46fe96616785736c3c2e4eeacda9f4c5a4aa98d219e4",
    },
    "solve_unperturbed": {
        "distribution.csv": "c3ec12e8eb8f2351d3986d653e90d1a16470790ffb304dab7d80d10927bc800e",
    },
    "solve_unperturbed_log_gamma": {
        "distribution.csv": "db4209e018f5e8aa33fb91ee444bfc174d4e0a7882247ae65c4532c5f087b58b",
    },
    "study": {
        "study.csv": "1711fe08af2815397d035dd520a71d87bdff081451994773b8d666db16e40438",
    },
}


def run_command(tmp_path, monkeypatch, name) -> dict:
    """Run one command in tmp_path; return {output file: sha256}."""
    for file_name, text in CONFIGS.items():
        (tmp_path / file_name).write_text(text)
    monkeypatch.chdir(tmp_path)
    out = tmp_path / f"out_{name}"
    assert main(COMMANDS[name] + ["--out", str(out)]) == 0
    return {p.name: file_digest(p) for p in sorted(out.iterdir())
            if p.name != "manifest.json"}


# every command serially and with two workers: serial must equal parallel
RUNS = ([pytest.param(name, "1", id=name) for name in sorted(COMMANDS)]
        + [pytest.param(name, "2", id=f"{name}-parallel")
           for name in sorted(COMMANDS)])


@pytest.mark.parametrize("name, threads", RUNS)
def test_golden_digests(tmp_path, monkeypatch, capsys, name, threads):
    monkeypatch.setenv("MTPA_THREADS", threads)
    assert run_command(tmp_path, monkeypatch, name) == GOLDEN[name]
    capsys.readouterr()
