"""F is validated one way: one irreducibility check, one stochasticity error.

`matrices.require_irreducible` closes the arc relation by boolean
squaring; a breadth-first search written here is its reference, on random
matrices whose entries lie above, at and below `STRUCTURAL_ZERO`. The
commands that read the stationary psi reject a reducible F, and the urn's
sampler raises the validator's own `NotStochastic`. Both simulators run
F = I, the model without perturbation; the graph rejects any other
reducible F.
"""
from __future__ import annotations

import re
from collections import deque

import numpy as np
import pytest

from mtpa.cli import main
from mtpa.errors import NotIrreducible, NotStochastic
from mtpa.matrices import STRUCTURAL_ZERO, require_irreducible
from mtpa.urn import bernoulli_column_sampler

# entries an arc test must split: zero, below, at and just above the
# structural zero, and plainly positive
ENTRIES = (0.0, STRUCTURAL_ZERO / 2, STRUCTURAL_ZERO,
           np.nextafter(STRUCTURAL_ZERO, 1.0), 2 * STRUCTURAL_ZERO, 0.3)


def reaches_all(arcs: list) -> bool:
    seen = {0}
    queue = deque([0])
    while queue:
        for l in arcs[queue.popleft()]:
            if l not in seen:
                seen.add(l)
                queue.append(l)
    return len(seen) == len(arcs)


def strongly_connected(matrix) -> bool:
    n = len(matrix)
    out = [[l for l in range(n) if matrix[k][l] > STRUCTURAL_ZERO]
           for k in range(n)]
    into = [[k for k in range(n) if matrix[k][l] > STRUCTURAL_ZERO]
            for l in range(n)]
    return reaches_all(out) and reaches_all(into)


def irreducible(matrix) -> bool:
    try:
        require_irreducible(matrix)
    except NotIrreducible:
        return False
    return True


@pytest.mark.parametrize("n", range(1, 8))
def test_require_irreducible_matches_a_breadth_first_search(n):
    rng = np.random.default_rng(n)
    verdicts = set()
    for _ in range(3000):
        # a density per matrix, so that sparse and dense draws both occur
        arcs = rng.random((n, n)) < rng.random()
        matrix = np.where(arcs, rng.choice(ENTRIES[3:], (n, n)),
                          rng.choice(ENTRIES[:3], (n, n)))
        expected = strongly_connected(matrix.tolist())
        assert irreducible(matrix) == expected, matrix
        verdicts.add(expected)
    assert verdicts == ({True} if n == 1 else {True, False})


@pytest.mark.parametrize("n", (2, 3, 31, 32, 33, 64, 65))
def test_a_cycle_is_closed_and_a_broken_one_is_not(n):
    # the longest path a cycle needs is n - 1 arcs
    cycle = np.roll(np.eye(n), 1, axis=1)
    assert irreducible(cycle)
    cycle[n - 1, 0] = STRUCTURAL_ZERO
    assert not irreducible(cycle)
    with pytest.raises(NotIrreducible, match="^F is not irreducible$"):
        require_irreducible(cycle, what="F")


IDENTITY_CFG = """
[model]
kind = graph
types = 2
edges_per_step = 2
f = 1,0,0,1
[run]
steps = 40
snapshot_every = 10
replicates = 2
"""


@pytest.mark.parametrize("argv, code", [
    (["solve", "--n", "2", "--f", "1,0,0,1"], 2),
    (["compare", "--config", "identity.ini"], 2),
    (["simulate-graph", "--n", "2", "--f", "1,0,0,1", "--steps", "20"], 0),
    (["simulate-urn", "--n", "2", "--f", "1,0,0,1", "--steps", "20"], 0),
    (["simulate-graph", "--n", "3", "--f", "1,0,0,0,0.5,0.5,0,0.5,0.5",
      "--steps", "20"], 2),
    (["diagnose", "--config", "identity.ini", "--quantity", "psi"], 2),
    (["diagnose", "--config", "identity.ini", "--quantity", "tv"], 2),
])
def test_which_commands_run_a_reducible_f(argv, code, tmp_path, monkeypatch,
                                          capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "identity.ini").write_text(IDENTITY_CFG)
    assert main(argv + ["--out", "out"]) == code
    err = capsys.readouterr().err
    assert err == ("error: F is not irreducible\n" if code else "")


@pytest.mark.parametrize("flip, message", [
    ([[0.5, 0.4], [0.2, 0.8]], "type-flip matrix row 1 sums to 0.9, not 1"),
    ([[0.25, 0.75], [1.5, -0.5]],
     "type-flip matrix has entries outside [0, 1]"),
    ([[0.5, 0.5]], "type-flip matrix must be square, got shape (1, 2)"),
])
def test_the_urn_sampler_raises_the_validators_error(flip, message):
    with pytest.raises(NotStochastic, match=f"^{re.escape(message)}$"):
        bernoulli_column_sampler(flip)
