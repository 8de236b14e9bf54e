"""Per-layer timings of the lattice solvers and of `study`, for one checkout.

    python3 tools/time_theory_walk.py SRC_ROOT [--rounds R] [--study-1000]

Imports `mtpa` from SRC_ROOT/src, pins itself to one CPU, and prints one
JSON object: the best of R calls, in seconds and in microseconds per
lattice cell, for both solvers at (N, m, d_max) = (4, 2, 26), (3, 2, 120)
and (6, 2, 20), and `perturbed_vs_unperturbed_study` in milliseconds per
psi sample at N=3, m=1, d_max=40, cutoff 11 (the `theory_solve` study
config) with 14 samples, and with 1000 samples when asked. A solver that
caches its lattice between calls has the cache cleared before each call,
so every call costs what one command-line solve costs.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

SIZES = ((4, 2, 26), (3, 2, 120), (6, 2, 20))


def best_of(rounds: int, call, clear) -> float:
    best = math.inf
    for _ in range(rounds):
        clear()
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("root")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--study-1000", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(args.root, "src"))
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    import numpy as np
    from mtpa import theory
    from mtpa.harness import ExperimentConfig, perturbed_vs_unperturbed_study
    from mtpa.matrices import parse_matrix

    cache = getattr(theory, "_layers", None)
    clear = cache.cache_clear if cache else (lambda: None)
    out = {"solvers": {}, "study": {}}
    for n, m, dmax in SIZES:
        cells = math.comb(dmax + n, n) - math.comb(m - 1 + n, n)
        flip = parse_matrix("symmetric:0.7", n)
        psi = np.random.default_rng(n).dirichlet(np.ones(n))
        row = {"cells": cells}
        for name, call in (
                ("perturbed", lambda: theory.solve_recurrence(flip, m, dmax)),
                ("unperturbed",
                 lambda: theory.solve_unperturbed_recurrence(psi, m, dmax))):
            seconds = best_of(args.rounds, call, clear)
            row[name] = {"s": seconds, "us_per_cell": seconds / cells * 1e6}
        out["solvers"][f"N={n},m={m},d_max={dmax}"] = row

    cfg = ExperimentConfig(model="graph", n_types=3, m_edges=1,
                           f_matrix=parse_matrix("symmetric:0.8", 3),
                           max_weight=40, cutoff=11, master_seed=0)
    for samples in (14, 1000) if args.study_1000 else (14,):
        rounds = args.rounds if samples < 100 else 1
        seconds = best_of(rounds, lambda: perturbed_vs_unperturbed_study(
            cfg, samples), clear)
        out["study"][f"samples={samples}"] = {
            "s": seconds, "ms_per_sample": seconds / samples * 1e3}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
