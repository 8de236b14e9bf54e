"""Per-layer timings of the lattice solvers and of `study`, for one checkout
or two side by side.

    python3 tools/time_theory_walk.py SRC_ROOT [SRC_ROOT_B] [--rounds R]
                                      [--study-1000]

Imports each root's SRC_ROOT/src/mtpa under its own package name, so two
checkouts load into one process, pins itself to one CPU, and prints one
JSON object: for both solvers at (N, m, d_max) = (4, 2, 26), (3, 2, 120)
and (6, 2, 20), microseconds per lattice cell, and for
`perturbed_vs_unperturbed_study` at N=3, m=1, d_max=40, cutoff 11 (the
`theory_solve` study config) with 14 samples, and with 1000 samples when
asked, milliseconds per psi sample. The R rounds alternate the roots
(`tools/rounds.py`); the 1000-sample study runs one round. Each root's row
gives the median and the best round; with two roots, `pairs_won` counts the
rounds each root was faster in (a tie counts for neither), and
`worst_ratio` is the largest ratio of the second root's time to the
first's over the rounds.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

from rounds import alternate, summary
from time_urn import load

SIZES = ((4, 2, 26), (3, 2, 120), (6, 2, 20))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("roots", nargs="+", metavar="root")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--study-1000", action="store_true")
    args = parser.parse_args()
    if len(args.roots) > 2:
        parser.error("at most two roots")
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    import numpy as np

    labels = "ab"[:len(args.roots)]
    modules = {label: load(root, f"mtpa_{label}",
                           ("theory", "harness", "matrices"))
               for label, root in zip(labels, args.roots)}

    out = {"roots": dict(zip(labels, args.roots)), "rounds": args.rounds,
           "solvers": {}, "study": {}}
    for n, m, dmax in SIZES:
        cells = math.comb(dmax + n, n) - math.comb(m - 1 + n, n)
        flip = modules["a"][2].parse_matrix("symmetric:0.7", n)
        psi = np.random.default_rng(n).dirichlet(np.ones(n))
        entry = {"cells": cells}
        for name, call in (
                ("perturbed", lambda label, _: modules[label][0]
                 .solve_recurrence(flip, m, dmax)),
                ("unperturbed", lambda label, _: modules[label][0]
                 .solve_unperturbed_recurrence(psi, m, dmax))):
            entry[name] = summary(alternate(labels, args.rounds, call),
                                  "us_per_cell", 1e6 / cells)
        out["solvers"][f"N={n},m={m},d_max={dmax}"] = entry

    configs = {label: harness.ExperimentConfig(
                   model="graph", n_types=3, m_edges=1,
                   f_matrix=matrices.parse_matrix("symmetric:0.8", 3),
                   max_weight=40, cutoff=11, master_seed=0)
               for label, (_, harness, matrices) in modules.items()}
    for samples in (14, 1000) if args.study_1000 else (14,):
        rounds = args.rounds if samples < 100 else 1
        times = alternate(labels, rounds, lambda label, _: modules[label][1]
                          .perturbed_vs_unperturbed_study(configs[label],
                                                          samples))
        out["study"][f"samples={samples}"] = summary(times, "ms_per_sample",
                                                     1e3 / samples)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
