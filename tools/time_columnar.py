"""Timings of the census, the solver's memory and the distribution writers,
for one checkout.

    python3 tools/time_columnar.py SRC_ROOT [--rounds R] [--cap]

Imports `mtpa` from SRC_ROOT/src, pins itself to one CPU, and prints one
JSON object. Times are the best of R calls, in seconds:

- `graph.run` on the `graph_snapshots` workload's config (N=3, m=4,
  symmetric:0.8 with a decaying schedule, decay 0.1 on the diagonal and
  -0.05 off it, rho 0.5; 12,500 steps, a snapshot every 250; seed 0);
- `write_graph_snapshots` of those 51 snapshots;
- `write_distribution_csv` of `solve_recurrence` at (N, m, d_max) =
  (4, 2, 26), the `theory_solve` workload's solve with 27,400 cells, and
  (3, 2, 120) with 302,617 cells, both with F = symmetric:0.7.

It also gives the tracemalloc peak, in bytes per lattice cell, of one
`solve_recurrence` at (3, 2, 120), and with `--cap` at (3, 2, 389), about
9.96M cells, just under `LATTICE_CAP`. A solver that keeps a dict of
degree tuples needs about 1.4 GB there, plus tracemalloc's own record of
every tuple: leave `--cap` out on such a checkout.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time
import tracemalloc


def best_of(rounds: int, call) -> float:
    best = math.inf
    for _ in range(rounds):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("root")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--cap", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(args.root, "src"))
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    from mtpa.graph import (DECAYING, PerturbationSchedule, SeedGraphSpec,
                            new_graph, run)
    from mtpa.harness import replicate_stream
    from mtpa.matrices import parse_matrix
    from mtpa.output import write_distribution_csv, write_graph_snapshots
    from mtpa.theory import solve_recurrence

    decay = parse_matrix(",".join("0.1" if i == j else "-0.05"
                                  for i in range(3) for j in range(3)), 3)
    schedule = PerturbationSchedule(parse_matrix("symmetric:0.8", 3),
                                    DECAYING, decay, 0.5)
    snapshots = []

    def snapshot_run():
        graph = new_graph(SeedGraphSpec.default(3))
        snapshots[:] = run(graph, schedule, 4, 12_500, 250,
                           replicate_stream(0, 0))

    out = {"graph_run_s": best_of(args.rounds, snapshot_run),
           "snapshots": len(snapshots)}
    with tempfile.TemporaryDirectory() as tmp:
        out["write_graph_snapshots_s"] = best_of(
            args.rounds, lambda: write_graph_snapshots(tmp, snapshots, 3))
        with open(os.path.join(tmp, "distribution.csv")) as fh:
            out["census_rows"] = sum(1 for _ in fh) - 1
        out["write_distribution_csv"] = {}
        for n, dmax in ((4, 26), (3, 120)):
            dist = solve_recurrence(parse_matrix("symmetric:0.7", n), 2, dmax)
            path = os.path.join(tmp, "distribution.csv")
            out["write_distribution_csv"][f"N={n},d_max={dmax}"] = {
                "cells": math.comb(dmax + n, n) - math.comb(1 + n, n),
                "seconds": best_of(args.rounds, lambda: write_distribution_csv(
                    path, dist, n)),
                "bytes": os.path.getsize(path)}
            del dist

    out["solve_peak_bytes_per_cell"] = {}
    for dmax in (120, 389) if args.cap else (120,):
        cells = math.comb(dmax + 3, 3) - math.comb(1 + 3, 3)
        flip = parse_matrix("symmetric:0.7", 3)
        tracemalloc.start()
        dist = solve_recurrence(flip, 2, dmax)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        del dist
        out["solve_peak_bytes_per_cell"][f"N=3,d_max={dmax}"] = {
            "cells": cells, "peak_bytes": peak,
            "bytes_per_cell": round(peak / cells, 2)}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
