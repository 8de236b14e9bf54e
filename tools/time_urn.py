"""Per-step timings of `run_urn`, for one checkout.

    python3 tools/time_urn.py SRC_ROOT [--rounds R] [--steps S]
                              [--snapshot-every E] [--start B]

Imports `mtpa` from SRC_ROOT/src, pins itself to one CPU, and prints one
JSON object: for each (N, m) in SIZES, the best of R runs of S steps from
B balls of each colour (by default 1, the ramp from a tiny urn that the
`urn_compare` workload starts with; a large B such as 30000 times the
steady state alone), snapshots every E steps (by default 1000, as in the
`urn_compare` workload, which keeps every chunk at most 1000 steps; a
sparse E lets chunks reach the cap), in microseconds per step. The flip
matrix is 0.6 on the diagonal and the rest spread evenly, so every draw can
flip. Where the checkout steps in chunks (it has `urn._chunk_gains`), each
row also gives the share of draws left to the scalar `urn._draw`, counted
on one extra run.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

SIZES = ((2, 1), (2, 2), (3, 2), (3, 4), (3, 8), (4, 2), (5, 2))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("root")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--steps", type=int, default=100_000)
    parser.add_argument("--snapshot-every", type=int, default=1000)
    parser.add_argument("--start", type=int, default=1)
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(args.root, "src"))
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    import numpy as np
    from mtpa import urn as urn_module
    from mtpa.harness import replicate_stream
    from mtpa.urn import bernoulli_column_sampler, new_urn, run_urn

    def go(n, m, seed):
        flip = np.full((n, n), 0.4 / (n - 1))
        np.fill_diagonal(flip, 0.6)
        sampler = bernoulli_column_sampler(flip)
        urn = new_urn([args.start] * n, m, sampler)
        run_urn(urn, sampler, args.steps, args.snapshot_every,
                replicate_stream(80, seed))

    out = {"steps": args.steps, "snapshot_every": args.snapshot_every,
           "start": args.start, "sizes": {}}
    for n, m in SIZES:
        best = math.inf
        for seed in range(args.rounds):
            start = time.perf_counter()
            go(n, m, seed)
            best = min(best, time.perf_counter() - start)
        row = {"us_per_step": best / args.steps * 1e6}
        draw = getattr(urn_module, "_draw", None)
        if draw is not None and hasattr(urn_module, "_chunk_gains"):
            calls = [0]

            def counted(*a):
                calls[0] += 1
                return draw(*a)

            urn_module._draw = counted
            try:
                go(n, m, 0)
            finally:
                urn_module._draw = draw
            row["resolved_share"] = calls[0] / (args.steps * m)
        out["sizes"][f"N={n},m={m}"] = row
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
