"""Per-step timings of `run_urn`, for one checkout or two side by side.

    python3 tools/time_urn.py SRC_ROOT [SRC_ROOT_B] [--rounds R] [--steps S]
                              [--snapshot-every E] [--start B]

Imports each root's SRC_ROOT/src/mtpa under its own package name, so two
checkouts load into one process, pins itself to one CPU, and prints one
JSON object: for each (N, m) in SIZES, R rounds of S steps from B balls of
each colour (by default 1, the ramp from a tiny urn that the `urn_compare`
workload starts with; a large B such as 30000 times the steady state
alone), snapshots every E steps (by default 1000, as in the `urn_compare`
workload, which keeps every chunk at most 1000 steps; a sparse E lets
chunks reach the cap). Each round times every root once, in turn, the
first root first in even rounds and last in odd ones, so a host whose
speed drifts weighs on both alike. Each root's row gives the median and
the best round in microseconds per step; with two roots, `pairs_won`
counts the rounds each root was faster in (a tie counts for neither).
The flip matrix is 0.6 on the diagonal and the rest spread evenly, so
every draw can flip. Each size's rounds follow one untimed run per root.
Where a checkout steps in chunks (it has `urn._chunk_gains`), that run
counts the share of draws left to the scalar `urn._draw`, which its row
gives as `resolved_share`.
"""
from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import statistics
import sys
import time

SIZES = ((2, 1), (2, 2), (3, 2), (3, 4), (3, 8), (4, 2), (5, 2))


def load(root: str, name: str, layers=("urn", "harness")):
    """The `layers` modules of root's mtpa, as package `name`."""
    package = os.path.join(root, "src", "mtpa")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package, "__init__.py"),
        submodule_search_locations=[package])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return tuple(importlib.import_module(f"{name}.{layer}")
                 for layer in layers)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("roots", nargs="+", metavar="root")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--steps", type=int, default=100_000)
    parser.add_argument("--snapshot-every", type=int, default=1000)
    parser.add_argument("--start", type=int, default=1)
    args = parser.parse_args()
    if len(args.roots) > 2:
        parser.error("at most two roots")
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    import numpy as np

    labels = "ab"[:len(args.roots)]
    modules = {label: load(root, f"mtpa_{label}")
               for label, root in zip(labels, args.roots)}

    def go(label, n, m, seed):
        urn_module, harness = modules[label]
        flip = np.full((n, n), 0.4 / (n - 1))
        np.fill_diagonal(flip, 0.6)
        sampler = urn_module.bernoulli_column_sampler(flip)
        urn = urn_module.new_urn([args.start] * n, m, sampler)
        urn_module.run_urn(urn, sampler, args.steps, args.snapshot_every,
                           harness.replicate_stream(80, seed))

    out = {"roots": dict(zip(labels, args.roots)), "steps": args.steps,
           "snapshot_every": args.snapshot_every, "start": args.start,
           "sizes": {}}
    for n, m in SIZES:
        row = {label: {} for label in labels}
        for label in labels:
            # an untimed first run, which counts the scalar draws where it can
            urn_module = modules[label][0]
            draw = getattr(urn_module, "_draw", None)
            if draw is None or not hasattr(urn_module, "_chunk_gains"):
                go(label, n, m, 0)
                continue
            calls = [0]

            def counted(*a):
                calls[0] += 1
                return draw(*a)

            urn_module._draw = counted
            try:
                go(label, n, m, 0)
            finally:
                urn_module._draw = draw
            row[label]["resolved_share"] = calls[0] / (args.steps * m)
        times = {label: [] for label in labels}
        for seed in range(args.rounds):
            for label in (labels if seed % 2 == 0 else labels[::-1]):
                start = time.perf_counter()
                go(label, n, m, seed)
                times[label].append(time.perf_counter() - start)
        for label in labels:
            row[label].update(
                median_us_per_step=statistics.median(times[label])
                / args.steps * 1e6,
                best_us_per_step=min(times[label]) / args.steps * 1e6)
        if len(labels) == 2:
            pairs = list(zip(times["a"], times["b"]))
            row["pairs_won"] = {"a": sum(a < b for a, b in pairs),
                                "b": sum(b < a for a, b in pairs)}
        out["sizes"][f"N={n},m={m}"] = row
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
