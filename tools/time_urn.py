"""Per-step timings of `run_urn`, for one checkout or two side by side.

    python3 tools/time_urn.py SRC_ROOT [SRC_ROOT_B] [--rounds R] [--steps S]
                              [--snapshot-every E[,E_B]] [--start B]

Imports each root's SRC_ROOT/src/mtpa under its own package name, so two
checkouts load into one process, pins itself to one CPU, and prints one
JSON object: for each (N, m) in SIZES, R rounds of S steps from B balls of
each colour (by default 1, the ramp from a tiny urn that the `urn_compare`
workload starts with; a large B such as 30000 times the steady state
alone), snapshots every E steps. E is 1000 by default, which cuts every
chunk at 1000 steps at most; an E of S or more leaves the chunks to
`run_urn`'s own rule, as an urn `compare` does. One E applies to every
root; E,E_B gives each root its own, so `. . --snapshot-every 1000,50000`
times one checkout cut and uncut, and `OLD NEW --snapshot-every
1000,50000` an old checkout cut at the `urn_compare` config's 1000, as its
`compare` stepped, against a new one uncut. The rounds alternate the roots
(`tools/rounds.py`). Each root's row gives the median and the best round in
microseconds per step; with two roots, `pairs_won` counts the rounds each
root was faster in (a tie counts for neither), and `worst_ratio` is the
largest ratio of the second root's time to the first's.
The flip matrix is 0.6 on the diagonal and the rest spread evenly, so
every draw can flip. Each size's rounds follow one untimed run per root.
Where a checkout steps in chunks (it has `urn._chunk_gains`), that run
counts the share of draws made by the scalar `urn._draw`, which the steps
of chunks of at most `urn.IN_ORDER_DRAWS` draws make one at a time (the
fixed point never calls it), and its row gives it as `in_order_share`.
"""
from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import sys

from rounds import alternate, summary

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
    parser.add_argument("--snapshot-every", default="1000")
    parser.add_argument("--start", type=int, default=1)
    args = parser.parse_args()
    if len(args.roots) > 2:
        parser.error("at most two roots")
    try:
        every = [int(e) for e in args.snapshot_every.split(",")]
    except ValueError:
        parser.error("--snapshot-every takes integers, comma separated")
    if len(every) not in (1, len(args.roots)):
        parser.error("--snapshot-every takes one value or one per root")
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    import numpy as np

    labels = "ab"[:len(args.roots)]
    modules = {label: load(root, f"mtpa_{label}")
               for label, root in zip(labels, args.roots)}
    every = dict(zip(labels, every * len(labels) if len(every) == 1 else every))

    def go(label, n, m, seed):
        urn_module, harness = modules[label]
        flip = np.full((n, n), 0.4 / (n - 1))
        np.fill_diagonal(flip, 0.6)
        sampler = urn_module.bernoulli_column_sampler(flip)
        urn = urn_module.new_urn([args.start] * n, m, sampler)
        urn_module.run_urn(urn, sampler, args.steps, every[label],
                           harness.replicate_stream(80, seed))

    out = {"roots": dict(zip(labels, args.roots)), "steps": args.steps,
           "snapshot_every": every, "start": args.start,
           "sizes": {}}
    for n, m in SIZES:
        shares = {}
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
            shares[label] = calls[0] / (args.steps * m)
        times = alternate(labels, args.rounds,
                          lambda label, seed: go(label, n, m, seed))
        row = summary(times, "us_per_step", 1e6 / args.steps)
        for label, share in shares.items():
            row[label]["in_order_share"] = share
        out["sizes"][f"N={n},m={m}"] = row
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
