"""Per-edge cost of one graph replicate, and the memory of the commands
that run it, for one checkout.

    python3 tools/time_grow.py SRC_ROOT [--rounds R] [--steps S ...]
                               [--command-steps C] [--series-steps T P]

Imports `mtpa` from SRC_ROOT/src, pins itself and its children to one CPU,
and prints one JSON object. The replicate is the criterion-3 one: a seed of
100 parallel edges of each of 2 types, m=2, F = [[0.9, 0.1], [0.1, 0.9]]
with a constant schedule, generator `replicate_stream(0, 0)`. For each size
S (default 200k and 1M steps), in a fresh interpreter:

- `us_per_edge`: the best of R runs of `run` with one snapshot and no
  census (key `run`), `check_graph_invariants` and `empirical_distribution`
  (the census), in microseconds per edge of the grown graph;
- `peak_bytes_per_edge`: on one more run, traced by tracemalloc from before
  `new_graph`, the traced peak during each call over the edge count. It
  counts the graph, which `graph_bytes_per_edge` gives alone, as traced
  after `run`;
- `maxrss_mib`: `ru_maxrss` after the imports and after each call of the
  first, untraced run. The allocator keeps freed heap, so this can rise by
  more than the traced peak.

The `series` row times `graph.run`, a series of snapshots, in the two
shapes the commands run, each in a fresh interpreter:

- `graph_snapshots`: the bench workload of that name, T steps (default
  12,500) with a snapshot every T/50, census on: N=3, m=4, symmetric:0.8
  with a decaying schedule (decay 0.1 on the diagonal and -0.05 off it,
  rho 0.5), the default seed graph, generator `replicate_stream(0, 0)`;
- `diagnose_psi`: the criterion-3 replicate for P steps (default 200k)
  with a snapshot every P/100, census off, as `diagnose --quantity psi`
  runs it.

Each gives the best of R calls in milliseconds (`run_ms`), and the
tracemalloc peak of one more call over its edge count, the graph and the
snapshots included (`peak_bytes_per_edge`). A shape of 0 steps is skipped.

With C > 0 (default 200k) it also runs two commands in a subprocess each,
serial (`MTPA_THREADS=1`), on that replicate's config, and gives their wall
seconds and `ru_maxrss`: `compare` with 20 replicates of C steps (the
criterion-3 run at the default), and `diagnose --quantity psi` with 8
replicates of C steps and a snapshot every C/100 steps.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import time

SEED_EDGES = "".join(f"0 1 {t}\n" for t in (1, 2) for _ in range(100))


def maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def replicate(steps: int, rounds: int) -> dict:
    """The timings, traced peaks and RSS of one size, in this process."""
    import tracemalloc

    import numpy as np
    from mtpa.graph import (PerturbationSchedule, SeedGraphSpec,
                            check_graph_invariants, empirical_distribution,
                            new_graph, run)
    from mtpa.harness import replicate_stream

    spec = SeedGraphSpec(2, [(0, 1, t) for t in range(2) for _ in range(100)])
    schedule = PerturbationSchedule(np.array([[0.9, 0.1], [0.1, 0.9]]))
    phases = {
        "run": lambda g: run(g, schedule, 2, steps, max(steps, 1),
                             replicate_stream(0, 0), census=False),
        "check": lambda g: check_graph_invariants(g, 2),
        "census": empirical_distribution,
    }
    rss = {"imported": round(maxrss_mib(), 1)}
    best = dict.fromkeys(phases, math.inf)
    for r in range(rounds):
        graph = new_graph(spec)
        for name, call in phases.items():
            start = time.perf_counter()
            call(graph)
            best[name] = min(best[name], time.perf_counter() - start)
            if r == 0:
                rss[name] = round(maxrss_mib(), 1)
        edges = graph.num_edges
        del graph

    peaks = {}
    tracemalloc.start()
    graph = new_graph(spec)
    for name, call in phases.items():
        tracemalloc.reset_peak()
        call(graph)
        peaks[name] = round(tracemalloc.get_traced_memory()[1] / edges, 2)
        if name == "run":
            kept = tracemalloc.get_traced_memory()[0] / edges
    tracemalloc.stop()
    return {"edges": edges,
            "us_per_edge": {k: round(v / edges * 1e6, 4)
                            for k, v in best.items()},
            "peak_bytes_per_edge": peaks,
            "graph_bytes_per_edge": round(kept, 2),
            "maxrss_mib": rss}


def series(shape: str, steps: int, rounds: int) -> dict:
    """The `run` timing and traced peak of one shape, in this process."""
    import tracemalloc

    import numpy as np
    from mtpa.graph import (DECAYING, PerturbationSchedule, SeedGraphSpec,
                            new_graph, run)
    from mtpa.harness import replicate_stream
    from mtpa.matrices import parse_matrix

    if shape == "graph_snapshots":
        decay = parse_matrix(",".join("0.1" if i == j else "-0.05"
                                      for i in range(3) for j in range(3)),
                             3, what="decay")
        schedule = PerturbationSchedule(parse_matrix("symmetric:0.8", 3),
                                        DECAYING, decay, 0.5)
        spec, m, every, census = SeedGraphSpec.default(3), 4, steps // 50, True
    else:
        schedule = PerturbationSchedule(np.array([[0.9, 0.1], [0.1, 0.9]]))
        spec = SeedGraphSpec(2, [(0, 1, t) for t in range(2)
                                 for _ in range(100)])
        m, every, census = 2, steps // 100, False
    every = max(1, every)

    def call():
        graph = new_graph(spec)
        snapshots = run(graph, schedule, m, steps, every,
                        replicate_stream(0, 0), census=census)
        return graph, snapshots

    best = math.inf
    for _ in range(rounds):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    tracemalloc.start()
    graph, snapshots = call()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {"steps": steps, "snapshot_every": every, "census": census,
            "snapshots": len(snapshots), "edges": graph.num_edges,
            "run_ms": round(best * 1e3, 2),
            "peak_bytes_per_edge": round(peak / graph.num_edges, 2)}


def command(root: str, argv: list) -> dict:
    """Wall seconds and `ru_maxrss` of one `mtpa` command."""
    env = dict(os.environ, MTPA_THREADS="1",
               PYTHONPATH=os.path.join(os.path.abspath(root), "src"))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "mtpa.cli"] + argv,
                            env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode not in (0, 1):  # 1: a comparison that failed
        raise SystemExit(f"{argv[0]} exited {proc.returncode}")
    return {"wall_s": round(wall, 3),
            "maxrss_mib": round(usage.ru_maxrss / 1024, 1)}


def commands(root: str, steps: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        seed = os.path.join(tmp, "seed.txt")
        with open(seed, "w") as fh:
            fh.write(SEED_EDGES)
        out = {}
        for name, replicates, every, argv in (
                ("compare", 20, steps, ["compare"]),
                ("diagnose_psi", 8, max(1, steps // 100),
                 ["diagnose", "--quantity", "psi"])):
            config = os.path.join(tmp, f"{name}.ini")
            with open(config, "w") as fh:
                fh.write("[model]\nkind = graph\ntypes = 2\n"
                         "edges_per_step = 2\nf = 0.9,0.1,0.1,0.9\n"
                         f"[run]\nsteps = {steps}\nsnapshot_every = {every}\n"
                         f"replicates = {replicates}\nmaster_seed = 20240601\n"
                         f"[graph]\nseed_graph = {seed}\n"
                         "[compare]\nd_max = 40\ncutoff = 12\n"
                         "tv_tolerance = 0.02\npsi_tolerance = 0.05\n")
            row = command(root, argv + ["--config", config, "--out",
                                        os.path.join(tmp, name)])
            out[name] = {"replicates": replicates, "steps": steps,
                         "snapshot_every": every, **row}
        return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("root")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--steps", type=int, nargs="+",
                        default=[200_000, 1_000_000])
    parser.add_argument("--command-steps", type=int, default=200_000)
    parser.add_argument("--series-steps", type=int, nargs=2,
                        default=[12_500, 200_000], metavar=("T", "P"))
    parser.add_argument("--one", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--one-series", nargs=2, help=argparse.SUPPRESS)
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(args.root, "src"))
    if args.one is not None:
        print(json.dumps(replicate(args.one, args.rounds)))
        return 0
    if args.one_series is not None:
        shape, steps = args.one_series
        print(json.dumps(series(shape, int(steps), args.rounds)))
        return 0
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    out = {"rounds": args.rounds, "replicate": {}}
    for steps in args.steps:
        child = subprocess.run(
            [sys.executable, __file__, args.root, "--rounds",
             str(args.rounds), "--one", str(steps)],
            check=True, capture_output=True, text=True)
        out["replicate"][str(steps)] = json.loads(child.stdout)
    out["series"] = {}
    for shape, steps in zip(("graph_snapshots", "diagnose_psi"),
                            args.series_steps):
        if steps > 0:
            child = subprocess.run(
                [sys.executable, __file__, args.root, "--rounds",
                 str(args.rounds), "--one-series", shape, str(steps)],
                check=True, capture_output=True, text=True)
            out["series"][shape] = json.loads(child.stdout)
    if args.command_steps > 0:
        out["commands"] = commands(args.root, args.command_steps)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
