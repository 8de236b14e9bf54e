"""Per-edge cost of one graph replicate, and the memory of the commands
that run it, for one checkout or two side by side.

    python3 tools/time_grow.py SRC_ROOT [SRC_ROOT_B] [--rounds R]
                               [--steps S ...] [--command-steps C]
                               [--series-steps T P]

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

With two roots, times taken in separate processes minutes apart would not
compare, so the timings come from this one process, which loads both
checkouts (as `tools/time_urn.py` does) and alternates them round by round
(`tools/rounds.py`). Under each size, `us_per_edge` gives, per phase, each
root's median and best round, `pairs_won` and `worst_ratio`: `run` grows a
seed graph made before its clock starts, and `check` and `census` read a
graph that root grew in an untimed first run. Under each series shape,
`run_ms` does the same after an untimed first call per root. The memory
figures stay per root, each from a fresh interpreter of its own, under the
root's label ("a" for SRC_ROOT, "b" for SRC_ROOT_B) beside those timings,
as do the `commands` rows.
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

from rounds import alternate, summary
from time_urn import load

SEED_EDGES = "".join(f"0 1 {t}\n" for t in (1, 2) for _ in range(100))


def maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def criterion_3(graph, harness, steps: int) -> tuple:
    """The replicate's seed spec and its three phases, each a call on a
    graph, made of one checkout's `graph` and `harness` modules."""
    import numpy as np

    spec = graph.SeedGraphSpec(2, [(0, 1, t) for t in range(2)
                                   for _ in range(100)])
    schedule = graph.PerturbationSchedule(np.array([[0.9, 0.1], [0.1, 0.9]]))
    return spec, {
        "run": lambda g: graph.run(g, schedule, 2, steps, max(steps, 1),
                                   harness.replicate_stream(0, 0),
                                   census=False),
        "check": lambda g: graph.check_graph_invariants(g, 2),
        "census": graph.empirical_distribution,
    }


def replicate(steps: int, rounds: int) -> dict:
    """The timings, traced peaks and RSS of one size, in this process."""
    import tracemalloc

    import mtpa.graph
    import mtpa.harness
    from mtpa.graph import new_graph

    spec, phases = criterion_3(mtpa.graph, mtpa.harness, steps)
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


def series_call(graph, harness, matrices, shape: str, steps: int) -> tuple:
    """The call that grows a series of `shape`, with one checkout's modules,
    returning (graph, snapshots); and its snapshot interval and census."""
    import numpy as np

    if shape == "graph_snapshots":
        decay = matrices.parse_matrix(
            ",".join("0.1" if i == j else "-0.05"
                     for i in range(3) for j in range(3)), 3, what="decay")
        schedule = graph.PerturbationSchedule(
            matrices.parse_matrix("symmetric:0.8", 3), graph.DECAYING, decay,
            0.5)
        spec = graph.SeedGraphSpec.default(3)
        m, every, census = 4, steps // 50, True
    else:
        schedule = graph.PerturbationSchedule(
            np.array([[0.9, 0.1], [0.1, 0.9]]))
        spec = graph.SeedGraphSpec(2, [(0, 1, t) for t in range(2)
                                       for _ in range(100)])
        m, every, census = 2, steps // 100, False
    every = max(1, every)

    def call():
        grown = graph.new_graph(spec)
        snapshots = graph.run(grown, schedule, m, steps, every,
                              harness.replicate_stream(0, 0), census=census)
        return grown, snapshots

    return call, every, census


def series(shape: str, steps: int, rounds: int) -> dict:
    """The `run` timing and traced peak of one shape, in this process."""
    import tracemalloc

    import mtpa.graph
    import mtpa.harness
    import mtpa.matrices

    call, every, census = series_call(mtpa.graph, mtpa.harness,
                                      mtpa.matrices, shape, steps)
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


def child(root: str, rounds: int, *argv) -> dict:
    """One size or series shape of `root`, in a fresh interpreter."""
    done = subprocess.run([sys.executable, __file__, root, "--rounds",
                           str(rounds), *argv],
                          check=True, capture_output=True, text=True)
    return json.loads(done.stdout)


def alternated(modules: dict, steps: int, rounds: int) -> dict:
    """The `us_per_edge` summary of each phase of one size, both roots'
    rounds alternated in this process."""
    labels = "".join(modules)
    made = {label: criterion_3(graph, harness, steps)
            for label, (graph, harness, _) in modules.items()}
    # an untimed first run per root, whose graph the check and the census
    # read
    grown = {}
    for label, (spec, phases) in made.items():
        grown[label] = modules[label][0].new_graph(spec)
        phases["run"](grown[label])
    seeds = {label: [modules[label][0].new_graph(spec)
                     for _ in range(rounds)]
             for label, (spec, _) in made.items()}

    def grow(label, _):
        graph = seeds[label].pop()
        made[label][1]["run"](graph)
        return graph

    times = {"run": alternate(labels, rounds, grow)}
    for name in ("check", "census"):
        times[name] = alternate(
            labels, rounds,
            lambda label, _, name=name: made[label][1][name](grown[label]))
    return {name: summary({label: [t / grown[label].num_edges for t in ts]
                           for label, ts in per_label.items()},
                          "us_per_edge", 1e6)
            for name, per_label in times.items()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("roots", nargs="+", metavar="root")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--steps", type=int, nargs="+",
                        default=[200_000, 1_000_000])
    parser.add_argument("--command-steps", type=int, default=200_000)
    parser.add_argument("--series-steps", type=int, nargs=2,
                        default=[12_500, 200_000], metavar=("T", "P"))
    parser.add_argument("--one", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--one-series", nargs=2, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if len(args.roots) > 2:
        parser.error("at most two roots")
    if args.one is not None or args.one_series is not None:
        sys.path.insert(0, os.path.join(args.roots[0], "src"))
        if args.one is not None:
            print(json.dumps(replicate(args.one, args.rounds)))
        else:
            shape, steps = args.one_series
            print(json.dumps(series(shape, int(steps), args.rounds)))
        return 0
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    if len(args.roots) == 1:
        root = args.roots[0]
        out = {"rounds": args.rounds, "replicate": {
            str(steps): child(root, args.rounds, "--one", str(steps))
            for steps in args.steps}}
        out["series"] = {
            shape: child(root, args.rounds, "--one-series", shape, str(steps))
            for shape, steps in zip(("graph_snapshots", "diagnose_psi"),
                                    args.series_steps) if steps > 0}
        if args.command_steps > 0:
            out["commands"] = commands(root, args.command_steps)
        print(json.dumps(out))
        return 0

    # the memory figures come from each root's own interpreter, one round
    # of it; the timings from this one, both roots loaded
    roots = dict(zip("ab", args.roots))
    modules = {label: load(root, f"mtpa_{label}",
                           ("graph", "harness", "matrices"))
               for label, root in roots.items()}
    out = {"roots": roots, "rounds": args.rounds, "replicate": {},
           "series": {}}
    for steps in args.steps:
        entry = out["replicate"][str(steps)] = {}
        for label, root in roots.items():
            entry[label] = child(root, 1, "--one", str(steps))
            del entry[label]["us_per_edge"]
        entry["us_per_edge"] = alternated(modules, steps, args.rounds)
    for shape, steps in zip(("graph_snapshots", "diagnose_psi"),
                            args.series_steps):
        if steps > 0:
            entry = out["series"][shape] = {}
            for label, root in roots.items():
                entry[label] = child(root, 1, "--one-series", shape,
                                     str(steps))
                del entry[label]["run_ms"]
            calls = {label: series_call(*modules[label], shape, steps)[0]
                     for label in roots}
            for call in calls.values():
                call()
            entry["run_ms"] = summary(
                alternate("ab", args.rounds, lambda label, _: calls[label]()),
                "ms", 1e3)
    if args.command_steps > 0:
        out["commands"] = {label: commands(root, args.command_steps)
                           for label, root in roots.items()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
