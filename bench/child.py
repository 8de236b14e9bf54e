"""Child-process entry: runs one `mtpa` command under a probe.

    python3 child.py setup -- ARGS...         stop at the first stepping or
                                              solving call (set-up time)
    python3 child.py trace SPANS -- ARGS...   run `mtpa ARGS` recording spans,
                                              written to SPANS as JSON at exit
    python3 child.py memory CONFIG STEPS      tracemalloc peak of stepping the
                                              graph of CONFIG for STEPS steps

Only the standard library is imported before `mtpa`, so a set-up probe
costs what the real command costs up to its first unit of work. Spans are
recorded by replacing public functions in the module namespaces that look
them up; `pa_step` is never wrapped, because a wrapper would cost a large
share of its few microseconds per edge.
"""
from __future__ import annotations

import inspect
import json
import math
import os
import sys
import time

# the calls at which a command stops configuring itself and starts working
WORK_CALLS = ("run_experiment", "run", "run_urn", "solve_recurrence",
              "solve_unperturbed_recurrence", "perturbed_vs_unperturbed_study")


def setup_probe(argv: list) -> int:
    import mtpa.cli as cli

    def stop(*args, **kwargs):
        os._exit(0)

    for name in WORK_CALLS:
        getattr(cli, name)  # a renamed entry point must fail the probe
        setattr(cli, name, stop)
    cli.main(argv)
    return 3  # the command ended without reaching any work


class Recorder:
    """Spans as [name, start, end, parent index, attrs], kept in memory."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.resolve_from = None  # set while config resolution is running

    def _append(self, name, start, end):
        if self.resolve_from is not None:
            # the first call into a layer ends config resolution
            self.spans.append(["cli.resolve", self.resolve_from, start,
                               self.stack[-1], {}])
            self.resolve_from = None
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, start, end, parent, {}])
        return len(self.spans) - 1

    def open(self, name) -> int:
        index = self._append(name, time.perf_counter(), None)
        self.stack.append(index)
        return index

    def close(self, index) -> None:
        """Close span `index` and any span still open inside it."""
        now = time.perf_counter()
        while self.stack:
            top = self.stack.pop()
            self.spans[top][2] = now
            if top == index:
                return

    def record(self, name, start, **attrs) -> None:
        index = self._append(name, start, time.perf_counter())
        self.spans[index][4].update(attrs)

    def top(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    def wrap(self, module, attr, name, enter=None, leave=None,
             rows_arg=None) -> None:
        """Replace module.attr by a function that records a span `name`.

        `enter(bound)` runs before the call and its result is passed to
        `leave(attrs, state, bound, result)` after the span closed.
        """
        original = getattr(module, attr)
        signature = inspect.signature(original)
        recorder = self

        def traced(*args, **kwargs):
            bound = None
            if enter or leave or rows_arg:
                bound = signature.bind(*args, **kwargs).arguments
                if rows_arg and not isinstance(bound[rows_arg], (list, tuple)):
                    bound[rows_arg] = list(bound[rows_arg])
                args, kwargs = (), bound
            state = enter(bound) if enter else None
            index = recorder.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.close(index)
            if leave:
                leave(recorder.spans[index][4], state, bound, result)
            return result

        setattr(module, attr, traced)


def install(rec: Recorder) -> None:
    """Wrap the calls the CLI makes into each layer."""
    import mtpa.cli as cli
    import mtpa.graph as graph
    import mtpa.harness as harness
    import mtpa.output as output

    def cells(n, m, max_weight):
        return math.comb(max_weight + n, n) - math.comb(m - 1 + n, n)

    # graph: a replicate steps from new_graph returning to the invariant check
    stepping = {}

    def graph_built(attrs, state, bound, result):
        stepping["from"] = (time.perf_counter(), result.num_edges)

    def invariants_entered(bound):
        if "from" in stepping:
            start, edges = stepping.pop("from")
            rec.record("graph.step", start, edges=bound["graph"].num_edges - edges)

    def edges_before(bound):
        return bound["graph"].num_edges

    def edges_added(attrs, before, bound, result):
        attrs["edges"] = bound["graph"].num_edges - before

    def census_read(attrs, state, bound, result):
        attrs["cells"] = len(result.masses)

    for module in (cli, harness):
        rec.wrap(module, "new_graph", "graph.new_graph",
                 leave=graph_built if module is harness else None)
    rec.wrap(cli, "run", "graph.run", enter=edges_before, leave=edges_added)
    rec.wrap(harness, "check_graph_invariants", "graph.check_invariants",
             enter=invariants_entered)

    # harness: a replicate opens at its generator and closes after its last
    # public call (edge_type_proportions for the graph, the urn check)
    def replicate_done(attrs, state, bound, result):
        if rec.top() == "harness.replicate":
            rec.close(rec.stack[-1])

    for module in (graph, harness):
        rec.wrap(module, "empirical_distribution", "graph.empirical_distribution",
                 leave=census_read)
        rec.wrap(module, "edge_type_proportions", "graph.edge_type_proportions",
                 leave=replicate_done if module is harness else None)

    replicate_stream = harness.replicate_stream

    def replicate_opened(*args, **kwargs):
        if rec.top() == "harness.run_experiment":
            rec.open("harness.replicate")
        return replicate_stream(*args, **kwargs)

    harness.replicate_stream = replicate_opened
    rec.wrap(cli, "run_experiment", "harness.run_experiment")
    rec.wrap(cli, "perturbed_vs_unperturbed_study", "harness.study",
             leave=lambda attrs, s, b, result: attrs.update(samples=result.n_samples))

    # urn
    def urn_steps_before(bound):
        return bound["urn"].step_index

    def urn_stepped(attrs, before, bound, result):
        urn = bound["urn"]
        attrs["steps"] = urn.step_index - before
        attrs["draws"] = attrs["steps"] * urn.m

    for module in (cli, harness):
        rec.wrap(module, "bernoulli_column_sampler", "urn.sampler")
        rec.wrap(module, "new_urn", "urn.new_urn")
        rec.wrap(module, "run_urn", "urn.run_urn", enter=urn_steps_before,
                 leave=urn_stepped)
    rec.wrap(harness, "check_urn_invariants", "urn.check_invariants",
             leave=replicate_done)

    # theory
    def perturbed_cells(attrs, state, bound, result):
        attrs["cells"] = cells(len(bound["type_flip_matrix"]), bound["m"],
                               bound["max_weight"])

    def unperturbed_cells(attrs, state, bound, result):
        attrs["cells"] = cells(len(bound["psi"]), bound["m"], bound["max_weight"])

    for module in (cli, harness):
        rec.wrap(module, "solve_recurrence", "theory.solve_recurrence",
                 leave=perturbed_cells)
        rec.wrap(module, "solve_unperturbed_recurrence",
                 "theory.solve_unperturbed_recurrence", leave=unperturbed_cells)
    rec.wrap(harness, "stationary_type_distribution", "theory.stationary")

    # output
    def csv_written(attrs, state, bound, result):
        attrs["rows"] = len(bound["rows"])
        attrs["bytes"] = os.path.getsize(result)

    for module in (cli, output):
        rec.wrap(module, "write_csv", "output.write_csv", leave=csv_written,
                 rows_arg="rows")
    for name in ("write_distribution_csv", "write_graph_snapshots",
                 "write_urn_trajectory"):
        rec.wrap(cli, name, f"output.{name}")
    rec.wrap(cli, "write_manifest", "output.write_manifest")


def trace(spans_path: str, argv: list) -> int:
    rec = Recorder()
    start = time.perf_counter()
    import mtpa.cli as cli
    rec.record("cli.import", start)
    install(rec)
    main = rec.open("cli.main")
    rec.resolve_from = rec.spans[main][1]
    try:
        code = cli.main(argv)
    finally:
        rec.close(main)
        with open(spans_path, "w") as fh:
            json.dump({"spans": rec.spans}, fh)
    return code


def memory(config: str, steps: int) -> int:
    import tracemalloc

    from mtpa.config import parse_config
    from mtpa.graph import new_graph, pa_step
    from mtpa.harness import replicate_stream

    cfg = parse_config(config)
    spec, schedule = cfg.seed_spec(), cfg.schedule()
    rng = replicate_stream(cfg.master_seed, 0)
    tracemalloc.start()
    graph = new_graph(spec)
    for _ in range(steps):
        pa_step(graph, schedule, cfg.m_edges, rng)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    print(json.dumps({"peak_bytes": peak, "edges": graph.num_edges}))
    return 0


def main(argv: list) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        return setup_probe(rest[rest.index("--") + 1:])
    if mode == "trace":
        return trace(rest[0], rest[rest.index("--") + 1:])
    if mode == "memory":
        return memory(rest[0], int(rest[1]))
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
