"""Per-layer metrics computed from the spans of traced executions.

A span's self time is its duration minus the time its child spans cover.
Each metric returns None when the spans never reach its layer; the traced
run then takes it from the tiny companion run of the workload that owns
the layer (`owner`).
"""
from __future__ import annotations

import json
import statistics
from dataclasses import dataclass

# name -> unit; BENCHMARK.json lists the same metrics in the same order
PER_LAYER = {
    "graph.step_us_per_edge": "us",
    "graph.bytes_per_edge": "B",
    "graph.snapshot_ms": "ms",
    "graph.invariants_ms": "ms",
    "graph.edges": "count",
    "graph.census_cells": "count",
    "urn.step_us": "us",
    "urn.draws": "count",
    "theory.perturbed_us_per_cell": "us",
    "theory.unperturbed_us_per_cell": "us",
    "theory.cells": "count",
    "harness.replicate_s": "s",
    "harness.replicate_max_s": "s",
    "harness.aggregate_ms": "ms",
    "harness.study_ms_per_sample": "ms",
    "output.write_ms": "ms",
    "output.bytes": "B",
    "output.rows": "count",
    "output.manifest_ms": "ms",
    "cli.import_ms": "ms",
    "cli.resolve_ms": "ms",
    "trace.overhead_s": "s",
}


def owner(metric: str) -> str:
    """The workload whose tiny companion run supplies `metric` when missing."""
    if metric.startswith("urn."):
        return "urn_compare"
    if metric.startswith("theory.") or metric == "harness.study_ms_per_sample":
        return "theory_solve"
    if metric.startswith("output."):
        return "graph_snapshots"
    return "graph_compare"  # graph.*, the replicate and aggregate timings, cli.*


# counts that must repeat exactly between two runs of one seed
COUNTS = ("graph.edges", "graph.census_cells", "urn.draws", "theory.cells",
          "output.bytes", "output.rows")
STEPPING = ("graph.step", "graph.run")
WRITES = ("output.write_csv", "output.write_distribution_csv",
          "output.write_graph_snapshots", "output.write_urn_trajectory")


@dataclass
class Span:
    name: str
    duration: float
    self_time: float
    attrs: dict

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def load(paths) -> list:
    """Spans of the given span files, with self times."""
    spans = []
    for path in paths:
        with open(path) as fh:
            raw = json.load(fh)["spans"]
        covered = [0.0] * len(raw)
        for name, start, end, parent, _ in raw:
            if parent is not None:
                covered[parent] += end - start
        spans += [Span(name, end - start, end - start - covered[i], attrs)
                  for i, (name, start, end, _, attrs) in enumerate(raw)]
    return spans


def _select(spans, names):
    names = (names,) if isinstance(names, str) else names
    return [s for s in spans if s.name in names]


def _sum(spans, names, what="self_time"):
    return sum(getattr(s, what) for s in _select(spans, names))


def _attr(spans, names, key):
    return sum(s.attrs.get(key, 0) for s in _select(spans, names))


def _ratio(numerator, denominator, scale=1.0):
    return numerator * scale / denominator if denominator else None


def _mean_ms(spans, name):
    durations = [s.duration for s in _select(spans, name)]
    return statistics.fmean(durations) * 1e3 if durations else None


def span_metrics(spans) -> dict:
    """Every span-derived per-layer metric (None where the layer is absent)."""
    edges = _attr(spans, STEPPING, "edges")
    urn_steps = _attr(spans, "urn.run_urn", "steps")
    perturbed = _attr(spans, "theory.solve_recurrence", "cells")
    unperturbed = _attr(spans, "theory.solve_unperturbed_recurrence", "cells")
    replicates = [s.duration for s in _select(spans, "harness.replicate")]
    census = _attr(spans, "graph.empirical_distribution", "cells")
    csv = _select(spans, "output.write_csv")
    present = {s.name for s in spans}

    def ms_if(name, value):
        return value * 1e3 if name in present else None

    return {
        "graph.step_us_per_edge": _ratio(_sum(spans, STEPPING), edges, 1e6),
        "graph.snapshot_ms": _mean_ms(spans, "graph.empirical_distribution"),
        "graph.invariants_ms": _mean_ms(spans, "graph.check_invariants"),
        "graph.edges": edges or None,
        "graph.census_cells": census or None,
        "urn.step_us": _ratio(_sum(spans, "urn.run_urn"), urn_steps, 1e6),
        "urn.draws": _attr(spans, "urn.run_urn", "draws") or None,
        "theory.perturbed_us_per_cell": _ratio(
            _sum(spans, "theory.solve_recurrence", "duration"), perturbed, 1e6),
        "theory.unperturbed_us_per_cell": _ratio(
            _sum(spans, "theory.solve_unperturbed_recurrence", "duration"),
            unperturbed, 1e6),
        "theory.cells": (perturbed + unperturbed) or None,
        "harness.replicate_s": statistics.median(replicates) if replicates else None,
        "harness.replicate_max_s": max(replicates) if replicates else None,
        "harness.aggregate_ms": ms_if("harness.run_experiment",
                                      _sum(spans, "harness.run_experiment")),
        "harness.study_ms_per_sample": _ratio(
            _sum(spans, "harness.study"), _attr(spans, "harness.study", "samples"), 1e3),
        "output.write_ms": ms_if("output.write_csv", _sum(spans, WRITES)),
        "output.bytes": sum(s.attrs["bytes"] for s in csv) or None,
        "output.rows": sum(s.attrs["rows"] for s in csv) or None,
        "output.manifest_ms": ms_if("output.write_manifest",
                                    _sum(spans, "output.write_manifest")),
        "cli.import_ms": ms_if("cli.import", _sum(spans, "cli.import", "duration")),
        "cli.resolve_ms": ms_if("cli.resolve", _sum(spans, "cli.resolve", "duration")),
    }


def shares(spans, wall: float) -> dict:
    """Self time by layer and by span name, as shares of the traced wall time.

    `startup` is what no span covers: interpreter start and exit.
    """
    by_layer, by_span = {}, {}
    for s in spans:
        by_layer[s.layer] = by_layer.get(s.layer, 0.0) + s.self_time
        by_span[s.name] = by_span.get(s.name, 0.0) + s.self_time
    top_level = sum(s.duration for s in spans if s.name in ("cli.import", "cli.main"))
    by_layer["startup"] = wall - top_level
    return {"layers": {k: v / wall for k, v in sorted(by_layer.items(), key=lambda kv: -kv[1])},
            "spans": {k: v / wall for k, v in sorted(by_span.items(), key=lambda kv: -kv[1])}}
