"""Simulator for preferential attachment with perturbed multi-type edges.

Each growth step adds one vertex and m typed edges. Every edge picks an
existing endpoint with probability proportional to its total degree,
inherits an initial type drawn from that endpoint's incident-type
proportions, and finally has its type flipped according to a row-stochastic
perturbation matrix. All m draws within one step use the graph state frozen
at the start of the step; bookkeeping is applied once at the end.

The endpoint pool stores two slots per edge (one per endpoint), so a uniform
slot draw is an exact degree-proportional vertex draw, and the slot's edge
type is at the same time a uniform draw over the chosen vertex's incident
edges. No weighted structures are ever rebuilt: weights only grow by
appends.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import matrices
from .degrees import DegreeDistribution, EMPIRICAL
from .errors import (EmptyGraph, EmptyPool, LoopEdge, MissingType, ParseError,
                     ValidationError)

CONSTANT = "constant"
DECAYING = "decaying"


@dataclass
class SeedGraphSpec:
    """Initial graph: a typed edge list over integer vertex ids.

    Types are 0-based here; the on-disk edge-list format uses 1-based types
    (`a b t` per line, `#` comments).
    """

    n_types: int
    edges: list  # [(a, b, type_index), ...]

    @classmethod
    def default(cls, n_types: int) -> "SeedGraphSpec":
        # smallest loop-free graph with one edge of each type: two vertices
        # joined by n_types parallel edges
        return cls(n_types, [(0, 1, t) for t in range(n_types)])

    @classmethod
    def from_file(cls, path, n_types: int | None = None) -> "SeedGraphSpec":
        edges = []
        max_type = 0
        try:
            with open(path) as fh:
                for lineno, line in enumerate(fh, start=1):
                    body = line.split("#", 1)[0].strip()
                    if not body:
                        continue
                    parts = body.split()
                    if len(parts) != 3:
                        raise ParseError(
                            f"{path}:{lineno}: expected 'a b t', got {body!r}")
                    try:
                        a, b, t = (int(p) for p in parts)
                    except ValueError as exc:
                        raise ParseError(f"{path}:{lineno}: {exc}") from exc
                    if t < 1:
                        raise ParseError(
                            f"{path}:{lineno}: types are 1-based, got {t}")
                    max_type = max(max_type, t)
                    edges.append((a, b, t - 1))
        except OSError as exc:
            raise ParseError(f"cannot read seed graph {path}: {exc}") from exc
        return cls(n_types if n_types is not None else max_type, edges)

    def type_counts(self) -> list:
        counts = [0] * self.n_types
        for _, _, t in self.edges:
            counts[t] += 1
        return counts


class PerturbationSchedule:
    """Sequence of row-stochastic type-flip matrices with an entrywise limit.

    CONSTANT uses the limit matrix at every step. DECAYING materializes
    limit + decay / n**rho, clamps entries to [0, 1] and renormalizes rows,
    which keeps every realized matrix row-stochastic while converging to the
    limit. `decay` must have zero row sums.
    """

    def __init__(self, limit, kind: str = CONSTANT, decay=None, rho: float = 1.0):
        self.limit = matrices.as_row_stochastic(limit, what="F")
        matrices.require_irreducible(self.limit, what="F")
        if kind not in (CONSTANT, DECAYING):
            raise ValidationError(f"unknown schedule kind {kind!r}")
        self.kind = kind
        self.rho = None
        self.decay = None
        if kind == DECAYING:
            self.rho = float(rho)
            if decay is None:
                raise ValidationError("decaying schedule needs a decay matrix")
            arr = np.asarray(decay, dtype=float)
            if arr.shape != self.limit.shape:
                raise ValidationError("decay matrix shape does not match F")
            if np.max(np.abs(arr.sum(axis=1))) > matrices.ROW_SUM_TOL:
                raise ValidationError("decay matrix rows must sum to 0")
            if self.rho <= 0:
                raise ValidationError("decay exponent rho must be positive")
            self.decay = arr
        self._constant_cdf = matrices.row_cdfs(self.limit)

    def matrix_at(self, n: int) -> np.ndarray:
        if self.kind == CONSTANT:
            return self.limit
        raw = np.clip(self.limit + self.decay / float(n) ** self.rho, 0.0, 1.0)
        return raw / raw.sum(axis=1, keepdims=True)

    def row_cdfs_at(self, n: int) -> tuple:
        if self.kind == CONSTANT:
            return self._constant_cdf
        return matrices.row_cdfs(self.matrix_at(n))


class GraphSnapshot(NamedTuple):
    n: int
    psi: tuple  # per-type edge proportions
    distribution: DegreeDistribution


class TypedGraph:
    """Full mutable state of the growing multigraph.

    Vertices are dense 0-based ids; seed vertices keep their sorted input
    order. `census` maps degree tuples to vertex counts, `endpoint_pool` and
    `pool_types` hold two slots per edge for O(1) degree-proportional
    sampling. The pool is also the edge list: edge i joins
    `endpoint_pool[2i]` and `endpoint_pool[2i+1]` with type `pool_types[2i]`;
    for a grown edge the first slot is the newcomer.
    """

    __slots__ = ("n_types", "num_vertices", "endpoint_pool",
                 "pool_types", "per_vertex_degree", "census", "type_counts",
                 "step_index", "initial_num_vertices", "initial_num_edges")

    def __init__(self, n_types: int):
        self.n_types = n_types
        self.num_vertices = 0
        self.endpoint_pool = []    # vertex id per slot, 2 slots per edge
        self.pool_types = []       # owning edge's type per slot
        self.per_vertex_degree = []  # vertex id -> degree tuple
        self.census = {}           # degree tuple -> vertex count
        self.type_counts = [0] * n_types
        self.step_index = 0
        self.initial_num_vertices = 0
        self.initial_num_edges = 0

    @property
    def num_edges(self) -> int:
        return len(self.endpoint_pool) // 2


def new_graph(seed_spec: SeedGraphSpec) -> TypedGraph:
    """Build a TypedGraph from a seed spec, checking seed validity.

    Requires at least one vertex, no loops, and at least one edge of every
    type among the first n_types.
    """
    n = seed_spec.n_types
    if n < 1:
        raise ValidationError("n_types must be at least 1")
    vertex_ids = sorted({v for a, b, _ in seed_spec.edges for v in (a, b)})
    if not vertex_ids:
        raise EmptyGraph("seed graph has no vertices")
    index = {v: i for i, v in enumerate(vertex_ids)}

    graph = TypedGraph(n)
    graph.num_vertices = len(vertex_ids)
    graph.initial_num_vertices = len(vertex_ids)
    degrees = [[0] * n for _ in vertex_ids]
    for a, b, t in seed_spec.edges:
        if a == b:
            raise LoopEdge(f"seed edge ({a}, {b}) is a loop")
        if not 0 <= t < n:
            raise ValidationError(f"edge type index {t} outside [0, {n})")
        ia, ib = index[a], index[b]
        graph.endpoint_pool.append(ia)
        graph.endpoint_pool.append(ib)
        graph.pool_types.append(t)
        graph.pool_types.append(t)
        graph.type_counts[t] += 1
        degrees[ia][t] += 1
        degrees[ib][t] += 1
    for t, count in enumerate(graph.type_counts):
        if count == 0:
            raise MissingType(t + 1)
    graph.initial_num_edges = graph.num_edges
    graph.per_vertex_degree = [tuple(deg) for deg in degrees]
    for deg in graph.per_vertex_degree:
        graph.census[deg] = graph.census.get(deg, 0) + 1
    return graph


def pa_step(graph: TypedGraph, schedule: PerturbationSchedule, m: int,
            rng: np.random.Generator) -> TypedGraph:
    """Apply one growth step: a new vertex with m perturbed typed edges.

    Consumes exactly 2*m uniforms: per edge one slot draw (endpoint and
    initial type at once, see module docstring) and one perturbation draw.
    Degrees, census, pool and type counts all update atomically at the end,
    so every probability inside the step is a function of the frozen state.
    """
    n = graph.step_index + 1
    pool_v = graph.endpoint_pool
    pool_t = graph.pool_types
    frozen = len(pool_v)
    if frozen == 0:
        raise EmptyPool("graph has no edges to sample from")
    cdfs = schedule.row_cdfs_at(n)
    us = rng.random(2 * m).tolist()

    n_types = graph.n_types
    new_vertex = graph.num_vertices
    chosen = []
    for i in range(m):
        slot = int(us[2 * i] * frozen)
        if slot == frozen:
            slot -= 1
        endpoint = pool_v[slot]
        row = cdfs[pool_t[slot]]
        u = us[2 * i + 1]
        final = 0
        while u >= row[final]:
            final += 1
        chosen.append((endpoint, final))

    type_counts = graph.type_counts
    new_degree = [0] * n_types
    gained = {}
    for endpoint, final in chosen:
        type_counts[final] += 1
        new_degree[final] += 1
        pool_v.append(new_vertex)
        pool_v.append(endpoint)
        pool_t.append(final)
        pool_t.append(final)
        inc = gained.get(endpoint)
        if inc is None:
            gained[endpoint] = inc = [0] * n_types
        inc[final] += 1

    census = graph.census
    degrees = graph.per_vertex_degree
    for endpoint, inc in gained.items():
        old = degrees[endpoint]
        new = tuple(o + i for o, i in zip(old, inc))
        remaining = census[old] - 1
        if remaining:
            census[old] = remaining
        else:
            del census[old]
        census[new] = census.get(new, 0) + 1
        degrees[endpoint] = new
    newcomer = tuple(new_degree)
    degrees.append(newcomer)
    census[newcomer] = census.get(newcomer, 0) + 1
    graph.num_vertices = new_vertex + 1
    graph.step_index = n
    return graph


def edge_type_proportions(graph: TypedGraph) -> tuple:
    total = float(graph.num_edges)
    return tuple(c / total for c in graph.type_counts)


def empirical_distribution(graph: TypedGraph) -> DegreeDistribution:
    """Census normalized by the number of vertices."""
    v = float(graph.num_vertices)
    return DegreeDistribution({d: c / v for d, c in graph.census.items()},
                              EMPIRICAL)


def _snapshot(graph: TypedGraph) -> GraphSnapshot:
    return GraphSnapshot(graph.step_index, edge_type_proportions(graph),
                         empirical_distribution(graph))


def run(graph: TypedGraph, schedule: PerturbationSchedule, m: int,
        n_steps: int, snapshot_every: int, rng: np.random.Generator) -> list:
    """Apply n_steps growth steps, snapshotting proportions and the census.

    Emits the initial state, then every `snapshot_every` steps and at the
    final step. Deterministic given the generator's seed.
    """
    if n_steps < 0:
        raise ValidationError("n_steps must be nonnegative")
    if snapshot_every < 1:
        raise ValidationError("snapshot_every must be at least 1")
    snapshots = [_snapshot(graph)]
    for step in range(1, n_steps + 1):
        pa_step(graph, schedule, m, rng)
        if step % snapshot_every == 0 or step == n_steps:
            snapshots.append(_snapshot(graph))
    return snapshots


def check_graph_invariants(graph: TypedGraph, m: int) -> list:
    """Exact conservation checks; returns human-readable violations (empty = ok)."""
    violations = []
    steps = graph.step_index
    pool_v, pool_t = graph.endpoint_pool, graph.pool_types
    edges = graph.num_edges
    if edges != graph.initial_num_edges + m * steps:
        violations.append(
            f"edge conservation: {edges} edges != "
            f"{graph.initial_num_edges} + {m}*{steps}")
    if sum(graph.type_counts) != edges:
        violations.append("type counts do not sum to the edge count")
    if any(c <= 0 for c in graph.type_counts):
        violations.append("a type has no edges")
    if sum(graph.census.values()) != graph.num_vertices:
        violations.append("census does not sum to the vertex count")
    if graph.num_vertices != graph.initial_num_vertices + steps:
        violations.append("vertex count != initial + steps")
    if len(pool_v) % 2 or len(pool_t) != len(pool_v):
        violations.append("endpoint pool and type pool are not 2 slots per edge")
    handshake = sum(sum(d) for d in graph.per_vertex_degree)
    if handshake != len(pool_v):
        violations.append(f"handshake: degree total {handshake} != 2*|E|")
    edge_types = pool_t[0::2]
    if edge_types != pool_t[1::2]:
        violations.append("the two slots of an edge disagree on its type")
    recount = [0] * graph.n_types
    for t in edge_types:
        recount[t] += 1
    if recount != graph.type_counts:
        violations.append("type counts disagree with the edge pool")
    return violations
