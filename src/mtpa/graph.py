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
edges.

`pa_step` applies one step with scalar code and is the reference. `grow`
applies many steps at once and is what runs use. The pool only grows by
appends, so the pool size at every step is known in advance, and all the
steps' uniforms can be drawn in one call. Each new edge then depends only
on the slot it drew: its endpoint is that slot's vertex, and its type is
its flip map applied to that slot's type. `grow` follows these chains
through the pool in vectorized rounds and gives the same graph bit for bit.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import matrices
from .degrees import DegreeDistribution, EMPIRICAL, degree_dtype
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
            # written so that a NaN fails them
            if not np.all(np.abs(arr.sum(axis=1)) <= matrices.ROW_SUM_TOL):
                raise ValidationError("decay matrix rows must sum to 0")
            if not self.rho > 0:
                raise ValidationError("decay exponent rho must be positive")
            self.decay = arr

    def _matrices(self, first: int, count: int) -> np.ndarray:
        """The matrices of steps n = first .. first+count-1, as one
        (count, N, N) array; a constant schedule gives its one matrix,
        shape (1, N, N).

        Each step's scale is Python's `float(n) ** rho`: `np.power` differs
        from it in the last bit for some n.
        """
        if self.kind == CONSTANT:
            return self.limit[None]
        scale = np.array([float(n) ** self.rho
                          for n in range(first, first + count)])
        raw = np.clip(self.limit + self.decay / scale[:, None, None], 0.0, 1.0)
        return raw / raw.sum(axis=2, keepdims=True)

    def matrix_at(self, n: int) -> np.ndarray:
        return self._matrices(n, 1)[0]

    def cdf_table(self, first: int, count: int) -> np.ndarray:
        """The flip law (`matrices.row_cdfs`) of the same steps, and the
        same shape, as `_matrices(first, count)`."""
        return matrices.row_cdfs(self._matrices(first, count))


class GraphSnapshot(NamedTuple):
    n: int
    psi: tuple  # per-type edge proportions
    distribution: DegreeDistribution


def _index_dtype(slots: int):
    """Pool indices are int32 until the pool reaches 2**31 slots."""
    return np.int32 if slots < 2**31 else np.int64


class TypedGraph:
    """Full mutable state of the growing multigraph, in numpy arrays.

    Vertices are dense 0-based ids; seed vertices keep their sorted input
    order. `endpoint_pool` (vertex per slot) and `pool_types` (the owning
    edge's type per slot) hold two slots per edge for degree-proportional
    sampling. The pool is also the edge list: edge i joins
    `endpoint_pool[2i]` and `endpoint_pool[2i+1]` with type `pool_types[2i]`;
    for a grown edge the first slot is the newcomer. `per_vertex_degree` is
    a (vertices, n_types) array; the census is derived from it on demand
    (`empirical_distribution`).
    """

    __slots__ = ("n_types", "num_vertices", "endpoint_pool",
                 "pool_types", "per_vertex_degree", "type_counts",
                 "step_index", "initial_num_vertices", "initial_num_edges")

    def __init__(self, n_types: int):
        self.n_types = n_types
        self.num_vertices = 0
        self.endpoint_pool = np.zeros(0, np.int32)
        # the smallest signed integer type that holds every type index
        self.pool_types = np.zeros(0, np.min_scalar_type(-n_types))
        self.per_vertex_degree = np.zeros((0, n_types), np.int64)
        self.type_counts = [0] * n_types
        self.step_index = 0
        self.initial_num_vertices = 0
        self.initial_num_edges = 0

    @property
    def num_edges(self) -> int:
        return len(self.endpoint_pool) // 2


def _degree_counts(vertices: np.ndarray, types: np.ndarray, n_vertices: int,
                   n_types: int) -> np.ndarray:
    """(n_vertices, n_types) count of the slots of each vertex and type."""
    keys = vertices.astype(np.int64) * n_types + types
    return np.bincount(keys, minlength=n_vertices * n_types).reshape(
        n_vertices, n_types)


def _census(degrees: np.ndarray) -> tuple:
    """Histogram of the degree rows: the distinct rows in `sort_key` order,
    as a small-int array, and how many times each occurs.

    Each row is keyed by one int64 (mixed radix over the columns, ranked
    densely before a column that would overflow it), since np.unique over
    rows (axis=0) is several times slower than over scalars. Key order is
    lexicographic order, so a stable sort by weight gives `sort_key` order.
    """
    key = np.zeros(len(degrees), np.int64)
    span = 1
    for column in degrees.T:
        radix = int(column.max(initial=0)) + 1
        if span * radix >= 2**63:
            key = np.unique(key, return_inverse=True)[1]
            span = int(key.max(initial=0)) + 1
        key = key * radix + column
        span *= radix
    _, first, counts = np.unique(key, return_index=True, return_counts=True)
    rows = degrees[first].astype(degree_dtype(degrees.max(initial=0)))
    order = np.argsort(rows.sum(axis=1), kind="stable")
    return rows[order], counts[order]


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
    ends, types = [], []
    for a, b, t in seed_spec.edges:
        if a == b:
            raise LoopEdge(f"seed edge ({a}, {b}) is a loop")
        if not 0 <= t < n:
            raise ValidationError(f"edge type index {t} outside [0, {n})")
        ends += (index[a], index[b])
        types.append(t)
    graph.type_counts = np.bincount(types, minlength=n).tolist()
    for t, count in enumerate(graph.type_counts):
        if count == 0:
            raise MissingType(t + 1)
    graph.num_vertices = len(vertex_ids)
    graph.initial_num_vertices = len(vertex_ids)
    graph.initial_num_edges = len(types)
    graph.endpoint_pool = np.array(ends, _index_dtype(len(ends)))
    graph.pool_types = np.repeat(np.array(types, graph.pool_types.dtype), 2)
    graph.per_vertex_degree = _degree_counts(
        graph.endpoint_pool, graph.pool_types, graph.num_vertices, n)
    return graph


def pa_step(graph: TypedGraph, schedule: PerturbationSchedule, m: int,
            rng: np.random.Generator) -> TypedGraph:
    """Apply one growth step: a new vertex with m perturbed typed edges.

    Consumes exactly 2*m uniforms: per edge one slot draw (endpoint and
    initial type at once, see module docstring) and one perturbation draw.
    Degrees, pool and type counts all update atomically at the end,
    so every probability inside the step is a function of the frozen state.
    This is the scalar reference that `grow` must reproduce.
    """
    n = graph.step_index + 1
    pool_v = graph.endpoint_pool
    pool_t = graph.pool_types
    frozen = len(pool_v)
    if frozen == 0:
        raise EmptyPool("graph has no edges to sample from")
    cdfs = schedule.cdf_table(n, 1)[0].tolist()
    us = rng.random(2 * m).tolist()

    n_types = graph.n_types
    new_vertex = graph.num_vertices
    chosen = []
    for i in range(m):
        slot = int(us[2 * i] * frozen)
        if slot == frozen:
            slot -= 1
        final = bisect_right(cdfs[pool_t[slot]], us[2 * i + 1])
        chosen.append((int(pool_v[slot]), final))

    degrees = np.concatenate((graph.per_vertex_degree,
                              np.zeros((1, n_types), np.int64)))
    new_slots, new_types = [], []
    for endpoint, final in chosen:
        graph.type_counts[final] += 1
        degrees[new_vertex, final] += 1
        degrees[endpoint, final] += 1
        new_slots += (new_vertex, endpoint)
        new_types += (final, final)
    graph.endpoint_pool = np.concatenate(
        (pool_v, np.array(new_slots, _index_dtype(frozen + 2 * m))))
    graph.pool_types = np.concatenate(
        (pool_t, np.array(new_types, pool_t.dtype)))

    graph.per_vertex_degree = degrees
    graph.num_vertices = new_vertex + 1
    graph.step_index = n
    return graph


def grow(graph: TypedGraph, schedule: PerturbationSchedule, m: int,
         n_steps: int, rng: np.random.Generator) -> TypedGraph:
    """Apply `n_steps` growth steps at once, from any state.

    Draws the same uniforms in the same order as `n_steps` calls of
    `pa_step`, and leaves the same graph bit for bit. New edge e of step j
    (0-based in this call) is pool edge start/2 + e, with e = j*m + i. It
    drew slot s < frozen_j = start + 2mj. Its endpoint is the vertex of
    slot s, which for a grown odd slot is again the endpoint of that slot's
    edge. Its type is its flip map (the step's flip outcome for each parent
    type) applied to the type of slot s's edge. Both chains end in the
    pool as it was (or, for endpoints, at a newcomer slot). Endpoints are
    resolved by pointer doubling, types one generation per round; both
    take rounds that grow with the log of the number of edges.
    """
    if n_steps < 0:
        raise ValidationError("n_steps must be nonnegative")
    if n_steps == 0:
        return graph
    start = len(graph.endpoint_pool)
    if start == 0:
        raise EmptyPool("graph has no edges to sample from")
    n_types = graph.n_types
    first_vertex, first_edge = graph.num_vertices, start // 2
    k = m * n_steps
    idx = _index_dtype(start + 2 * k)

    draws = rng.random(2 * k)
    step = np.arange(k, dtype=idx) // m
    frozen = start + 2 * m * step
    slot = np.minimum((draws[0::2] * frozen).astype(idx), frozen - 1)
    del frozen

    # flip[e, t]: the type edge e takes when its parent slot has type t,
    # i.e. how many of the step's CDF entries row t lie at or below e's
    # flip uniform (the last entry is 1.0 and never does)
    table = schedule.cdf_table(graph.step_index + 1, n_steps)
    row = step if len(table) > 1 else 0
    flip_u = draws[1::2]
    flip = np.zeros((k, n_types), graph.pool_types.dtype)
    for t in range(n_types):
        for c in range(n_types - 1):
            flip[:, t] += table[row, t, c] <= flip_u
    del draws, flip_u, table

    # types, in rounds: an edge whose parent edge's type is known takes
    # its flip of that type; round r settles the edges r generations below
    # the pool as it was
    parent = slot // 2
    edge_type = np.full(k, -1, flip.dtype)
    seed_side = np.flatnonzero(parent < first_edge)
    edge_type[seed_side] = flip[seed_side,
                                graph.pool_types[2 * parent[seed_side]]]
    pending = np.flatnonzero(parent >= first_edge)
    while pending.size:
        parent_type = edge_type[parent[pending] - first_edge]
        known = parent_type >= 0
        ready = pending[known]
        edge_type[ready] = flip[ready, parent_type[known]]
        pending = pending[~known]
    del flip, parent, seed_side

    # endpoints, by pointer doubling: a grown odd slot holds the endpoint
    # its own edge drew
    pending = np.flatnonzero((slot >= start) & (slot % 2 == 1))
    while pending.size:
        slot[pending] = slot[(slot[pending] - start) // 2]
        hop = slot[pending]
        pending = pending[(hop >= start) & (hop % 2 == 1)]
    new_slots = np.empty(2 * k, idx)
    new_slots[0::2] = first_vertex + step
    seed_side = slot < start
    new_slots[1::2] = np.where(seed_side,
                               graph.endpoint_pool[np.where(seed_side, slot, 0)],
                               first_vertex + (slot - start) // (2 * m))
    del slot, step, seed_side
    new_types = np.repeat(edge_type, 2)

    vertices = first_vertex + n_steps
    degrees = _degree_counts(new_slots, new_types, vertices, n_types)
    degrees[:first_vertex] += graph.per_vertex_degree
    gained = np.bincount(edge_type, minlength=n_types).tolist()
    graph.type_counts = [a + b for a, b in zip(graph.type_counts, gained)]
    graph.endpoint_pool = np.concatenate((graph.endpoint_pool, new_slots))
    graph.pool_types = np.concatenate((graph.pool_types, new_types))
    graph.per_vertex_degree = degrees
    graph.num_vertices = vertices
    graph.step_index += n_steps
    return graph


def edge_type_proportions(graph: TypedGraph) -> tuple:
    total = float(graph.num_edges)
    return tuple(c / total for c in graph.type_counts)


def empirical_distribution(graph: TypedGraph) -> DegreeDistribution:
    """Census normalized by the number of vertices."""
    rows, counts = _census(graph.per_vertex_degree)
    return DegreeDistribution(rows, counts / float(graph.num_vertices),
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
    done = 0
    while done < n_steps:
        chunk = min(snapshot_every, n_steps - done)
        grow(graph, schedule, m, chunk, rng)
        done += chunk
        snapshots.append(_snapshot(graph))
    return snapshots


def check_graph_invariants(graph: TypedGraph, m: int) -> list:
    """Exact conservation checks; returns human-readable violations (empty = ok).

    Besides the counts, the per-vertex degrees must be a recount of the
    pool.
    """
    violations = []
    steps = graph.step_index
    pool_v, pool_t = graph.endpoint_pool, graph.pool_types
    n_types, vertices = graph.n_types, graph.num_vertices
    degrees = graph.per_vertex_degree
    edges = graph.num_edges
    if edges != graph.initial_num_edges + m * steps:
        violations.append(
            f"edge conservation: {edges} edges != "
            f"{graph.initial_num_edges} + {m}*{steps}")
    if sum(graph.type_counts) != edges:
        violations.append("type counts do not sum to the edge count")
    if any(c <= 0 for c in graph.type_counts):
        violations.append("a type has no edges")
    if vertices != graph.initial_num_vertices + steps:
        violations.append("vertex count != initial + steps")
    paired = len(pool_v) % 2 == 0 and len(pool_t) == len(pool_v)
    if not paired:
        violations.append("endpoint pool and type pool are not 2 slots per edge")
    handshake = int(degrees.sum())
    if handshake != len(pool_v):
        violations.append(f"handshake: degree total {handshake} != 2*|E|")
    edge_types = pool_t[0::2]
    if not np.array_equal(edge_types, pool_t[1::2]):
        violations.append("the two slots of an edge disagree on its type")
    if (np.any(pool_t < 0) or np.any(pool_t >= n_types)
            or np.any(pool_v < 0) or np.any(pool_v >= vertices)):
        violations.append("a slot names a vertex or type out of range")
        return violations
    recount = np.bincount(edge_types, minlength=n_types).tolist()
    if recount != graph.type_counts:
        violations.append("type counts disagree with the edge pool")
    if paired and not np.array_equal(
            _degree_counts(pool_v, pool_t, vertices, n_types), degrees):
        violations.append("per-vertex degrees disagree with the pool")
    return violations
