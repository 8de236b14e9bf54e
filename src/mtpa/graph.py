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

`pa_step` applies one step with scalar code and is the reference. `run`
applies many steps at once and is what every caller uses. The pool only
grows by appends, so the pool size at every step is known in advance:
`run` allocates the final pool once and fills it in passes of whole steps,
a constant number of edges per pass, drawing each pass's uniforms in one
call (`_fill`). Each new edge then depends only on the slot it drew: its
endpoint is that slot's vertex, and its type is its flip map applied to
that slot's type. Within a pass, the fill follows these chains back to the
pool as it was at the start of the pass, in vectorized rounds, and gives
the same graph bit for bit. `run` then tallies the filled slots into the
degree table and the type counts (`_tally`), one snapshot segment at a
time; a caller that wants only the final graph asks for one snapshot, at
the last step.

F = I, the model without perturbation, is a valid limit: each edge keeps
its initial type. Any other reducible limit is rejected.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from typing import NamedTuple

import numpy as np

from . import matrices
from .config import CONSTANT, DECAYING, SeedGraphSpec
from .degrees import DegreeDistribution, EMPIRICAL, degree_dtype, row_weights
from .errors import BrokenRun, ValidationError


class PerturbationSchedule:
    """Sequence of row-stochastic type-flip matrices with an entrywise limit.

    CONSTANT uses the limit matrix at every step. DECAYING materializes
    limit + decay / n**rho, clamps entries to [0, 1] and renormalizes rows,
    which keeps every realized matrix row-stochastic while converging to the
    limit. `decay` must have zero row sums. The limit is irreducible, or
    exactly the identity (the model without perturbation).
    """

    def __init__(self, limit, kind: str = CONSTANT, decay=None, rho: float = 1.0):
        self.limit = matrices.as_row_stochastic(limit, what="F")
        if not np.array_equal(self.limit, np.eye(len(self.limit))):
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
        from it in the last bit for some n. The shift, clip and row
        normalisation then run in place on the one (count, N, N) buffer.
        """
        if self.kind == CONSTANT:
            return self.limit[None]
        scale = np.fromiter((float(n) ** self.rho
                             for n in range(first, first + count)),
                            float, count)
        out = self.decay / scale[:, None, None]
        out += self.limit
        np.clip(out, 0.0, 1.0, out=out)
        out /= out.sum(axis=2, keepdims=True)
        return out

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
    """Pool indices are int32 until the pool reaches 2**31 slots. The
    degree table takes the same type: no degree exceeds the slot count."""
    return np.int32 if slots < 2**31 else np.int64


# edges per pass of `_fill`, rounded down to whole steps, and per
# pass of a tally; a fill pass's temporaries take 43 B per edge on a
# constant schedule and 49 B on a decaying one, beside its CDF table
_PASS_EDGES = 4096


class TypedGraph:
    """Full mutable state of the growing multigraph, in numpy arrays.

    Vertices are dense 0-based ids; seed vertices keep their sorted input
    order. `endpoint_pool` (vertex per slot) and `pool_types` (the owning
    edge's type per slot) hold two slots per edge for degree-proportional
    sampling. The pool is also the edge list: edge i joins
    `endpoint_pool[2i]` and `endpoint_pool[2i+1]` with type `pool_types[2i]`;
    for a grown edge the first slot is the newcomer. `per_vertex_degree` is
    a C-contiguous (vertices, n_types) array of the pool's index type; the
    census is derived from it on demand (`empirical_distribution`).
    """

    __slots__ = ("n_types", "endpoint_pool", "pool_types",
                 "per_vertex_degree", "type_counts", "step_index",
                 "initial_num_vertices", "initial_num_edges")

    def __init__(self, n_types: int):
        self.n_types = n_types
        self.endpoint_pool = np.zeros(0, np.int32)
        # the smallest signed integer type that holds every type index
        self.pool_types = np.zeros(0, np.min_scalar_type(-n_types))
        self.per_vertex_degree = np.zeros((0, n_types), np.int32)
        self.type_counts = [0] * n_types
        self.step_index = 0
        self.initial_num_vertices = 0
        self.initial_num_edges = 0

    @property
    def num_vertices(self) -> int:
        return len(self.per_vertex_degree)

    @property
    def num_edges(self) -> int:
        return len(self.endpoint_pool) // 2


def _add_degrees(degrees: np.ndarray, vertices: np.ndarray,
                 types: np.ndarray) -> None:
    """Add one to `degrees[v, t]` for each slot's vertex v and type t, in
    time linear in the slots, whatever the table's size. `degrees` is
    C-contiguous; np.add.at takes its fast loop only for a value of the
    table's own type."""
    keys = vertices.astype(np.intp) * degrees.shape[1]
    keys += types
    np.add.at(degrees.reshape(-1), keys, degrees.dtype.type(1))


def _tally(graph: TypedGraph, lo: int, hi: int,
           degrees: np.ndarray | None = None) -> np.ndarray:
    """Add the pool's slots `lo..hi-1` (`lo` even) to the degree table, or
    to `degrees`, `_PASS_EDGES` edges at a time, and return how many of
    their edges have each type, as int64."""
    pool, pool_types = graph.endpoint_pool, graph.pool_types
    if degrees is None:
        degrees = graph.per_vertex_degree
    counts = np.zeros(graph.n_types, np.int64)
    for base in range(lo, hi, 2 * _PASS_EDGES):
        end = min(base + 2 * _PASS_EDGES, hi)
        types = pool_types[base:end]
        counts += np.bincount(types[0::2], minlength=graph.n_types)
        _add_degrees(degrees, pool[base:end], types)
    return counts


def _census(degrees: np.ndarray) -> tuple:
    """Histogram of the degree rows: the distinct rows in degree order,
    as a small-int array, and how many times each occurs.

    Each row is keyed by one integer, since np.unique over rows (axis=0)
    is several times slower than over scalars: its weight, then its
    columns but the last (which the others and the weight fix) in mixed
    radix, ranked densely before a column that would overflow an int64.
    Key order is degree order, so the sorted distinct keys decode to
    the rows. The key is an int32 when the column maxima bound it below
    2**31. It is sorted in place and counted at its run boundaries, where
    np.unique would sort a copy. The weight is added and the last column
    decoded a column at a time.
    """
    tops = [int(column.max(initial=0)) for column in degrees.T]
    span = sum(tops) + 1  # above every weight
    wide = span * math.prod(top + 1 for top in tops[:-1]) >= 2**31
    key = row_weights(degrees, np.int64 if wide else np.int32)
    layout = []  # per column, its radix, or the levels of a re-rank
    for column, top in zip(degrees.T[:-1], tops):
        radix = top + 1
        if span * radix >= 2**63:
            levels, key = np.unique(key, return_inverse=True)
            layout.append(levels)
            span = len(levels)
        key *= radix
        key += column
        layout.append(radix)
        span *= radix
    key.sort()
    first = np.empty(len(key), bool)
    first[:1] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    counts = np.append(starts[1:], len(key)) - starts
    key = key[starts]
    rows = np.empty((len(key), degrees.shape[1]), degree_dtype(max(tops)))
    column = degrees.shape[1] - 1
    for radix in reversed(layout):
        if isinstance(radix, np.ndarray):
            key = radix[key]
        else:
            column -= 1
            key, rows[:, column] = np.divmod(key, radix)
    for column in rows.T[:-1]:
        key -= column
    rows[:, -1] = key
    return rows, counts


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
        raise ValidationError("seed graph has no vertices")
    index = {v: i for i, v in enumerate(vertex_ids)}

    graph = TypedGraph(n)
    ends, types = [], []
    for a, b, t in seed_spec.edges:
        if a == b:
            raise ValidationError(f"seed edge ({a}, {b}) is a loop")
        if not 0 <= t < n:
            raise ValidationError(f"edge type index {t} outside [0, {n})")
        ends += (index[a], index[b])
        types.append(t)
    graph.initial_num_vertices = len(vertex_ids)
    graph.initial_num_edges = len(types)
    idx = _index_dtype(len(ends))
    graph.endpoint_pool = np.array(ends, idx)
    graph.pool_types = np.repeat(np.array(types, graph.pool_types.dtype), 2)
    graph.per_vertex_degree = np.zeros((len(vertex_ids), n), idx)
    graph.type_counts = _tally(graph, 0, len(ends)).tolist()
    for t, count in enumerate(graph.type_counts):
        if count == 0:
            raise ValidationError(f"seed graph has no edge of type {t + 1}")
    return graph


def pa_step(graph: TypedGraph, schedule: PerturbationSchedule, m: int,
            rng: np.random.Generator) -> TypedGraph:
    """Apply one growth step: a new vertex with m perturbed typed edges.

    Consumes exactly 2*m uniforms: per edge one slot draw (endpoint and
    initial type at once, see module docstring) and one perturbation draw.
    Degrees, pool and type counts all update atomically at the end,
    so every probability inside the step is a function of the frozen state.
    This is the scalar reference that `run` must reproduce.
    """
    n = graph.step_index + 1
    pool_v = graph.endpoint_pool
    pool_t = graph.pool_types
    frozen = len(pool_v)
    if frozen == 0:
        raise ValidationError("graph has no edges to sample from")
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

    idx = _index_dtype(frozen + 2 * m)
    degrees = np.concatenate((graph.per_vertex_degree,
                              np.zeros((1, n_types), idx)), dtype=idx)
    new_slots, new_types = [], []
    for endpoint, final in chosen:
        graph.type_counts[final] += 1
        degrees[new_vertex, final] += 1
        degrees[endpoint, final] += 1
        new_slots += (new_vertex, endpoint)
        new_types += (final, final)
    graph.endpoint_pool = np.concatenate(
        (pool_v, np.array(new_slots, idx)))
    graph.pool_types = np.concatenate(
        (pool_t, np.array(new_types, pool_t.dtype)))

    graph.per_vertex_degree = degrees
    graph.step_index = n
    return graph


def _fill(graph: TypedGraph, schedule: PerturbationSchedule, m: int,
          n_steps: int, rng: np.random.Generator) -> int:
    """Grow the pools and the degree table to their size after `n_steps`
    more steps, allocated once, and fill the new slots in passes of whole
    steps (`_grow_pass`), so the working set beyond the graph is a
    constant number of edges. Advances `step_index`, and returns the
    first new slot. Neither the table nor `type_counts` counts the new
    slots until the caller `_tally`s them.
    """
    start = len(graph.endpoint_pool)
    if n_steps == 0:
        return start
    if start == 0:
        raise ValidationError("graph has no edges to sample from")
    first_vertex = graph.num_vertices
    idx = _index_dtype(start + 2 * m * n_steps)
    pool = np.empty(start + 2 * m * n_steps, idx)
    pool[:start] = graph.endpoint_pool
    pool_types = np.empty(len(pool), graph.pool_types.dtype)
    pool_types[:start] = graph.pool_types
    degrees = np.zeros((first_vertex + n_steps, graph.n_types), idx)
    degrees[:first_vertex] = graph.per_vertex_degree

    per_pass = max(1, _PASS_EDGES // m)
    for done in range(0, n_steps, per_pass):
        steps = min(per_pass, n_steps - done)
        _grow_pass(pool, pool_types, start + 2 * m * done,
                   first_vertex + done,
                   schedule.cdf_table(graph.step_index + done + 1, steps),
                   m, steps, rng)
    graph.endpoint_pool, graph.pool_types = pool, pool_types
    graph.per_vertex_degree = degrees
    graph.step_index += n_steps
    return start


def _grow_pass(pool: np.ndarray, pool_types: np.ndarray, base: int,
               first_vertex: int, table: np.ndarray, m: int, n_steps: int,
               rng: np.random.Generator) -> None:
    """Fill the slots of `n_steps` steps from slot `base` on, whose new
    vertices are numbered from `first_vertex` and whose flip laws are
    `table` (`PerturbationSchedule.cdf_table`); the slots below `base` are
    the pool at the start of the pass.

    New edge e of step j (0-based in this pass) is pool edge base/2 + e,
    with e = j*m + i. It drew slot s < frozen_j = base + 2mj. Its endpoint
    is the vertex of slot s, which for an odd slot of this pass is again
    the endpoint of that slot's edge. Its type is its flip map (the step's
    flip outcome for each parent type) applied to the type of slot s. Both
    chains end below `base` (or, for endpoints, at a newcomer slot).
    Types are settled in rounds: the first, full width, settles every edge
    whose parent slot lies below `base`, and each later one the in-pass
    edges whose parent was settled in the round before. Endpoints are
    resolved by pointer doubling. Both take rounds that grow with the log
    of the pass's edges.
    """
    k = m * n_steps
    n_types = table.shape[1]
    idx = pool.dtype
    draws = rng.random(2 * k)
    step = np.arange(k, dtype=idx) // m
    frozen = base + 2 * m * step
    slot = np.minimum((draws[0::2] * frozen).astype(idx), frozen - 1)
    del frozen
    flip_u = draws[1::2]
    cdfs = table.reshape(-1)
    decaying = len(table) > 1

    def flipped(edges, parent_type):
        # the types `edges` take: how many of their step's CDF entries, row
        # `parent_type`, lie at or below their flip uniforms (the last entry
        # is 1.0 and never does)
        at = parent_type.astype(np.intp)
        at *= n_types
        if decaying:  # the table holds one (N, N) block per step
            at += step[edges] * np.intp(n_types**2)
        u = flip_u[edges]
        types = np.zeros(len(at), pool_types.dtype)
        for _ in range(n_types - 1):
            types += cdfs.take(at) <= u
            at += 1
        return types

    # the pass's slots read -1 until their edge's type is known; in the
    # full-width round an in-pass parent's -1 wraps to some other CDF
    # entry, and its edge waits for a later round
    new_types = pool_types[base:base + 2 * k]
    new_types[:] = -1
    types = flipped(slice(None), pool_types.take(slot))
    pending = np.flatnonzero(slot >= base)
    types[pending] = -1
    new_types[0::2] = new_types[1::2] = types
    while pending.size:
        parent_type = pool_types.take(slot[pending])
        known = parent_type >= 0
        ready = pending[known]
        new_types[2 * ready] = new_types[2 * ready + 1] = flipped(
            ready, parent_type[known])
        pending = pending[~known]

    # endpoints, by pointer doubling: an odd slot of this pass holds the
    # endpoint its own edge drew; then every slot is below `base` or a
    # newcomer's, which is written first
    pending = np.flatnonzero((slot >= base) & (slot % 2 == 1))
    while pending.size:
        slot[pending] = slot[(slot[pending] - base) // 2]
        hop = slot[pending]
        pending = pending[(hop >= base) & (hop % 2 == 1)]
    pool[base:base + 2 * k:2] = first_vertex + step
    pool[base + 1:base + 2 * k:2] = pool[slot]


def _proportions(type_counts, edges: int) -> tuple:
    total = float(edges)
    return tuple(c / total for c in type_counts)


def edge_type_proportions(graph: TypedGraph) -> tuple:
    return _proportions(graph.type_counts, graph.num_edges)


def empirical_distribution(graph: TypedGraph,
                           degrees: np.ndarray | None = None
                           ) -> DegreeDistribution:
    """Census normalized by the number of vertices: of the graph's degree
    table, or of `degrees`, the table of an earlier state of it (`run`
    passes a prefix of the graph's table, tallied up to a snapshot)."""
    if degrees is None:
        degrees = graph.per_vertex_degree
    rows, counts = _census(degrees)
    return DegreeDistribution(rows, counts / float(len(degrees)), EMPIRICAL)


def run(graph: TypedGraph, schedule: PerturbationSchedule, m: int,
        n_steps: int, snapshot_every: int, rng: np.random.Generator,
        census: bool = True) -> list:
    """Apply n_steps growth steps, snapshotting proportions and the census.

    Emits the initial state, then every `snapshot_every` steps and at the
    final step. Draws the same uniforms in the same order as `n_steps`
    calls of `pa_step`, from any state, and leaves the same graph bit for
    bit. A caller that reads only the proportions, or the final graph,
    passes `census=False`, and its snapshots carry no distribution (None).

    The snapshots cost one growth pass and their censuses: `_fill` grows
    all `n_steps` at once, its passes crossing snapshot boundaries with
    the same stream. The filled pool's slots are in step order, so each
    snapshot then `_tally`s its own segment of them into the graph's
    table, whose first rows are then the snapshot's vertices, and whose
    later rows are still zero. After the last snapshot the tallied range
    must end at the pool's end, the type counts must sum to the edges and
    the table to the slots, or `BrokenRun` is raised.
    """
    if n_steps < 0:
        raise ValidationError("n_steps must be nonnegative")
    if snapshot_every < 1:
        raise ValidationError("snapshot_every must be at least 1")
    first_step, first_vertex = graph.step_index, graph.num_vertices
    snapshots = [GraphSnapshot(first_step, edge_type_proportions(graph),
                               empirical_distribution(graph)
                               if census else None)]
    start = lo = _fill(graph, schedule, m, n_steps, rng)
    type_counts = np.array(graph.type_counts, np.int64)
    for done in range(snapshot_every, n_steps + snapshot_every,
                      snapshot_every):
        done = min(done, n_steps)
        hi = start + 2 * m * done
        type_counts += _tally(graph, lo, hi)
        lo = hi
        snapshots.append(GraphSnapshot(
            first_step + done, _proportions(type_counts.tolist(), hi // 2),
            empirical_distribution(
                graph, graph.per_vertex_degree[:first_vertex + done])
            if census else None))
    graph.type_counts = type_counts.tolist()
    slots = len(graph.endpoint_pool)
    if (lo != slots or sum(graph.type_counts) != graph.num_edges
            or int(graph.per_vertex_degree.sum()) != slots):
        raise BrokenRun("the tallied snapshots do not add up to the grown "
                        "graph's edges and degrees")
    return snapshots


def check_graph_invariants(graph: TypedGraph, m: int) -> list:
    """Exact conservation checks; returns human-readable violations (empty = ok).

    Besides the counts, the per-vertex degrees must be a recount of the
    pool, a `_tally` into a fresh table. The checks past the pairing
    read the pool as pairs of slots, so an unpaired pool stops there.
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
    if not paired:
        return violations
    if not np.array_equal(pool_t[0::2], pool_t[1::2]):
        violations.append("the two slots of an edge disagree on its type")
    if (pool_t.min(initial=0) < 0 or pool_t.max(initial=-1) >= n_types
            or pool_v.min(initial=0) < 0
            or pool_v.max(initial=-1) >= vertices):
        violations.append("a slot names a vertex or type out of range")
        return violations
    recount = np.zeros((vertices, n_types), _index_dtype(len(pool_v)))
    if _tally(graph, 0, len(pool_v), recount).tolist() != graph.type_counts:
        violations.append("type counts disagree with the edge pool")
    if not np.array_equal(recount, degrees):
        violations.append("per-vertex degrees disagree with the pool")
    return violations
