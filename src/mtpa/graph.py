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
the same graph bit for bit. `run` then counts the filled slots' types
(`_tally`), one snapshot segment at a time, and adds them to a degree
table if its snapshots carry a census; a caller that wants only the final
graph asks for one snapshot, at the last step.

The pool is the whole state: no degree table or type count is stored
beside it. A census or the type proportions tally the pool when read.

F = I, the model without perturbation, is a valid limit: each edge keeps
its initial type. Any other reducible limit is rejected.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from typing import NamedTuple

import numpy as np

from . import matrices
from .config import (CONSTANT, DECAYING, SeedGraphSpec, checked_decay,
                     snapshot_steps)
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
            self.decay = checked_decay(decay, len(self.limit), self.rho)

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
    """Pool indices are int32 until the pool reaches 2**31 slots. A
    degree table takes the same type: no degree exceeds the slot count."""
    return np.int32 if slots < 2**31 else np.int64


# edges per pass of `_fill`, rounded down to whole steps, and per
# pass of a tally; a fill pass's temporaries take 43 B per edge on a
# constant schedule and 49 B on a decaying one, beside its CDF table
_PASS_EDGES = 4096


class TypedGraph:
    """Full mutable state of the growing multigraph, in numpy arrays.

    Vertices are dense 0-based ids; seed vertices keep their sorted input
    order, and step n adds vertex `initial_num_vertices + n - 1`.
    `endpoint_pool` (vertex per slot) and `pool_types` (the owning edge's
    type per slot) hold two slots per edge for degree-proportional
    sampling. The pool is also the edge list: edge i joins
    `endpoint_pool[2i]` and `endpoint_pool[2i+1]` with type `pool_types[2i]`;
    for a grown edge the first slot is the newcomer. Degrees and type
    counts are tallied from the pool on demand (`empirical_distribution`,
    `edge_type_proportions`).
    """

    __slots__ = ("n_types", "endpoint_pool", "pool_types", "step_index",
                 "initial_num_vertices", "initial_num_edges")

    def __init__(self, n_types: int):
        self.n_types = n_types
        self.endpoint_pool = np.zeros(0, np.int32)
        # the smallest signed integer type that holds every type index
        self.pool_types = np.zeros(0, np.min_scalar_type(-n_types))
        self.step_index = 0
        self.initial_num_vertices = 0
        self.initial_num_edges = 0

    @property
    def num_vertices(self) -> int:
        return self.initial_num_vertices + self.step_index

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
    """How many edges of the pool's slots `lo..hi-1` (`lo` even) have each
    type, as int64, counted `_PASS_EDGES` edges at a time; with a degree
    table `degrees`, each slot is added to it too."""
    pool, pool_types = graph.endpoint_pool, graph.pool_types
    counts = np.zeros(graph.n_types, np.int64)
    for base in range(lo, hi, 2 * _PASS_EDGES):
        end = min(base + 2 * _PASS_EDGES, hi)
        types = pool_types[base:end]
        counts += np.bincount(types[0::2], minlength=graph.n_types)
        if degrees is not None:
            _add_degrees(degrees, pool[base:end], types)
    return counts


def _degree_table(graph: TypedGraph) -> np.ndarray:
    """An all-zero (vertices, n_types) table of the pool's index type."""
    return np.zeros((graph.num_vertices, graph.n_types),
                    _index_dtype(len(graph.endpoint_pool)))


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
    graph.endpoint_pool = np.array(ends, _index_dtype(len(ends)))
    graph.pool_types = np.repeat(np.array(types, graph.pool_types.dtype), 2)
    for t, count in enumerate(_tally(graph, 0, len(ends)).tolist()):
        if count == 0:
            raise ValidationError(f"seed graph has no edge of type {t + 1}")
    return graph


def pa_step(graph: TypedGraph, schedule: PerturbationSchedule, m: int,
            rng: np.random.Generator) -> TypedGraph:
    """Apply one growth step: a new vertex with m perturbed typed edges.

    Consumes exactly 2*m uniforms: per edge one slot draw (endpoint and
    initial type at once, see module docstring) and one perturbation draw.
    The pool is appended to once, at the end, so every probability inside
    the step is a function of the frozen state. This is the scalar
    reference that `run` must reproduce.
    """
    n = graph.step_index + 1
    pool_v = graph.endpoint_pool
    pool_t = graph.pool_types
    frozen = len(pool_v)
    if frozen == 0:
        raise ValidationError("graph has no edges to sample from")
    cdfs = schedule.cdf_table(n, 1)[0].tolist()
    us = rng.random(2 * m).tolist()

    new_vertex = graph.num_vertices
    new_slots, new_types = [], []
    for i in range(m):
        slot = int(us[2 * i] * frozen)
        if slot == frozen:
            slot -= 1
        final = bisect_right(cdfs[pool_t[slot]], us[2 * i + 1])
        new_slots += (new_vertex, int(pool_v[slot]))
        new_types += (final, final)

    graph.endpoint_pool = np.concatenate(
        (pool_v, np.array(new_slots, _index_dtype(frozen + 2 * m))))
    graph.pool_types = np.concatenate(
        (pool_t, np.array(new_types, pool_t.dtype)))
    graph.step_index = n
    return graph


def _fill(graph: TypedGraph, schedule: PerturbationSchedule, m: int,
          n_steps: int, rng: np.random.Generator) -> int:
    """Grow the pools to their size after `n_steps` more steps, allocated
    once, and fill the new slots in passes of whole steps (`_grow_pass`),
    so the working set beyond the graph is a constant number of edges.
    Advances `step_index`, and returns the first new slot.
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

    per_pass = max(1, _PASS_EDGES // m)
    for done in range(0, n_steps, per_pass):
        steps = min(per_pass, n_steps - done)
        _grow_pass(pool, pool_types, start + 2 * m * done,
                   first_vertex + done,
                   schedule.cdf_table(graph.step_index + done + 1, steps),
                   m, steps, rng)
    graph.endpoint_pool, graph.pool_types = pool, pool_types
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
    is the vertex of slot s, and its type is its flip map (the step's flip
    outcome for each parent type) applied to the type of slot s. For an
    odd slot of this pass both are again read off the slot that slot's
    edge drew, so each chain ends below `base` or, for the endpoint, at a
    newcomer (even) slot, which is written first. The chains are walked
    once, in rounds that settle an edge's endpoint and type together: the
    first, full width, settles every edge whose parent slot lies below
    `base`, and each later one the in-pass edges whose parent was settled
    in the round before. The later rounds are as many as the longest
    chain's links within the pass: about the log of the pass's edges on
    random picks, and at most its steps.
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

    # newcomers first; the pass's slots read type -1 until their edge is
    # settled. In the full-width round an in-pass parent's -1 wraps to some
    # other CDF entry and its odd slot holds no endpoint yet: its edge waits
    # for a later round, which writes both
    pool[base:base + 2 * k:2] = first_vertex + step
    new_types = pool_types[base:base + 2 * k]
    new_types[:] = -1
    types = flipped(slice(None), pool_types.take(slot))
    pending = np.flatnonzero(slot >= base)
    types[pending] = -1
    new_types[0::2] = new_types[1::2] = types
    pool[base + 1:base + 2 * k:2] = pool[slot]
    while pending.size:
        parent = slot[pending]
        parent_type = pool_types.take(parent)
        known = parent_type >= 0
        ready = pending[known]
        new_types[2 * ready] = new_types[2 * ready + 1] = flipped(
            ready, parent_type[known])
        pool[base + 2 * ready + 1] = pool[parent[known]]
        pending = pending[~known]


def _proportions(type_counts: np.ndarray, edges: int) -> tuple:
    total = float(edges)
    return tuple(c / total for c in type_counts.tolist())


def edge_type_proportions(graph: TypedGraph) -> tuple:
    return _proportions(_tally(graph, 0, len(graph.endpoint_pool)),
                        graph.num_edges)


def empirical_distribution(graph: TypedGraph,
                           degrees: np.ndarray | None = None
                           ) -> DegreeDistribution:
    """Census normalized by the number of vertices: of the graph's pool,
    tallied into a fresh degree table, or of `degrees`, the table of an
    earlier state of it (`run` passes the rows of a snapshot's vertices,
    tallied up to that snapshot)."""
    if degrees is None:
        degrees = _degree_table(graph)
        _tally(graph, 0, len(graph.endpoint_pool), degrees)
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

    The snapshots cost one growth pass and their tallies: `_fill` grows
    all `n_steps` at once, its passes crossing snapshot boundaries with
    the same stream. The pool's slots are in step order, so each snapshot
    then `_tally`s its own segment of them, the first the pool it started
    from: into running type counts, and, with the census, into one degree
    table of the grown graph's vertices, whose first rows are then the
    snapshot's vertices and whose later rows are still zero. After the
    last snapshot the tallied range must end at the pool's end, the type
    counts must sum to the edges and the table to the slots, or
    `BrokenRun` is raised.
    """
    grid = snapshot_steps(n_steps, snapshot_every)
    first_step, first_vertex = graph.step_index, graph.num_vertices
    start = _fill(graph, schedule, m, n_steps, rng)
    degrees = _degree_table(graph) if census else None
    type_counts = np.zeros(graph.n_types, np.int64)
    snapshots, lo = [], 0
    for done in grid:
        hi = start + 2 * m * done
        type_counts += _tally(graph, lo, hi, degrees)
        lo = hi
        snapshots.append(GraphSnapshot(
            first_step + done, _proportions(type_counts, hi // 2),
            empirical_distribution(graph, degrees[:first_vertex + done])
            if census else None))
    slots = len(graph.endpoint_pool)
    if (lo != slots or type_counts.sum() != graph.num_edges
            or census and degrees.sum() != slots):
        raise BrokenRun("the tallied snapshots do not add up to the grown "
                        "graph's edges and degrees")
    return snapshots


def check_graph_invariants(graph: TypedGraph, m: int) -> list:
    """Exact conservation checks on the pool; returns human-readable
    violations (empty = ok).

    The checks past the pairing read the pool as pairs of slots, so an
    unpaired pool stops there, and only a pool whose slots are all in
    range has its types counted.
    """
    violations = []
    steps = graph.step_index
    pool_v, pool_t = graph.endpoint_pool, graph.pool_types
    edges = graph.num_edges
    if edges != graph.initial_num_edges + m * steps:
        violations.append(
            f"edge conservation: {edges} edges != "
            f"{graph.initial_num_edges} + {m}*{steps}")
    if not (len(pool_v) % 2 == 0 and len(pool_t) == len(pool_v)):
        violations.append("endpoint pool and type pool are not 2 slots per edge")
        return violations
    if not np.array_equal(pool_t[0::2], pool_t[1::2]):
        violations.append("the two slots of an edge disagree on its type")
    if (pool_t.min(initial=0) < 0 or pool_t.max(initial=-1) >= graph.n_types
            or pool_v.min(initial=0) < 0
            or pool_v.max(initial=-1) >= graph.num_vertices):
        violations.append("a slot names a vertex or type out of range")
        return violations
    if not _tally(graph, 0, len(pool_v)).all():
        violations.append("a type has no edges")
    return violations
