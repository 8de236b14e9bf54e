"""Experiment configuration: `ExperimentConfig`, and the files that set it.

Every command reads this module, so it imports no simulation or theory
module: `ExperimentConfig.schedule` loads `graph` only when it is called.

INI-style sections with flat keys; matrices are row-major comma lists. The
shorthand ``symmetric:p`` expands to a matrix with p on the diagonal and
(1-p)/(N-1) elsewhere. Grammar:

    [model]
    kind = graph | urn
    types = 2
    edges_per_step = 1
    f = 0.9,0.1,0.1,0.9      # or symmetric:0.9; defaults to 1 when types=1
    schedule = constant | decaying
    decay = 0.05,-0.05,-0.05,0.05   # zero-row-sum direction, decaying only
    decay_rho = 1.0          # decaying schedule only

    [run]
    steps = 10000
    snapshot_every = 1000
    replicates = 1
    master_seed = 0

    [graph]
    seed_graph = seed.txt    # optional edge-list file "a b t", # comments

    [urn]
    initial_composition = 1,1   # optional; defaults to seed type counts

    [compare]
    d_max = 30               # truncation of solve and solve-unperturbed
                             # (--dmax), defaults to max(30, m+10)
    cutoff = 11              # comparison weight K, defaults to m+10
    tv_tolerance = 0.02
    psi_tolerance = 0.02
    pass_fraction = 0.95

With one type, symmetric:p is the 1x1 matrix [[p]], which is
row-stochastic only for p = 1.

Every key is optional except [model] types (and f when types > 1, decay
when the schedule is decaying), and a key that is set may not be empty.
ExperimentConfig holds the defaults, so d_max and cutoff follow the
final m, also when a flag sets it. A relative seed_graph path is taken
from the config file's directory. Any section or key not listed above is
an error, as are a schedule other than constant or decaying, a decaying
schedule with kind = urn (the urn has no step-dependent columns), and a
decay or decay_rho with a constant schedule (which never reads them).
Every command checks a decaying schedule's decay and decay_rho, also one
that never builds the schedule. A d_max below edges_per_step is an error
for the solve commands, and a cutoff below it for the comparisons
(compare on the graph model, diagnose --quantity tv and study): each is
checked by the commands that read it alone, as commands share config
files.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import matrices
from .errors import ValidationError

GRAPH = "graph"
URN = "urn"
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
                        raise ValidationError(
                            f"{path}:{lineno}: expected 'a b t', got {body!r}")
                    try:
                        a, b, t = (int(p) for p in parts)
                    except ValueError as exc:
                        raise ValidationError(f"{path}:{lineno}: {exc}") from exc
                    if t < 1:
                        raise ValidationError(
                            f"{path}:{lineno}: types are 1-based, got {t}")
                    max_type = max(max_type, t)
                    edges.append((a, b, t - 1))
        except OSError as exc:
            raise ValidationError(f"cannot read seed graph {path}: {exc}") from exc
        return cls(n_types if n_types is not None else max_type, edges)

    def type_counts(self) -> list:
        counts = [0] * self.n_types
        for _, _, t in self.edges:
            counts[t] += 1
        return counts


def replicate_stream(master_seed: int, index: int, lane: int = 0) -> np.random.Generator:
    """Independent generator keyed by (master seed, replicate index)."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(lane, index))
    return np.random.Generator(np.random.PCG64(seq))


@dataclass
class ExperimentConfig:
    """Parameters of one experiment, and the one place that holds every
    default and range check, for config-file and flag values alike, but
    two: `max_weight` and `cutoff` are each read by some commands only,
    and commands share config files, so each is checked where it is read
    (`solve_recurrence` and `solve_unperturbed_recurrence` check
    `max_weight`, `comparison_cutoff` the cutoff)."""

    n_types: int
    model: str = GRAPH
    m_edges: int = 1
    f_matrix: np.ndarray | None = None    # None -> identity when n_types == 1
    schedule_kind: str = CONSTANT
    decay_matrix: np.ndarray | None = None
    decay_rho: float | None = None        # None -> 1.0 when decaying
    seed_edges: list | None = None        # None -> default seed graph
    initial_composition: list | None = None  # None -> seed type counts
    n_steps: int = 10_000
    snapshot_every: int = 1_000
    replicates: int = 1
    master_seed: int = 0
    max_weight: int | None = None         # solve's d_max; None -> max(30, m+10)
    cutoff: int | None = None             # comparison weight K; None -> m+10
    tv_tolerance: float = 0.02
    psi_tolerance: float = 0.02
    pass_fraction: float = 0.95

    def __post_init__(self):
        if self.model not in (GRAPH, URN):
            raise ValidationError(
                f"model must be {GRAPH} or {URN}, got {self.model!r}")
        for name, value, low in (("types", self.n_types, 1),
                                 ("edges_per_step", self.m_edges, 1),
                                 ("steps", self.n_steps, 0),
                                 ("snapshot_every", self.snapshot_every, 1),
                                 ("replicates", self.replicates, 1),
                                 ("master_seed", self.master_seed, 0)):
            if value < low:
                raise ValidationError(f"{name} must be >= {low}, got {value}")
        for name in ("tv_tolerance", "psi_tolerance", "pass_fraction"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        if self.f_matrix is None:
            if self.n_types != 1:
                raise ValidationError("f is required when types > 1 "
                                      "(model.f, --f or --f-file)")
            self.f_matrix = [[1.0]]
        self.f_matrix = matrices.as_row_stochastic(self.f_matrix, what="f")
        if len(self.f_matrix) != self.n_types:
            raise ValidationError(
                f"f has {len(self.f_matrix)} rows for {self.n_types} types")
        if self.schedule_kind not in (CONSTANT, DECAYING):
            raise ValidationError(
                f"unknown schedule kind {self.schedule_kind!r}")
        if self.model == URN and self.schedule_kind != CONSTANT:
            raise ValidationError(
                "the urn model has no step-dependent columns; "
                f"schedule must be {CONSTANT}, got {self.schedule_kind!r}")
        if self.schedule_kind == CONSTANT:
            for key, value in (("decay", self.decay_matrix),
                               ("decay_rho", self.decay_rho)):
                if value is not None:
                    raise ValidationError(
                        f"{key} is set but the schedule is {CONSTANT}; only "
                        f"a {DECAYING} schedule reads it")
        else:
            self.decay_rho = 1.0 if self.decay_rho is None else self.decay_rho
            checked_decay(self.decay_matrix, self.n_types, self.decay_rho)
        if self.max_weight is None:
            self.max_weight = max(30, self.m_edges + 10)
        if self.cutoff is None:
            self.cutoff = self.m_edges + 10

    def schedule(self):
        """The graph model's `PerturbationSchedule`; imported here, so
        that a command that never grows a graph never loads `graph`."""
        from .graph import PerturbationSchedule
        return PerturbationSchedule(self.f_matrix, self.schedule_kind,
                                    self.decay_matrix, self.decay_rho)

    def seed_spec(self) -> SeedGraphSpec:
        if self.seed_edges is None:
            return SeedGraphSpec.default(self.n_types)
        return SeedGraphSpec(self.n_types, list(self.seed_edges))

    def urn_composition(self) -> list:
        if self.initial_composition is not None:
            return list(self.initial_composition)
        return self.seed_spec().type_counts()

    def resolved(self) -> dict:
        """JSON-friendly dict of every field (for manifests)."""
        out = {}
        for name, value in self.__dict__.items():
            if isinstance(value, np.ndarray):
                out[name] = [float(v) for v in value.ravel()]
            elif isinstance(value, list):
                out[name] = [list(v) if isinstance(v, tuple) else v for v in value]
            else:
                out[name] = value
        return out


def checked_decay(decay, n_types: int, rho: float) -> np.ndarray:
    """A decaying schedule's decay matrix as floats, checked with its
    exponent: n_types square, zero row sums and rho > 0, written so that
    a NaN fails them. Every command checks them as it reads the config,
    and `graph.PerturbationSchedule` as it builds the schedule."""
    if decay is None:
        raise ValidationError("decaying schedule needs a decay matrix")
    arr = np.asarray(decay, dtype=float)
    if arr.shape != (n_types, n_types):
        raise ValidationError("decay matrix shape does not match F")
    if not np.all(np.abs(arr.sum(axis=1)) <= matrices.ROW_SUM_TOL):
        raise ValidationError("decay matrix rows must sum to 0")
    if not rho > 0:
        raise ValidationError("decay exponent rho must be positive")
    return arr


def snapshot_steps(n_steps: int, snapshot_every: int) -> list:
    """The steps a run snapshots, counted from its start: 0, every
    `snapshot_every` steps, and `n_steps`. `graph.run`, `urn.run_urn`
    and `diagnose`'s analytic series all read this grid."""
    if n_steps < 0:
        raise ValidationError("n_steps must be nonnegative")
    if snapshot_every < 1:
        raise ValidationError("snapshot_every must be at least 1")
    return [*range(0, n_steps, snapshot_every), n_steps]


def comparison_cutoff(cfg: ExperimentConfig) -> int:
    """The comparison weight K, checked as a comparison reads it."""
    if cfg.cutoff < cfg.m_edges:
        raise ValidationError(
            f"cutoff {cfg.cutoff} is below m {cfg.m_edges}; no vertex "
            "weighs less than m, so the comparison would be empty")
    return cfg.cutoff


# section -> key -> the ExperimentConfig field it sets
FIELDS = {
    "model": {"kind": "model", "types": "n_types", "edges_per_step": "m_edges",
              "f": "f_matrix", "schedule": "schedule_kind",
              "decay": "decay_matrix", "decay_rho": "decay_rho"},
    "run": {"steps": "n_steps", "snapshot_every": "snapshot_every",
            "replicates": "replicates", "master_seed": "master_seed"},
    "graph": {"seed_graph": "seed_edges"},
    "urn": {"initial_composition": "initial_composition"},
    "compare": {"d_max": "max_weight", "cutoff": "cutoff",
                "tv_tolerance": "tv_tolerance",
                "psi_tolerance": "psi_tolerance",
                "pass_fraction": "pass_fraction"},
}


def parse_list(text: str, cast, what: str) -> list:
    """A comma list of `cast` values (empty entries skipped); a malformed
    entry is a ValidationError naming `what`."""
    try:
        return [cast(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValidationError(f"{what}: {exc}") from exc


def _check_keys(parser: configparser.ConfigParser) -> None:
    if parser.defaults():
        raise ValidationError(f"unknown config section [{parser.default_section}]")
    for section in parser.sections():
        if section not in FIELDS:
            raise ValidationError(f"unknown config section [{section}]")
        for key in parser.options(section):
            if key not in FIELDS[section]:
                raise ValidationError(f"unknown config key {section}.{key}")


def parse_config(path) -> ExperimentConfig:
    """Read a config file into a validated ExperimentConfig."""
    return ExperimentConfig(**config_fields(path))


def config_fields(path) -> dict:
    """Only the ExperimentConfig fields the file sets, each parsed to its
    type; a value that does not parse is an error naming its section.key.
    ExperimentConfig supplies the defaults and range checks; only types is
    checked here, as parsing f, decay and seed_graph needs it."""
    import configparser  # here: a command given only flags never reads a file
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path) as fh:
            parser.read_file(fh, source=str(path))
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ValidationError(f"config {path}: {exc}") from exc
    _check_keys(parser)

    def parsed(section, key, cast):
        raw = parser.get(section, key)
        if not raw:
            raise ValidationError(f"{section}.{key} is empty")
        try:
            return cast(raw)
        except ValueError as exc:
            raise ValidationError(f"{section}.{key}: {exc}") from exc

    if not parser.has_option("model", "types"):
        raise ValidationError("model.types is required")
    n_types = parsed("model", "types", int)
    if n_types < 1:
        raise ValidationError(f"model.types must be >= 1, got {n_types}")

    def seed_edges(raw):
        return SeedGraphSpec.from_file(Path(path).parent / raw, n_types).edges

    casts = {  # every field not named here is an int
        "model": str.lower,
        "n_types": lambda raw: n_types,  # parsed and checked above
        "f_matrix": lambda raw: matrices.parse_matrix(raw, n_types,
                                                      what="f"),
        "schedule_kind": str.lower,
        "decay_matrix": lambda raw: matrices.parse_matrix(raw, n_types,
                                                          what="decay"),
        "decay_rho": float,
        "seed_edges": seed_edges,
        "initial_composition": lambda raw: parse_list(
            raw, int, "urn.initial_composition"),
        "tv_tolerance": float,
        "psi_tolerance": float,
        "pass_fraction": float,
    }
    fields = {}
    for section in parser.sections():
        for key in parser.options(section):
            name = FIELDS[section][key]
            fields[name] = parsed(section, key, casts.get(name, int))
    return fields
