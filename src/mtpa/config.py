"""Experiment configuration files.

INI-style sections with flat keys; matrices are row-major comma lists. The
shorthand ``symmetric:p`` expands to a matrix with p on the diagonal and
(1-p)/(N-1) elsewhere. Grammar:

    [model]
    kind = graph | urn
    types = 2
    edges_per_step = 1
    f = 0.9,0.1,0.1,0.9      # or symmetric:0.9; defaults to 1 when types=1
    schedule = constant | decaying
    decay = 0.05,-0.05,-0.05,0.05   # zero-row-sum direction, optional
    decay_rho = 1.0

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
    d_max = 30               # solver truncation weight
    cutoff = 11              # comparison weight K, defaults to m+10
    tv_tolerance = 0.02
    psi_tolerance = 0.02
    pass_fraction = 0.95

Every key is optional except [model] types (and f when types > 1). A
relative seed_graph path is taken from the config file's directory. Any
section or key not listed above is an error, as is a decaying schedule
with kind = urn (the urn has no step-dependent columns).
"""
from __future__ import annotations

import configparser
from pathlib import Path

from .errors import ParseError, ValidationError
from .graph import CONSTANT, SeedGraphSpec
from .harness import ExperimentConfig
from .matrices import parse_matrix

KEYS = {
    "model": {"kind", "types", "edges_per_step", "f", "schedule", "decay",
              "decay_rho"},
    "run": {"steps", "snapshot_every", "replicates", "master_seed"},
    "graph": {"seed_graph"},
    "urn": {"initial_composition"},
    "compare": {"d_max", "cutoff", "tv_tolerance", "psi_tolerance",
                "pass_fraction"},
}


def _ints(text: str, key: str) -> list:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValidationError(f"{key}: {exc}") from exc


def _check_keys(parser: configparser.ConfigParser) -> None:
    if parser.defaults():
        raise ValidationError(f"unknown config section [{parser.default_section}]")
    for section in parser.sections():
        if section not in KEYS:
            raise ValidationError(f"unknown config section [{section}]")
        for key in parser.options(section):
            if key not in KEYS[section]:
                raise ValidationError(f"unknown config key {section}.{key}")


def parse_config(path) -> ExperimentConfig:
    """Read and validate a config file, applying documented defaults."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path) as fh:
            parser.read_file(fh, source=str(path))
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ParseError(f"config {path}: {exc}") from exc
    _check_keys(parser)

    def get(section, key, fallback=None):
        return parser.get(section, key, fallback=fallback)

    def get_int(section, key, fallback, minimum=None):
        raw = get(section, key)
        if raw is None:
            return fallback
        try:
            value = int(raw)
        except ValueError as exc:
            raise ValidationError(f"{section}.{key}: {exc}") from exc
        if minimum is not None and value < minimum:
            raise ValidationError(f"{section}.{key} must be >= {minimum}")
        return value

    def get_float(section, key, fallback):
        raw = get(section, key)
        if raw is None:
            return fallback
        try:
            return float(raw)
        except ValueError as exc:
            raise ValidationError(f"{section}.{key}: {exc}") from exc

    kind = (get("model", "kind", "graph") or "graph").strip().lower()
    if kind not in ("graph", "urn"):
        raise ValidationError(f"model.kind must be graph or urn, got {kind!r}")
    n_types = get_int("model", "types", None, minimum=1)
    if n_types is None:
        raise ValidationError("model.types is required")
    m_edges = get_int("model", "edges_per_step", 1, minimum=1)

    f_raw = get("model", "f")
    if f_raw is None:
        if n_types != 1:
            raise ValidationError("model.f is required when types > 1")
        f_matrix = [[1.0]]
    else:
        f_matrix = parse_matrix(f_raw, n_types, what="f")

    schedule_kind = (get("model", "schedule", CONSTANT) or CONSTANT).strip().lower()
    decay_raw = get("model", "decay")
    decay_matrix = (None if decay_raw is None
                    else parse_matrix(decay_raw, n_types, what="decay"))
    decay_rho = get_float("model", "decay_rho", 1.0)

    seed_edges = None
    seed_path = get("graph", "seed_graph")
    if seed_path:
        seed_file = Path(path).parent / seed_path.strip()
        seed_edges = SeedGraphSpec.from_file(seed_file, n_types).edges

    composition_raw = get("urn", "initial_composition")
    initial_composition = (None if composition_raw is None
                           else _ints(composition_raw, "initial_composition"))

    return ExperimentConfig(
        model=kind,
        n_types=n_types,
        m_edges=m_edges,
        f_matrix=f_matrix,
        schedule_kind=schedule_kind,
        decay_matrix=decay_matrix,
        decay_rho=decay_rho,
        seed_edges=seed_edges,
        initial_composition=initial_composition,
        n_steps=get_int("run", "steps", 10_000, minimum=0),
        snapshot_every=get_int("run", "snapshot_every", 1_000, minimum=1),
        replicates=get_int("run", "replicates", 1, minimum=1),
        master_seed=get_int("run", "master_seed", 0),
        max_weight=get_int("compare", "d_max", max(30, m_edges + 10),
                           minimum=m_edges),
        cutoff=get_int("compare", "cutoff", None, minimum=1),
        tv_tolerance=get_float("compare", "tv_tolerance", 0.02),
        psi_tolerance=get_float("compare", "psi_tolerance", 0.02),
        pass_fraction=get_float("compare", "pass_fraction", 0.95),
    )
