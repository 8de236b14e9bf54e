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
    d_max = 30               # solver truncation, defaults to max(30, m+10)
    cutoff = 11              # comparison weight K, defaults to m+10
    tv_tolerance = 0.02
    psi_tolerance = 0.02
    pass_fraction = 0.95

Every key is optional except [model] types (and f when types > 1). The
d_max and cutoff defaults follow the final m, also when a flag sets it. A
relative seed_graph path is taken from the config file's directory. Any
section or key not listed above is an error, as are a schedule other than
constant or decaying, a decaying schedule with kind = urn (the urn has no
step-dependent columns), a decay or decay_rho with a constant schedule
(which never reads them), and a d_max or cutoff below edges_per_step.
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
        if section not in KEYS:
            raise ValidationError(f"unknown config section [{section}]")
        for key in parser.options(section):
            if key not in KEYS[section]:
                raise ValidationError(f"unknown config key {section}.{key}")


def parse_config(path) -> ExperimentConfig:
    """Read and validate a config file, applying documented defaults."""
    return ExperimentConfig(**config_fields(path))


def config_fields(path) -> dict:
    """The ExperimentConfig keyword arguments a config file sets; d_max and
    cutoff stay None unless set, so they follow an m given later."""
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

    def get_number(section, key, fallback, cast=int, minimum=None):
        raw = get(section, key)
        if raw is None:
            return fallback
        try:
            value = cast(raw)
        except ValueError as exc:
            raise ValidationError(f"{section}.{key}: {exc}") from exc
        if minimum is not None and value < minimum:
            raise ValidationError(f"{section}.{key} must be >= {minimum}")
        return value

    kind = (get("model", "kind", "graph") or "graph").strip().lower()
    if kind not in ("graph", "urn"):
        raise ValidationError(f"model.kind must be graph or urn, got {kind!r}")
    n_types = get_number("model", "types", None, minimum=1)
    if n_types is None:
        raise ValidationError("model.types is required")

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
    decay_rho = get_number("model", "decay_rho", None, float)

    seed_edges = None
    seed_path = get("graph", "seed_graph")
    if seed_path:
        seed_file = Path(path).parent / seed_path.strip()
        seed_edges = SeedGraphSpec.from_file(seed_file, n_types).edges

    composition_raw = get("urn", "initial_composition")
    initial_composition = (None if composition_raw is None
                           else parse_list(composition_raw, int,
                                           "urn.initial_composition"))

    return dict(
        model=kind,
        n_types=n_types,
        m_edges=get_number("model", "edges_per_step", 1, minimum=1),
        f_matrix=f_matrix,
        schedule_kind=schedule_kind,
        decay_matrix=decay_matrix,
        decay_rho=decay_rho,
        seed_edges=seed_edges,
        initial_composition=initial_composition,
        n_steps=get_number("run", "steps", 10_000, minimum=0),
        snapshot_every=get_number("run", "snapshot_every", 1_000, minimum=1),
        replicates=get_number("run", "replicates", 1, minimum=1),
        master_seed=get_number("run", "master_seed", 0),
        max_weight=get_number("compare", "d_max", None, minimum=1),
        cutoff=get_number("compare", "cutoff", None, minimum=1),
        tv_tolerance=get_number("compare", "tv_tolerance", 0.02, float),
        psi_tolerance=get_number("compare", "psi_tolerance", 0.02, float),
        pass_fraction=get_number("compare", "pass_fraction", 0.95, float),
    )
