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
    d_max = 30               # truncation of solve and solve-unperturbed
                             # (--dmax), defaults to max(30, m+10)
    cutoff = 11              # comparison weight K, defaults to m+10
    tv_tolerance = 0.02
    psi_tolerance = 0.02
    pass_fraction = 0.95

With one type, symmetric:p is the 1x1 matrix [[p]], which is
row-stochastic only for p = 1.

Every key is optional except [model] types (and f when types > 1), and a
key that is set may not be empty. ExperimentConfig holds the defaults, so
d_max and cutoff follow the final m, also when a flag sets it. A relative
seed_graph path is taken from the config file's directory. Any section or
key not listed above is an error, as are a schedule other than constant or
decaying, a decaying schedule with kind = urn (the urn has no
step-dependent columns), and a decay or decay_rho with a constant schedule
(which never reads them). A d_max below edges_per_step is an error for the
solve commands, and a cutoff below it for the comparisons (compare on the
graph model, diagnose --quantity tv and study): each is checked by the
commands that read it alone, as commands share config files.
"""
from __future__ import annotations

import configparser
from pathlib import Path

from .errors import ParseError, ValidationError
from .graph import SeedGraphSpec
from .harness import ExperimentConfig
from .matrices import parse_matrix

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
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path) as fh:
            parser.read_file(fh, source=str(path))
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ParseError(f"config {path}: {exc}") from exc
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
        "f_matrix": lambda raw: parse_matrix(raw, n_types, what="f"),
        "schedule_kind": str.lower,
        "decay_matrix": lambda raw: parse_matrix(raw, n_types, what="decay"),
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
