"""CSV and manifest writers: locale-free, 17-significant-digit reals."""
from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .degrees import DegreeDistribution


def fmt(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


#: rows formatted per pass of the column writer, which bounds its memory
CHUNK_ROWS = 1 << 13


def write_csv(path, header, rows) -> Path:
    """A header line, then one line per row, each value through `fmt`."""
    path = Path(path)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")
    return path


def _column_text(column: np.ndarray, end: str) -> np.ndarray:
    """Each entry as `fmt` writes it, then `end`, as an object array. Each
    distinct value is formatted once. An integer column whose [min, max]
    span is no wider than its rows is looked up in a table over that span,
    which a `bincount` fills for the values present, with no sort; any
    other column goes through np.unique, which tells reals apart by their
    bits, so that -0.0 keeps its own text."""
    if column.dtype.kind == "i" and len(column):
        low, high = int(column.min()), int(column.max())
        if high - low < len(column):
            offset = np.subtract(column, low, dtype=np.intp)
            present = np.flatnonzero(np.bincount(offset))
            table = np.empty(high - low + 1, dtype=object)
            table[present] = np.array([fmt(low + v) + end
                                       for v in present.tolist()],
                                      dtype=object)
            return table[offset]
    real = column.dtype == np.float64
    distinct, inverse = np.unique(column.view(np.int64) if real else column,
                                  return_inverse=True)
    if real:
        distinct = distinct.view(np.float64)
    return np.array([fmt(v) + end for v in distinct.tolist()],
                    dtype=object)[inverse]


def _write_columns(path, header, passes, end: str) -> Path:
    """A header line, then, for each (columns, reals) pass in `passes`,
    line k: entry k of each integer array in `columns` and of the float64
    `reals`, comma separated, then `end`; formatted a column at a time,
    CHUNK_ROWS lines per step."""
    path = Path(path)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for columns, reals in passes:
            for start in range(0, len(reals), CHUNK_ROWS):
                rows = slice(start, start + CHUNK_ROWS)
                cells = np.empty((len(reals[rows]), len(columns) + 1), object)
                for j, column in enumerate(columns):
                    cells[:, j] = _column_text(column[rows], ",")
                cells[:, -1] = _column_text(reals[rows], end)
                fh.write("".join(cells.ravel().tolist()))
    return path


def write_distribution_csv(path, dist: DegreeDistribution, n_types: int) -> Path:
    header = [f"d_{i + 1}" for i in range(n_types)] + ["mass", "provenance"]
    return _write_columns(path, header, [(list(dist.degrees.T), dist.values)],
                          f",{dist.provenance}\n")


def _snapshot_passes(snapshots):
    """The census table's (columns, reals) passes: runs of whole
    snapshots, each run at most CHUNK_ROWS rows, or one snapshot if that
    snapshot alone is larger, so only one run's columns are built at a
    time."""
    group, rows = [], 0
    for s in snapshots:
        size = len(s.distribution)
        if group and rows + size > CHUNK_ROWS:
            yield _snapshot_columns(group)
            group, rows = [], 0
        group.append(s)
        rows += size
    if group:
        yield _snapshot_columns(group)


def _snapshot_columns(group):
    from .degrees import degree_dtype  # loaded already: `graph` reads it

    dists = [s.distribution for s in group]
    steps = [s.n for s in group]
    n = np.repeat(np.array(steps, degree_dtype(max(steps))),
                  list(map(len, dists)))
    degrees = np.concatenate([d.degrees for d in dists])
    values = np.concatenate([d.values for d in dists])
    return [n, *degrees.T], values


def write_graph_snapshots(out_dir, snapshots, n_types: int):
    """Proportions and census series of one simulated graph run."""
    out_dir = Path(out_dir)
    psi_header = ["n"] + [f"psi_{i + 1}" for i in range(n_types)]
    psi_rows = [(s.n,) + s.psi for s in snapshots]
    psi_path = write_csv(out_dir / "psi.csv", psi_header, psi_rows)
    dist_header = ["n"] + [f"d_{i + 1}" for i in range(n_types)] + ["mass"]
    dist_path = _write_columns(out_dir / "distribution.csv", dist_header,
                               _snapshot_passes(snapshots), "\n")
    return psi_path, dist_path


def write_urn_trajectory(path, snapshots, n_types: int) -> Path:
    header = (["n"] + [f"c_{i + 1}" for i in range(n_types)]
              + [f"frac_{i + 1}" for i in range(n_types)])
    rows = [(s.n,) + s.composition + s.fractions for s in snapshots]
    return write_csv(path, header, rows)


def file_digest(path) -> str:
    import hashlib  # here: `--help` and a usage error write no manifest

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out_dir, *, command, version: str, master_seed,
                   config: dict, outputs) -> Path:
    """Record everything needed to reproduce a run, with output digests.

    Written exactly once, after all outputs; re-running `command` with the
    same tool version reproduces every listed file bit-exactly.
    """
    import json

    out_dir = Path(out_dir)
    manifest = {
        "tool": "mtpa",
        "version": version,
        "command": list(command),
        "master_seed": master_seed,
        "config": config,
        "outputs": {Path(p).name: f"sha256:{file_digest(p)}" for p in outputs},
    }
    path = out_dir / "manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
