"""CSV and manifest writers: locale-free, 17-significant-digit reals."""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .degrees import DegreeDistribution


def fmt(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv(path, header, rows, template=None) -> Path:
    """A header line, then one line per row.

    Each value goes through `fmt`, unless `template`, a `str.format`
    string for one whole line, says how to write a row's values.
    """
    path = Path(path)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        if template is None:
            for row in rows:
                fh.write(",".join(fmt(v) for v in row) + "\n")
        else:
            fh.writelines(template.format(*row) for row in rows)
    return path


def write_distribution_csv(path, dist: DegreeDistribution, n_types: int) -> Path:
    header = [f"d_{i + 1}" for i in range(n_types)] + ["mass", "provenance"]
    rows = (d + (mass, dist.provenance) for d, mass in dist.items_sorted())
    return write_csv(path, header, rows, "{}," * n_types + "{:.17g},{}\n")


def write_graph_snapshots(out_dir, snapshots, n_types: int):
    """Proportions and census series of one simulated graph run."""
    out_dir = Path(out_dir)
    psi_header = ["n"] + [f"psi_{i + 1}" for i in range(n_types)]
    psi_rows = [(s.n,) + s.psi for s in snapshots]
    psi_path = write_csv(out_dir / "psi.csv", psi_header, psi_rows)
    dist_header = ["n"] + [f"d_{i + 1}" for i in range(n_types)] + ["mass"]
    dist_rows = ((snap.n,) + d + (mass,) for snap in snapshots
                 for d, mass in snap.distribution.items_sorted())
    dist_path = write_csv(out_dir / "distribution.csv", dist_header, dist_rows,
                          "{}," * (n_types + 1) + "{:.17g}\n")
    return psi_path, dist_path


def write_urn_trajectory(path, snapshots, n_types: int) -> Path:
    header = (["n"] + [f"c_{i + 1}" for i in range(n_types)]
              + [f"frac_{i + 1}" for i in range(n_types)])
    rows = [(s.n,) + s.composition + s.fractions for s in snapshots]
    return write_csv(path, header, rows)


def file_digest(path) -> str:
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
