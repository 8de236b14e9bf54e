"""Correctness gate: checks every execution's outputs.

    python3 check.py WORKLOAD SIZE SEED WORKDIR DEEP EXIT_CODES...

prints the Findings of one execution as JSON. The benchmark runs it as a
child process: a parent grown by parsing large outputs would pass its peak
memory on to the `ru_maxrss` of every command it starts afterwards.

Four layers of checks, cheapest first:

1. each command's exit code is the expected one, and every file its
   `manifest.json` lists has the recorded sha256;
2. every execution of a run is byte-identical to the first (same seed,
   same bytes);
3. the first execution of a run is parsed and its invariants checked:
   census integrity of the snapshots, the weight marginal
   2m(m+1)/(s(s+1)(s+2)) of every solver table, PASS verdicts;
4. at full size, against `references.json`: solver-derived reals within
   1e-12 relative for any seed, and for the pinned seeds (0 and the
   held-out 1) the simulation outputs byte for byte and the seed-dependent
   reals within 1e-12.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS

REFERENCES = Path(__file__).resolve().parent / "references.json"
PINNED_SEEDS = (0, 1)
REL_TOL = 1e-12
# every SAMPLE_STRIDE-th row of the solve table is pinned cell by cell
SAMPLE_STRIDE = 397


@dataclass
class Findings:
    """What one execution's outputs show."""

    digests: dict = field(default_factory=dict)     # output file -> sha256
    exact: dict = field(default_factory=dict)       # seed-dependent, byte-exact
    reals_any: dict = field(default_factory=dict)   # seed-independent reals
    reals_seed: dict = field(default_factory=dict)  # seed-dependent reals
    problems: list = field(default_factory=list)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def read_csv(path: Path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def weight_marginal(m: int, s: int) -> float:
    """Mass of total degree s in the single-type limit, s >= m."""
    return 2.0 * m * (m + 1) / (s * (s + 1) * (s + 2))


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def examine(workload: str, plan, workdir: Path, exit_codes: list,
            deep: bool) -> Findings:
    """Check one execution; `deep` adds the parse and invariant checks."""
    found = Findings()
    for command, code in zip(plan.commands, exit_codes):
        if code != command.expected_exit:
            found.problems.append(
                f"{command.argv[0]} exited {code}, expected {command.expected_exit}")
    if found.problems:
        return found
    for command in plan.commands:
        out = workdir / command.out
        try:
            manifest_bytes = (out / "manifest.json").read_bytes()
            listed = json.loads(manifest_bytes)["outputs"]
        except (OSError, ValueError, KeyError) as exc:
            found.problems.append(f"{command.out}: unreadable manifest ({exc})")
            continue
        found.digests[f"{command.out}/manifest.json"] = sha256(manifest_bytes)
        for name, recorded in sorted(listed.items()):
            try:
                actual = "sha256:" + sha256((out / name).read_bytes())
            except OSError as exc:
                found.problems.append(f"{command.out}/{name}: {exc}")
                continue
            found.digests[f"{command.out}/{name}"] = actual
            if actual != recorded:
                found.problems.append(
                    f"{command.out}/{name} differs from its manifest digest")
    if deep and not found.problems:
        try:
            DEEP_CHECKS[workload](plan, workdir, found)
        except (OSError, ValueError, IndexError, KeyError) as exc:
            found.problems.append(f"malformed output: {exc!r}")
    return found


def _graph_compare(plan, workdir: Path, found: Findings) -> None:
    out = workdir / "out_compare"
    report = (out / "report.txt").read_bytes()
    if "overall: PASS" not in report.decode().splitlines():
        found.problems.append("graph compare report is not an overall PASS")
    _, reps = read_csv(out / "replicates.csv")
    if [int(r[0]) for r in reps] != list(range(plan.params["replicates"])):
        found.problems.append("replicates.csv does not list every replicate")
    n = plan.params["n_types"]
    # tv comes from the solver's table, so only its value is pinned, not its
    # digits; report.txt prints it too and is checked by its verdict alone
    found.exact["replicates.csv:index,psi_error"] = sha256(
        "\n".join(f"{r[0]},{r[2]}" for r in reps).encode())
    found.reals_seed["replicates.tv"] = {r[0]: float(r[1]) for r in reps}
    _, rows = read_csv(out / "errors.csv")
    theoretical = {}
    for row in rows:
        emp, theo, err = (float(v) for v in row[n:n + 3])
        if err != abs(emp - theo):
            found.problems.append(f"errors.csv row {row[:n]}: abs_error is not |emp - theo|")
        theoretical[",".join(row[:n])] = theo
    empirical = "\n".join(",".join(row[:n + 1]) for row in rows).encode()
    found.exact["errors.csv:empirical"] = sha256(empirical)
    found.reals_any["errors.theoretical"] = theoretical


def _graph_snapshots(plan, workdir: Path, found: Findings) -> None:
    p = plan.params
    out = workdir / "out_snapshots"
    n_types, m = p["n_types"], p["m"]
    _, psi_rows = read_csv(out / "psi.csv")
    steps, every = p["steps"], p["snapshot_every"]
    expected_n = sorted({0, steps} | set(range(every, steps + 1, every)))
    psi = {int(r[0]): [float(v) for v in r[1:]] for r in psi_rows}
    if [int(r[0]) for r in psi_rows] != expected_n:
        found.problems.append("psi.csv snapshot steps are not 0, every, ..., steps")
    census = {}
    _, dist_rows = read_csv(out / "distribution.csv")
    for row in dist_rows:
        census.setdefault(int(row[0]), []).append(
            ([int(v) for v in row[1:1 + n_types]], float(row[1 + n_types])))
    if sorted(census) != expected_n:
        found.problems.append("distribution.csv snapshot steps differ from psi.csv")
    for n in expected_n:
        vertices = p["seed_vertices"] + n
        edges = p["seed_edges"] + m * n
        per_type = [x * edges for x in psi.get(n, [0.0] * n_types)]
        if any(abs(e - round(e)) > 1e-6 for e in per_type) or \
                sum(round(e) for e in per_type) != edges:
            found.problems.append(f"psi at n={n} is not edge counts over {edges}")
            return
        counts = []
        for degree, mass in census.get(n, []):
            count = mass * vertices
            if abs(count - round(count)) > 1e-6:
                found.problems.append(f"census mass at n={n} is not a count over {vertices}")
                return
            counts.append((degree, round(count)))
        if sum(c for _, c in counts) != vertices:
            found.problems.append(f"census at n={n} does not cover {vertices} vertices")
        for l in range(n_types):
            ends = sum(d[l] * c for d, c in counts)
            if ends != 2 * round(per_type[l]):
                found.problems.append(
                    f"handshake of type {l + 1} fails at n={n}: {ends} edge ends")
                return
    found.exact.update({
        "psi.csv": sha256((out / "psi.csv").read_bytes()),
        "distribution.csv": sha256((out / "distribution.csv").read_bytes())})


def _urn_compare(plan, workdir: Path, found: Findings) -> None:
    out = workdir / "out_compare"
    report = (out / "report.txt").read_bytes()
    lines = report.decode().splitlines()
    for line in ("conservation checks: PASS", "overall: PASS"):
        if line not in lines:
            found.problems.append(f"urn compare report lacks {line!r}")
    _, reps = read_csv(out / "replicates.csv")
    if [int(r[0]) for r in reps] != list(range(plan.params["replicates"])):
        found.problems.append("replicates.csv does not list every replicate")
    if any(r[1] != "" or float(r[2]) > plan.params["psi_tolerance"] for r in reps):
        found.problems.append("an urn replicate misses the psi tolerance")
    found.exact.update({"report.txt": sha256(report),
                        "replicates.csv": sha256((out / "replicates.csv").read_bytes())})


def _layer_sums(rows, n: int, column: int, m: int, what: str, found: Findings):
    layers = {}
    for row in rows:
        layers.setdefault(sum(int(v) for v in row[:n]), []).append(float(row[column]))
    for s, values in sorted(layers.items()):
        total = math.fsum(values)
        if not close(total, weight_marginal(m, s)):
            found.problems.append(
                f"{what}: weight {s} sums to {total!r}, not {weight_marginal(m, s)!r}")
            return


def _theory_solve(plan, workdir: Path, found: Findings) -> None:
    p = plan.params
    n, m = p["solve_n"], p["solve_m"]
    _, rows = read_csv(workdir / "out_solve" / "distribution.csv")
    if len(rows) != sum(math.comb(s + n - 1, n - 1) for s in range(m, p["solve_dmax"] + 1)):
        found.problems.append("solve table does not cover the lattice")
    if any(row[n + 1] != "THEORETICAL_PERTURBED" for row in rows):
        found.problems.append("solve table has a wrong provenance")
    _layer_sums(rows, n, n, m, "solve", found)
    moments = {}
    for row in rows:
        degree = [int(v) for v in row[:n]]
        mass = float(row[n])
        for l in range(n):
            moments.setdefault(f"{sum(degree)}:{l + 1}", []).append(degree[l] * mass)
    found.reals_any["solve.layer_moments"] = {k: math.fsum(v) for k, v in moments.items()}
    found.reals_any["solve.cells"] = {",".join(row[:n]): float(row[n])
                                      for row in rows[::SAMPLE_STRIDE]}

    n, m = p["study_n"], p["study_m"]
    _, rows = read_csv(workdir / "out_study" / "study.csv")
    if len(rows) != sum(math.comb(s + n - 1, n - 1) for s in range(m, p["cutoff"] + 1)):
        found.problems.append("study table does not cover weights up to the cutoff")
    _layer_sums(rows, n, n, m, "study unperturbed_mean", found)
    _layer_sums(rows, n, n + 2, m, "study perturbed", found)
    if any(float(row[n + 1]) < 0 for row in rows):
        found.problems.append("study has a negative spread")
    key = lambda row: ",".join(row[:n])
    found.reals_any["study.perturbed"] = {key(r): float(r[n + 2]) for r in rows}
    found.reals_seed["study.unperturbed_mean"] = {key(r): float(r[n]) for r in rows}
    found.reals_seed["study.unperturbed_std"] = {key(r): float(r[n + 1]) for r in rows}


DEEP_CHECKS = {
    "graph_compare": _graph_compare,
    "graph_snapshots": _graph_snapshots,
    "urn_compare": _urn_compare,
    "theory_solve": _theory_solve,
}


def _compare_reals(name: str, got: dict, want: dict) -> list:
    if got is None or set(got) != set(want):
        return [f"{name}: cells differ from the reference"]
    bad = [k for k in want if not close(got[k], want[k])]
    if bad:
        return [f"{name}: {len(bad)} values off the reference by more than "
                f"{REL_TOL:g} relative, first at {bad[0]}"]
    return []


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def against_references(references: dict, workload: str, seed: int,
                       found: Findings) -> bool:
    """Compare a deep-checked full-size execution; True if the seed is pinned."""
    ref = references[workload]
    for name, want in ref["any_seed"].items():
        found.problems += _compare_reals(name, found.reals_any.get(name), want)
    pinned = ref["seeds"].get(str(seed))
    if pinned is None:
        return False
    for name, want in pinned["exact"].items():
        if found.exact.get(name) != want:
            found.problems.append(f"{name} differs byte-wise from the seed-{seed} reference")
    for name, want in pinned["reals"].items():
        found.problems += _compare_reals(name, found.reals_seed.get(name), want)
    return True


def main(argv: list) -> int:
    workload, size, seed, workdir, deep = argv[:5]
    plan = WORKLOADS[workload](int(seed), size)
    found = examine(workload, plan, Path(workdir), [int(c) for c in argv[5:]],
                    deep == "1")
    json.dump(dataclasses.asdict(found), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
