#!/usr/bin/env python3
"""Self-test of the benchmark, at the tiny size of every workload.

    python3 bench/selftest.py

Checks four things and exits 1 on the first that fails:

1. an untraced run gives every end-to-end metric of BENCHMARK.json with
   its unit, and no execution fails;
2. two traced runs give every per-layer metric with its unit, and the
   count metrics repeat exactly between them;
3. a run whose first output file is corrupted after every execution
   counts every execution as failed;
4. an execution checked against references made from its own outputs
   passes, and fails once one pinned digest or one pinned real is changed
   by more than the 1e-12 tolerance, but not by less.

Takes about 75 s.
"""
from __future__ import annotations

import copy
import json
import shutil
import sys
import time

import layers
import run
from workloads import WORKLOADS

BENCHMARK = run.ROOT / "BENCHMARK.json"


def corrupt(session) -> None:
    """Change the last digit of the first file the first manifest lists."""
    out = session.workdir / session.plan.commands[0].out
    name = sorted(json.loads((out / "manifest.json").read_text())["outputs"])[0]
    data = bytearray((out / name).read_bytes())
    at = max(i for i, b in enumerate(data) if chr(b).isdigit())
    data[at] = ord("1") if data[at] != ord("1") else ord("2")
    (out / name).write_bytes(bytes(data))


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)


def units(result: dict) -> dict:
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


def checked_against(workload: str, references: dict | None) -> run.Session:
    """One tiny execution of seed 0, checked against `references`."""
    workdir = run.WORK / f"selftest-{workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        session = run.Session(workload, 0, "tiny", workdir, time.monotonic() + 120,
                              references)
        session.execute()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return session


def reference_cases(workload: str) -> list:
    """(what, references, should fail) from the outputs of one execution."""
    found = checked_against(workload, None).last_findings
    own = {workload: {"any_seed": found.reals_any,
                      "seeds": {"0": {"exact": found.exact, "reals": found.reals_seed}}}}
    cases = [("own outputs", own, False)]
    exact = own[workload]["seeds"]["0"]["exact"]
    if exact:
        name = sorted(exact)[0]
        changed = copy.deepcopy(own)
        changed[workload]["seeds"]["0"]["exact"][name] = "0" * 64
        cases.append((f"changed digest of {name}", changed, True))
    reals = [(kind, name, key)
             for kind, table in (("any_seed", own[workload]["any_seed"]),
                                 ("reals", own[workload]["seeds"]["0"]["reals"]))
             for name, values in table.items() for key, value in values.items() if value]
    if reals:
        kind, name, key = reals[0]
        for factor, should_fail in ((1 + 1e-9, True), (1 + 1e-14, False)):
            changed = copy.deepcopy(own)
            table = (changed[workload]["any_seed"] if kind == "any_seed"
                     else changed[workload]["seeds"]["0"]["reals"])
            table[name][key] *= factor
            cases.append((f"{name}[{key}] times {factor!r}", changed, should_fail))
    return cases


def main() -> int:
    spec = json.loads(BENCHMARK.read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(end_to_end == run.END_TO_END, "BENCHMARK.json end_to_end != run.END_TO_END")
    expect(per_layer == layers.PER_LAYER, "BENCHMARK.json per_layer != layers.PER_LAYER")
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json workloads != workloads.WORKLOADS")

    for workload in WORKLOADS:
        plain, _ = run.measure(workload, 0, 1.0, False, "tiny")
        expect(units(plain) == end_to_end, f"{workload}: end-to-end metrics {units(plain)}")
        expect(plain["correct"] and plain["failed"] == 0, f"{workload}: {plain}")

        traced = [run.measure(workload, 0, 1.0, True, "tiny")[0] for _ in range(2)]
        for result in traced:
            expect(units(result) == per_layer,
                   f"{workload}: per-layer metrics {units(result)}")
            expect(result["correct"], f"{workload}: traced run failed: {result}")
        for name in layers.COUNTS:
            values = [r["metrics"][name]["value"] for r in traced]
            expect(values[0] == values[1], f"{workload}: {name} differs: {values}")

        result, record = run.measure(workload, 0, 1.0, False, "tiny", tamper=corrupt)
        expect(not result["correct"] and result["failed"] == result["attempted"] >= 3,
               f"{workload}: corrupted outputs were not all counted: {result}")

        cases = reference_cases(workload)
        for what, references, should_fail in cases:
            session = checked_against(workload, references)
            expect(session.pinned and session.failed == int(should_fail),
                   f"{workload}: against references with {what}: failed "
                   f"{session.failed}, expected {int(should_fail)}: {session.problems}")
        print(f"ok {workload}: metrics and units, repeatable counts, corruption caught "
              f"({record['problems'][0]}), {len(cases)} reference cases")
    return 0


if __name__ == "__main__":
    sys.exit(main())
