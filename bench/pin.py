#!/usr/bin/env python3
"""Regenerate references.json from the program as it is.

    python3 bench/pin.py

Runs every workload once at full size for each pinned seed and records
what check.py compares: the seed-independent solver reals, and per seed
the sha256 of the simulation outputs and the seed-dependent reals. Pin
only a commit whose outputs are known to be right; a change that alters
any pinned output must say why in its description.
"""
from __future__ import annotations

import json
import shutil
import sys
import time

import check
from run import WORK, Session
from workloads import WORKLOADS


def main() -> int:
    references = {}
    for name in WORKLOADS:
        any_seed, seeds = None, {}
        for seed in check.PINNED_SEEDS:
            workdir = WORK / f"pin-{name}-seed{seed}"
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                session = Session(name, seed, "full", workdir, time.monotonic() + 600, None)
                session.execute()
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if session.failed:
                print(f"{name} seed {seed}: {session.problems}", file=sys.stderr)
                return 1
            found = session.last_findings
            if any_seed is None:
                any_seed = found.reals_any
            elif found.reals_any != any_seed:
                print(f"{name}: solver outputs depend on the seed", file=sys.stderr)
                return 1
            seeds[str(seed)] = {"exact": found.exact, "reals": found.reals_seed}
            print(f"pinned {name} seed {seed}")
        references[name] = {"any_seed": any_seed, "seeds": seeds}
    with open(check.REFERENCES, "w") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
