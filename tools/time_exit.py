"""Process cost of each bench workload's commands, and of interpreter
teardown, for one checkout.

    python3 tools/time_exit.py SRC_ROOT [--rounds R]

Imports nothing of `mtpa` itself: every measurement is a child process with
SRC_ROOT/src on PYTHONPATH, serial (`MTPA_THREADS=1`), pinned with this
script to one CPU, timed from outside by `os.wait4`. Prints one JSON
object:

- `commands`: for each workload in SRC_ROOT/bench/workloads.py at its
  `tiny` size (seed 1), each command as `python -m mtpa.cli ARGS --out DIR`
  in a fresh directory, with the median over R rounds of its wall seconds
  (`wall_s`), user plus system CPU seconds (`cpu_s`) and `ru_maxrss`
  (`maxrss_mib`), and the `mtpa.*` modules its process imported
  (`modules`), read from one more run under `-X importtime` outside the
  timed rounds (`mtpa.cli` itself runs as `__main__`, so it is not
  listed), and the number of cyclic garbage collector passes
  (`gc_passes`) and their milliseconds (`gc_ms`) in one more run, whose
  `gc.callbacks` hook times every pass from the interpreter's start-up to
  its exit;
- `teardown`: `python -c "import mtpa.cli"`, which ends with the usual
  interpreter teardown (`normal`), against the same import followed by
  `os._exit(0)` (`hard`), R rounds each, alternating; the medians and
  their difference (`saved`) in wall and CPU milliseconds.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

IMPORT = "import mtpa.cli"

# `python -m mtpa.cli ARGS` as runpy runs it for -m, with a gc.callbacks
# hook timing every collector pass; the process writes [passes, seconds]
# to PATH as it ends, whichever way it ends
GC_PROBE = """
import gc, json, os, runpy, sys, time
path = sys.argv.pop(1)
passes, spent, start = [0], [0.0], [0.0]

def hook(phase, info):
    if phase == "start":
        start[0] = time.perf_counter()
    else:
        passes[0] += 1
        spent[0] += time.perf_counter() - start[0]

def report():
    with open(path, "w") as fh:
        json.dump([passes[0], spent[0]], fh)

def exit_after_report(code, _exit=os._exit):
    report()
    _exit(code)

gc.callbacks.append(hook)
os._exit = exit_after_report
try:
    runpy.run_module("mtpa.cli", run_name="__main__", alter_sys=True)
finally:
    report()
"""


def child(argv: list, env: dict, cwd: str) -> dict:
    """Wall seconds, CPU seconds and `ru_maxrss` of one child process."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=env,
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise SystemExit(f"{argv} exited {code}")
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_mib": usage.ru_maxrss / 1024}


def imported(argv: list, env: dict, cwd: str) -> list:
    """The `mtpa.*` modules one child process imports, from the
    `-X importtime` lines it writes to stderr."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv],
                          cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, check=True)
    names = {line.rsplit("|", 1)[-1].strip()
             for line in proc.stderr.splitlines()
             if line.startswith("import time:")}
    return sorted(n for n in names if n.split(".")[0] == "mtpa")


def collector(args: list, env: dict, cwd: str) -> dict:
    """Passes and milliseconds of the cyclic garbage collector in one
    `python -m mtpa.cli ARGS` child, from GC_PROBE's hook."""
    path = os.path.join(cwd, "gc_probe.json")
    subprocess.run([sys.executable, "-c", GC_PROBE, path, *args],
                   cwd=cwd, env=env, stdout=subprocess.DEVNULL, check=True)
    with open(path) as fh:
        passes, seconds = json.load(fh)
    return {"gc_passes": passes, "gc_ms": round(1e3 * seconds, 2)}


def medians(rows: list, digits: int = 4) -> dict:
    return {key: round(statistics.median(r[key] for r in rows), digits)
            for key in rows[0]}


def commands(root: str, env: dict, rounds: int) -> dict:
    sys.path.insert(0, os.path.join(root, "bench"))
    from workloads import WORKLOADS

    out = {}
    for name, make in WORKLOADS.items():
        plan = make(1, "tiny")
        with tempfile.TemporaryDirectory() as tmp:
            for file_name, text in plan.files.items():
                with open(os.path.join(tmp, file_name), "w") as fh:
                    fh.write(text)
            for command in plan.commands:
                argv = ["-m", "mtpa.cli", *command.argv, "--out"]
                rows = [child(argv + [f"{command.out}_{r}"], env, tmp)
                        for r in range(rounds)]
                out[f"{name}.{command.argv[0]}"] = dict(
                    medians(rows),
                    **collector([*command.argv, "--out", f"{command.out}_gc"],
                                env, tmp),
                    modules=imported(argv + [f"{command.out}_modules"], env,
                                     tmp))
    return out


def teardown(env: dict, rounds: int) -> dict:
    runs = {"normal": [], "hard": []}
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(rounds):
            runs["normal"].append(child(["-c", IMPORT], env, tmp))
            runs["hard"].append(child(["-c", f"{IMPORT}; import os; "
                                       "os._exit(0)"], env, tmp))
    out = {}
    for kind, rows in runs.items():
        out[kind] = {f"{key[:-2]}_ms": round(1e3 * statistics.median(
            r[key] for r in rows), 1) for key in ("wall_s", "cpu_s")}
    out["saved"] = {key: round(out["normal"][key] - out["hard"][key], 1)
                    for key in out["normal"]}
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("root")
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args()
    root = os.path.abspath(args.root)
    env = dict(os.environ, MTPA_THREADS="1",
               PYTHONPATH=os.path.join(root, "src"))
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    print(json.dumps({"rounds": args.rounds,
                      "commands": commands(root, env, args.rounds),
                      "teardown": teardown(env, args.rounds)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
