#!/usr/bin/env python3
"""Benchmark of the `mtpa` command line, one workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`. Each execution runs the workload's commands in fresh interpreters
with MTPA_THREADS=1, checks their outputs (check.py) and times them from
outside. With --trace 0 the run repeats the workload for S seconds (at
least three times) and reports medians of the end-to-end metrics, its
times scaled to the reference speed that calibrate.py measures; with
--trace 1 it alternates untraced and traced executions and reports the
per-layer metrics. The last line of standard output is one JSON object;
a fuller record, with the machine and software versions, goes to
`.bench_work/results/`.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
import check
import layers
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SOURCE = ROOT / "src" / "mtpa"
WORK = ROOT / ".bench_work"
MIN_EXECUTIONS = 3
# no execution starts after this many seconds, and a child still running
# CHILD_GRACE_S later is killed, so a run ends inside 180 s
HARD_LIMIT_S = 140.0
CHILD_GRACE_S = 20.0
# the traced run's bytes-per-edge probe steps at most this many steps
MEMORY_PROBE_STEPS = 20_000
GRAPH_WORKLOADS = ("graph_compare", "graph_snapshots")

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MiB", "work_per_s": "unit/s"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["MTPA_THREADS"] = "1"  # one process: the machine may have 2 shared cores
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


ENV = child_env()


@dataclass
class Child:
    code: int
    wall: float
    cpu: float
    rss_mb: float


def spawn(argv: list, cwd: Path, log: Path, timeout: float) -> Child:
    """Run a child to completion and return its own resource usage."""
    with open(log, "ab") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=ENV, stdout=fh,
                                stderr=subprocess.STDOUT)
    killer = threading.Timer(max(timeout, 1.0), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0)


@dataclass
class Execution:
    wall: float
    cpu: float
    rss_mb: float
    spans: list = field(default_factory=list)
    # wall and cpu at the reference speed, and each command's factor
    scaled_wall: float = 0.0
    scaled_cpu: float = 0.0
    factors: list = field(default_factory=list)


class Session:
    """One workload at one seed and size, in its own work directory."""

    def __init__(self, workload: str, seed: int, size: str, workdir: Path,
                 hard_end: float, references: dict | None):
        self.workload, self.seed, self.size = workload, seed, size
        self.plan = WORKLOADS[workload](seed, size)
        self.workdir = workdir
        self.hard_end = hard_end
        self.references = references
        self.pinned = False
        self.attempted = self.failed = 0
        self.problems = []
        self.first_digests = None  # set, with first_ok, by the first execution
        self.first_ok = False
        self.last_findings = None
        workdir.mkdir(parents=True, exist_ok=True)
        for name, text in self.plan.files.items():
            (workdir / name).write_text(text)
        self.log = workdir / "children.log"

    def _spawn(self, argv: list) -> Child:
        return spawn(argv, self.workdir, self.log, self.hard_end - time.monotonic() + CHILD_GRACE_S)

    def _fail(self, problems: list) -> None:
        self.failed += 1
        self.problems += problems

    def setup(self) -> float:
        """Set-up time of every command: start, import and config resolution."""
        total = 0.0
        for command in self.plan.commands:
            child = self._spawn([sys.executable, str(BENCH / "child.py"), "setup", "--",
                                 *command.argv, "--out", command.out])
            if child.code != 0:  # counted as a failed attempt of its own
                self.attempted += 1
                self._fail([f"set-up probe of {command.argv[0]} exited {child.code}"])
            total += child.wall
        return total

    def _examine(self, codes: list, deep: bool) -> check.Findings:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "check.py"), self.workload, self.size,
             str(self.seed), str(self.workdir), str(int(deep)), *map(str, codes)],
            capture_output=True, text=True, timeout=CHILD_GRACE_S * 3)
        if proc.returncode != 0:
            return check.Findings(problems=[f"output check crashed: {proc.stderr[-500:]}"])
        return check.Findings(**json.loads(proc.stdout))

    def execute(self, traced: bool = False, tamper=None, speed=None) -> Execution:
        """Run the workload's commands once and check their outputs.

        `speed()`, if given, is called after each command and returns the
        factor that scales that command's times to the reference speed.
        """
        self.attempted += 1
        run = Execution(0.0, 0.0, 0.0)
        codes = []
        for i, command in enumerate(self.plan.commands):
            shutil.rmtree(self.workdir / command.out, ignore_errors=True)
            tail = [*command.argv, "--out", command.out]
            if traced:
                spans = self.workdir / f"spans_{self.attempted}_{i}.json"
                argv = [sys.executable, str(BENCH / "child.py"), "trace", str(spans), "--", *tail]
                run.spans.append(spans)
            else:
                argv = [sys.executable, "-m", "mtpa.cli", *tail]
            child = self._spawn(argv)
            factor = speed() if speed else 1.0
            run.factors.append(factor)
            run.wall += child.wall
            run.cpu += child.cpu
            run.scaled_wall += child.wall * factor
            run.scaled_cpu += child.cpu * factor
            run.rss_mb = max(run.rss_mb, child.rss_mb)
            codes.append(child.code)
        if tamper is not None:
            tamper(self)
        deep = self.first_digests is None
        found = self.last_findings = self._examine(codes, deep)
        if deep and self.references is not None and not found.problems:
            self.pinned = check.against_references(self.references, self.workload,
                                                   self.seed, found)
        if not deep and not found.problems:
            if found.digests != self.first_digests:
                found.problems.append("outputs differ from the first execution of this seed")
            elif not self.first_ok:
                found.problems.append("outputs repeat those of the failed first execution")
        if deep:
            self.first_digests = found.digests
            self.first_ok = not found.problems
        if found.problems:
            self._fail(found.problems)
        return run


def _enough(runs: list, loop_start: float, budget_end: float, hard_end: float,
            minimum: int) -> bool:
    now = time.monotonic()
    per_run = (now - loop_start) / len(runs)
    if now + per_run > hard_end:
        return True
    return len(runs) >= minimum and now + per_run > budget_end


def timed_run(session: Session, budget_end: float, tamper) -> tuple:
    session.setup()  # warm-up: compiles bytecode and fills the file cache
    setups, runs = [], []
    with calibrate.Probe(ENV) as probe:
        kernel_times = [probe.measure()]

        def speed() -> float:
            """Factor for the work done since the previous kernel timing."""
            kernel_times.append(probe.measure())
            return calibrate.factor(kernel_times[-2], kernel_times[-1])

        loop_start = time.monotonic()
        while True:
            # one set-up round per execution spreads them over the whole run
            setups.append(session.setup())
            runs.append(session.execute(tamper=tamper, speed=speed))
            if _enough(runs, loop_start, budget_end, session.hard_end, MIN_EXECUTIONS):
                break
    wall = statistics.median(r.scaled_wall for r in runs)
    metrics = {
        "wall_s": wall,
        "cpu_s": statistics.median(r.scaled_cpu for r in runs),
        # the kernel timings around a set-up round also bracket the first command
        "setup_s": statistics.median(s * r.factors[0] for s, r in zip(setups, runs)),
        "peak_rss_mb": statistics.median(r.rss_mb for r in runs),
        "work_per_s": session.plan.work / wall,
    }
    samples = {"wall_s": [r.wall for r in runs], "cpu_s": [r.cpu for r in runs],
               "peak_rss_mb": [r.rss_mb for r in runs], "setup_s": setups,
               "speed_factor": [r.factors for r in runs]}
    return metrics, {"samples": samples}


def memory_probe(session: Session) -> float:
    """tracemalloc peak bytes per edge while stepping the session's graph."""
    config = next(name for name in session.plan.files if name.endswith(".ini"))
    steps = min(session.plan.params["steps"], MEMORY_PROBE_STEPS)
    proc = subprocess.run([sys.executable, str(BENCH / "child.py"), "memory", config,
                           str(steps)], cwd=session.workdir, env=ENV, capture_output=True,
                          text=True, timeout=max(session.hard_end - time.monotonic(), 10.0))
    if proc.returncode != 0:
        raise RuntimeError(f"memory probe exited {proc.returncode}: {proc.stderr[-500:]}")
    probe = json.loads(proc.stdout)
    return probe["peak_bytes"] / probe["edges"]


def traced_run(session: Session, budget_end: float, tamper, workdir: Path) -> tuple:
    session.setup()  # warm-up, as in the timed run
    # tiny runs of the other workloads reach the layers this one bypasses
    companions = {name: Session(name, session.seed, "tiny", workdir / name, session.hard_end,
                                None)
                  for name in WORKLOADS if name != session.workload}
    companion_metrics = {}
    for name, companion in companions.items():
        spans = companion.execute(traced=True, tamper=tamper).spans
        companion_metrics[name] = layers.span_metrics(layers.load(spans))
        session.attempted += companion.attempted
        session.failed += companion.failed
        session.problems += [f"{name} (tiny): {p}" for p in companion.problems]
    probed = next(s for s in [session, *companions.values()] if s.workload in GRAPH_WORKLOADS)
    bytes_per_edge = memory_probe(probed)

    pairs = []
    loop_start = time.monotonic()
    while True:
        untraced = session.execute(tamper=tamper)
        pairs.append((untraced, session.execute(traced=True, tamper=tamper)))
        if _enough([p[1] for p in pairs], loop_start, budget_end, session.hard_end, 1):
            break

    own = [layers.load(traced.spans) for _, traced in pairs]
    per_execution = [layers.span_metrics(spans) for spans in own]
    metrics, from_companion = {}, {}
    for name in per_execution[0]:
        values = [m[name] for m in per_execution if m[name] is not None]
        if values:
            metrics[name] = statistics.median_low(values)
        else:  # a layer this workload bypasses: measured on the layer's owner
            source = layers.owner(name)
            metrics[name] = companion_metrics.get(source, {}).get(name)
            from_companion[name] = f"{source} (tiny)"
    traced_wall = statistics.median(t.wall for _, t in pairs)
    metrics["trace.overhead_s"] = traced_wall - statistics.median(u.wall for u, _ in pairs)
    metrics["graph.bytes_per_edge"] = bytes_per_edge
    if probed is not session:
        from_companion["graph.bytes_per_edge"] = f"{probed.workload} (tiny)"
    missing = [name for name, value in metrics.items() if value is None]
    if missing:
        raise RuntimeError(f"no spans measured {missing}")
    middle = len(pairs) // 2
    report = {"shares": layers.shares(own[middle], pairs[middle][1].wall),
              "from_companion": from_companion,
              "samples": {"traced_wall_s": [t.wall for _, t in pairs],
                          "untraced_wall_s": [u.wall for u, _ in pairs]}}
    return metrics, report


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SOURCE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_pinned": sorted(os.sched_getaffinity(0)),
        "calibration_nominal_s": calibrate.NOMINAL_S,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "mtpa_threads": ENV["MTPA_THREADS"] + " (forced)",
    }


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str = "full", tamper=None) -> tuple:
    """One benchmark run; returns (result line, fuller record).

    `size` "tiny" is for the self-test and is checked against no reference.
    `tamper(session)`, if given, runs after every execution and before its
    check; the self-test uses it to corrupt outputs.
    """
    start = time.monotonic()
    workdir = WORK / f"{workload}-{size}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    references = check.load_references() if size == "full" else None
    try:
        session = Session(workload, seed, size, workdir / "own", start + HARD_LIMIT_S,
                          references)
        if trace:
            metrics, report = traced_run(session, start + seconds, tamper, workdir)
            units = layers.PER_LAYER
        else:
            metrics, report = timed_run(session, start + seconds, tamper)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"correct": session.failed == 0, "attempted": session.attempted,
              "failed": session.failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "size": size, "pinned_reference": session.pinned,
              "problems": session.problems, "environment": environment(),
              "result": result, **report}
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCE / "cli.py").is_file():
        print(f"error: no mtpa sources under {SOURCE}; run from a source checkout",
              file=sys.stderr)
        return 2
    # the host's speed drifts on each CPU on its own, so the commands and the
    # calibration kernel that scales their times all run on one CPU
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=2) + "\n")
    for problem in record["problems"]:
        print(f"problem: {problem}")
    if args.trace:
        shares = record["shares"]["layers"]
        print("layer shares of traced wall: "
              + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
        spans = list(record["shares"]["spans"].items())[:6]
        print("top spans by self time: " + ", ".join(f"{k} {v:.1%}" for k, v in spans))
    print("environment: " + json.dumps(record["environment"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
