"""A fixed reference computation that measures the machine's current speed.

The benchmark runs on a shared host whose speed drifts by a quarter and
more over minutes, so an execution can take half as long again in one
run as in the next. `kernel()` is a fixed mix of the operations the `mtpa`
commands spend their time on: interpreter loops over lists and dicts,
small numpy calls, float arithmetic and number formatting. It uses nothing
from `mtpa`, so a change to the program leaves it alone. Timing it right
before and right after an execution tells how fast the machine ran around
that execution; `factor()` turns the two timings into the multiplier that
scales the execution's times to the reference speed, at which the kernel
takes `NOMINAL_S`.

The kernel runs in a helper process (`Probe`), not in the benchmark's own:
a child's `ru_maxrss` counts the memory of the process it was forked from,
so the benchmark process must stay smaller than any command it measures.

This file is part of the benchmark's definition: changing the kernel or
`NOMINAL_S` changes every scaled time.
"""
from __future__ import annotations

import subprocess
import sys
import time

# about kernel()'s time on the reference machine (2 shared cores, Python
# 3.11.7, numpy 2.4.6); fixed, so scaled times are comparable between commits
NOMINAL_S = 0.16
ROUNDS = 10000


def kernel() -> int:
    """The fixed work; returns a checksum so that none of it is skipped.

    It grows a preferential-attachment graph as `pa_step` does (a growing
    endpoint pool, edge tuples, per-vertex degrees), walks a small
    recurrence table and formats numbers, so that its working set and its
    mix of operations resemble those of the workloads.
    """
    import numpy as np

    rng = np.random.default_rng(12345)
    pool = [0, 1]
    kinds = [0, 1]
    degree = [1, 1]
    edges = []
    cdf = (0.7, 0.9, 1.0)
    table = [0.0] * 32
    text = []
    check = 0
    for vertex in range(2, ROUNDS + 2):
        us = rng.random(8).tolist()
        frozen = len(pool)
        degree.append(0)
        for i in range(4):
            slot = int(us[2 * i] * frozen)
            endpoint = pool[slot]
            u = us[2 * i + 1]
            final = 0
            while u >= cdf[final]:
                final += 1
            edges.append((vertex, endpoint, final))
            degree[endpoint] += 1
            degree[vertex] += 1
            pool += (endpoint, vertex)
            kinds += (final, kinds[slot])
        for j in range(1, 24):
            table[j] = 0.5 * table[j - 1] + table[j] / (j + 2.0) + us[j & 7]
        if vertex % 16 == 0:
            text.append(",".join(f"{x:.17g}" for x in table[:8]))
            check += int(np.searchsorted(np.cumsum(us), 2.0))
    return check + max(degree) + len(edges) + len("".join(text)) + sum(kinds[-64:])


def measure() -> float:
    """Seconds one kernel() takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Probe:
    """A helper process that times kernel() each time it is asked."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen([sys.executable, __file__], env=env, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def measure(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"calibration helper exited {self.proc.wait()}")
        return float(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def factor(before: float, after: float) -> float:
    """Multiplier taking times measured between two kernel timings to the
    reference speed."""
    return NOMINAL_S / ((before + after) / 2.0)


if __name__ == "__main__":
    measure()  # warm-up: imports numpy, fills caches
    for _ in sys.stdin:
        print(repr(measure()), flush=True)
