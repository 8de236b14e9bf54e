"""Alternating rounds, the timing loop that the two-root tools share.

`tools/time_urn.py`, `tools/time_theory_walk.py` and `tools/time_grow.py`
each load one checkout or two into one process, under the labels "a" and
"b", and time them here: every round times every label once, in turn, the
first label first in even rounds and last in odd ones, so a host whose
speed drifts weighs on both alike.
"""
from __future__ import annotations

import statistics
import time


def alternate(labels: str, rounds: int, call) -> dict:
    """call(label, r) for each label in turn, in each round r of `rounds`:
    the seconds each call took, a list per label. What a call returns is
    dropped after its clock stops, so freeing it is not timed."""
    times = {label: [] for label in labels}
    for r in range(rounds):
        for label in (labels if r % 2 == 0 else labels[::-1]):
            start = time.perf_counter()
            result = call(label, r)
            times[label].append(time.perf_counter() - start)
            del result
    return times


def summary(times: dict, unit: str, scale: float) -> dict:
    """Each label's median and best round, times `scale`, as
    `median_{unit}` and `best_{unit}`. With two labels, `pairs_won` counts
    the rounds each label was faster in (a tie counts for neither), and
    `worst_ratio` is the largest ratio of b's time to a's over the rounds."""
    out = {label: {f"median_{unit}": statistics.median(seconds) * scale,
                   f"best_{unit}": min(seconds) * scale}
           for label, seconds in times.items()}
    if len(times) == 2:
        pairs = list(zip(times["a"], times["b"]))
        out["pairs_won"] = {"a": sum(a < b for a, b in pairs),
                            "b": sum(b < a for a, b in pairs)}
        out["worst_ratio"] = max(b / a for a, b in pairs)
    return out
