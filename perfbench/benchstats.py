"""Arithmetic of the benchmark: percentiles, span self time and open-loop
lateness.

Pure functions over plain numbers, kept apart from the workloads so the
tests in ``perfbench/tests`` can pin them without running any workload.
"""

from __future__ import annotations

import math
import statistics

#: A tail percentile is only reported when at least this many samples
#: lie beyond it.
MIN_TAIL_SAMPLES = 10


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def tail_percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile, refused when the sample is thin.

    The value at rank ``ceil(q / 100 * n)`` (1-based) is returned only if
    at least :data:`MIN_TAIL_SAMPLES` samples rank above it; otherwise
    ``ValueError`` names how many samples the percentile would need.
    """
    values = sorted(values)
    n = len(values)
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    rank = max(1, math.ceil(q / 100.0 * n))
    beyond = n - rank
    if beyond < MIN_TAIL_SAMPLES:
        needed = math.ceil(MIN_TAIL_SAMPLES / (1.0 - q / 100.0))
        raise ValueError(
            f"p{q:g} of {n} samples has {beyond} beyond it; needs "
            f"{MIN_TAIL_SAMPLES} (at least {needed} samples)"
        )
    return float(values[rank - 1])


def union_length(intervals) -> float:
    """Total length covered by ``(start, end)`` intervals (overlaps once)."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span, children) -> float:
    """A span's duration minus the part of it its child spans cover.

    ``span`` and each child are ``(start, end)`` pairs; children are
    clipped to the span, so a child that outlives its parent is charged
    only for the overlap.
    """
    start, end = span
    clipped = [
        (max(start, c_start), min(end, c_end))
        for c_start, c_end in children
        if c_end > start and c_start < end
    ]
    return (end - start) - union_length(clipped)


def due_times(start: float, count: int, interval: float) -> list[float]:
    """Absolute open-loop schedule: item ``k`` is due at ``start + k * interval``.

    Computed from the start time, never from when the previous item
    finished, so a slow service does not slow the schedule down.
    """
    return [start + k * interval for k in range(count)]


def open_loop_accounting(dues, starts, ends) -> tuple[list[float], list[float]]:
    """Latency and generator lag of each open-loop request.

    Latency runs from the due time to the end of the request, so a stall
    is charged to every request that was due while it lasted.  Lag is
    how late the generator started a request (0 when on time).
    """
    if not len(dues) == len(starts) == len(ends):
        raise ValueError("dues, starts and ends must have equal length")
    latencies = []
    lags = []
    for due, start, end in zip(dues, starts, ends):
        if end < start:
            raise ValueError("a request cannot end before it starts")
        latencies.append(end - due)
        lags.append(max(0.0, start - due))
    return latencies, lags
