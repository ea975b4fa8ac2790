"""Percentiles for request latencies and for run-to-run spread."""

from __future__ import annotations

import math
import statistics

# Percentiles the tail is picked from, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0)
TAIL_BEYOND = 10


def _rank(n: int, p: float) -> int:
    # rounding first keeps 99.9% of 10000 at rank 9990, not 9991
    return max(1, math.ceil(round(p * n / 100, 9)))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of the
    samples at or below it."""
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def beyond(n: int, p: float) -> int:
    """Samples strictly above the nearest-rank p-th percentile of n."""
    return n - _rank(n, p)


def tail_percentile(n: int) -> float:
    """The highest percentile of the ladder that still has TAIL_BEYOND
    samples beyond it; with too few samples for any, the maximum (100)."""
    for p in TAIL_LADDER:
        if beyond(n, p) >= TAIL_BEYOND:
            return p
    return 100.0


def spread(values) -> dict:
    """Median, quartiles and the interquartile distance as a share of the
    median, as statistics.quantiles(values, n=4) gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else float("inf")}
