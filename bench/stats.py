"""Order statistics used by the benchmark report."""

from __future__ import annotations

import math
import statistics

# Percentiles the report may quote, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)

# A percentile is only quoted when at least this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) by ``statistics.quantiles(n=4)``; one value repeats."""
    values = list(values)
    if len(values) < 2:
        return (float(values[0]),) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(n: int) -> float | None:
    """The highest percentile in PERCENTILES with >= 10 of n samples beyond it.

    Returns None when even the median has fewer than 10 samples beyond it.
    """
    best = None
    for p in PERCENTILES:
        if n * (100.0 - p) / 100.0 >= MIN_TAIL_SAMPLES - 1e-9:
            best = p
    return best


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with p% of samples at or below."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return float(ordered[rank - 1])
