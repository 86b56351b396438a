"""Percentiles and the tail rule used by every workload.

The tail of a latency sample is reported at the highest percentile that
still has at least ``MIN_BEYOND`` samples beyond it, so a short run never
reports a tail resting on one or two observations.
"""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 80.0, 75.0, 50.0)


def _rank(pct: float, n: int) -> int:
    """1-based nearest rank of percentile ``pct`` among ``n`` samples
    (guarded against float error: 99.9% of 10000 is rank 9990)."""
    return max(1, math.ceil(round(pct * n / 100.0, 9)))


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile of ``values`` (``pct`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile {pct} outside [0, 100]")
    return ordered[_rank(pct, len(ordered)) - 1]


def tail_percentile(n: int) -> float | None:
    """Highest candidate percentile with at least ``MIN_BEYOND`` of ``n``
    samples strictly beyond its nearest rank, or None when ``n`` is too
    small for any."""
    for pct in TAIL_PERCENTILES:
        if n - _rank(pct, n) >= MIN_BEYOND:
            return pct
    return None


def tail(values) -> tuple[float, float, int]:
    """``(value, percentile, samples_beyond)`` of the tail of ``values``.

    Falls back to the maximum (percentile 100, nothing beyond) when the
    sample is too small for the ten-beyond rule.
    """
    n = len(values)
    pct = tail_percentile(n)
    if pct is None:
        return max(values), 100.0, 0
    return percentile(values, pct), pct, n - _rank(pct, n)


def median(values) -> float:
    return statistics.median(values)


def summarize(values) -> dict:
    """Median and tail of a latency sample, with the tail's provenance."""
    value, pct, beyond = tail(values)
    return {
        "n": len(values),
        "p50": median(values),
        "tail": value,
        "tail_pct": pct,
        "tail_beyond": beyond,
    }
