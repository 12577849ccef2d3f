"""Summary statistics for the benchmark's samples.

Timings are reported as a median with the sample count.  A higher
percentile is reported only when at least :data:`MIN_BEYOND` samples lie
beyond it, so a tail figure is never one or two lucky samples.
"""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence, Tuple

MIN_BEYOND = 10
TAILS = (99.9, 99.0, 95.0, 90.0, 75.0)


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def _rank(count: int, q: float) -> int:
    # Rounded first, so 99.9% of 10000 is rank 9990, not 9991.
    return max(math.ceil(round(q / 100.0 * count, 9)), 1)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q``
    percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError("percentile must be in (0, 100], got %r" % q)
    ordered = sorted(values)
    return ordered[_rank(len(ordered), q) - 1]


def beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``q``."""
    return count - _rank(count, q)


def supported_tail(count: int) -> Optional[float]:
    """The highest percentile of :data:`TAILS` with at least
    :data:`MIN_BEYOND` samples beyond it, or None."""
    for q in TAILS:
        if beyond(count, q) >= MIN_BEYOND:
            return q
    return None


def summary(values: Sequence[float]) -> Tuple[float, int, Optional[float],
                                              Optional[float]]:
    """``(median, count, tail_q, tail_value)``; the tail is None when no
    percentile has enough samples beyond it."""
    tail_q = supported_tail(len(values))
    tail = percentile(values, tail_q) if tail_q is not None else None
    return median(values), len(values), tail_q, tail


def relative_iqr(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else 0.0
