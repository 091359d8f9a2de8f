"""The few statistics the benchmark reports, kept in one place so the smoke
test can check them on known inputs."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence, Tuple

#: A percentile is only as good as the samples beyond it (choosing-metrics §1).
MIN_SAMPLES_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) exactly as ``statistics.quantiles(values, n=4)`` gives
    them — the definition the acceptance driver uses.  One value has no
    spread, so it is returned three times."""
    if len(values) < 2:
        return (float(values[0]),) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def percentile(values: Sequence[float], p: float) -> Tuple[float, bool]:
    """Nearest-rank ``p``-th percentile, and whether at least
    ``MIN_SAMPLES_BEYOND`` samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return float(ordered[rank - 1]), len(ordered) - rank >= MIN_SAMPLES_BEYOND


def summary(values: Sequence[float]) -> Dict[str, float]:
    q1, q2, q3 = quartiles(values)
    return {"n": len(values), "median": q2, "q1": q1, "q3": q3}
