"""Order statistics used for every reported number."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, Sequence


def quartiles(values: Sequence[float]) -> tuple:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def geomean(values: Iterable[float]) -> float:
    values = [float(v) for v in values]
    return math.exp(sum(math.log(v) for v in values) / len(values))


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Sample count, median and quartiles of one list of samples."""
    q1, med, q3 = quartiles(values)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3}


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (the steadiness figure)."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")
