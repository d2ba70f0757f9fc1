"""The harness's one timing policy, and the FLOP-rate conversion."""

from __future__ import annotations

import statistics
import time
from typing import Callable, Tuple

__all__ = ["MIN_SAMPLE_SECONDS", "SAMPLES", "time_callable", "gflops_rate"]

#: A sample repeats the call until it has lasted this long, so a 20 µs
#: compiled kernel is averaged over ~100 calls instead of being timed once at
#: the resolution of the clock.
MIN_SAMPLE_SECONDS = 2.0e-3

#: Samples per measurement; the paper reports the median of 5 runs (§4.1).
SAMPLES = 5


def time_callable(fn: Callable[[], object]) -> Tuple[float, object]:
    """Median seconds per call of ``fn()`` over :data:`SAMPLES` samples.

    One untimed warm-up call pages in code and buffers.  Returns
    ``(median_seconds_per_call, last_result)`` so the caller can verify what
    the timed code computed.
    """
    result = fn()
    per_call = []
    for _ in range(SAMPLES):
        calls = 0
        elapsed = 0.0
        start = time.perf_counter()
        while elapsed < MIN_SAMPLE_SECONDS:
            result = fn()
            calls += 1
            elapsed = time.perf_counter() - start
        per_call.append(elapsed / calls)
    return statistics.median(per_call), result


def gflops_rate(flop_count: int, seconds: float) -> float:
    """GFLOP/s given a FLOP count and a wall-clock time."""
    if seconds <= 0.0:
        return float("inf")
    return flop_count / seconds / 1.0e9
