"""Cumulative serving-layer metrics: counters, histograms, latency quantiles.

The service's observable surface.  Everything here is cheap to record on the
hot path (one lock, integer bumps, a bounded reservoir append) and surfaced
as one JSON-friendly snapshot through the ``stats`` endpoint, which the tests
and the CI smoke step assert on — the amortization story measured, not
assumed.

The latency reservoir and the percentile math live in
:mod:`repro.observe.registry` (:class:`~repro.observe.registry.Reservoir`,
:func:`~repro.observe.registry.percentile`).  A service's metrics are also
visible through the unified observability layer: the session registers each
instance as a pull-mode collector (``service``, auto-suffixed per instance)
in the default :class:`~repro.observe.registry.MetricsRegistry`, so the
Prometheus export (the ``metrics`` wire verb) carries ``repro_service_*``
gauges without any extra hot-path cost.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from repro.observe.registry import Reservoir, get_registry

__all__ = ["ServiceMetrics"]


class ServiceMetrics:
    """Thread-safe cumulative counters of one :class:`SolverService`.

    Counters (``incr``/``snapshot`` names):

    * ``registrations`` / ``compile_cold`` / ``compile_warm`` — pattern
      registrations and whether they generated code or reused cached
      artifacts (in-memory or on-disk),
    * ``solves_ok`` / ``solves_failed`` — per-request outcomes,
    * ``batches`` — dispatches; every solve is a dispatch of its own, so the
      batch-size histogram holds only size 1 and ``coalescing_ratio`` is 1
      (kept for the readers of the ``stats`` document),
    * ``rejected`` — admission-control backpressure rejections,
    * ``patterns_evicted`` — LRU/explicit evictions of registered patterns.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._batch_sizes: Dict[int, int] = {}
        # One lock for the counters and the latencies: a request records
        # both at once (observe_request).  The reservoir's default size keeps
        # p95 stable under the smoke workloads without unbounded growth.
        self._latency = Reservoir(lock=self._lock)
        self._collector_name: Optional[str] = None

    # ------------------------------------------------------------------ #
    def incr(self, name: str, n: int = 1) -> None:
        """Bump one named counter."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def count(self, name: str) -> int:
        """Current value of one named counter (0 when never bumped)."""
        with self._lock:
            return self._counters.get(name, 0)

    def observe_request(self, refactorized: Optional[bool], seconds: float) -> None:
        """Record one request, under one lock: its outcome, its dispatch of one and its latency.

        ``refactorized`` is ``None`` for a failed solve, else whether the
        solve refactorized (``refactorizations``) or reused the factors
        (``value_hits``).
        """
        if refactorized is None:
            names = ("solves_failed", "batches")
        else:
            names = ("refactorizations" if refactorized else "value_hits", "solves_ok", "batches")
        counters = self._counters
        with self._lock:
            for name in names:
                counters[name] = counters.get(name, 0) + 1
            self._batch_sizes[1] = self._batch_sizes.get(1, 0) + 1
            self._latency.observe_locked(seconds)

    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, object]:
        """One consistent JSON-friendly view of every metric.

        The latency quantiles come from **one** copy of the reservoir taken
        under its lock (sorted once for both p50 and p95), so a snapshot can
        never report a p95 below its own p50 because a concurrent solve
        landed between the two reads.
        """
        with self._lock:
            counters = dict(self._counters)
            histogram = dict(self._batch_sizes)
        solves = counters.get("solves_ok", 0) + counters.get("solves_failed", 0)
        batches = counters.get("batches", 0)
        dispatched = sum(size * count for size, count in histogram.items())
        return {
            "counters": counters,
            "batch_size_histogram": {str(k): v for k, v in sorted(histogram.items())},
            "solves": solves,
            "coalescing_ratio": (dispatched / batches) if batches else 0.0,
            "max_batch_size": max(histogram) if histogram else 0,
            "latency": self._latency.summary(qs=(50.0, 95.0)),
        }

    # ------------------------------------------------------------------ #
    # Unified-registry integration (pull-mode; see repro.observe.adapters)
    # ------------------------------------------------------------------ #
    def register_collector(self) -> str:
        """Expose this instance as the pull collector ``service`` in the default registry.

        Returns the actual collector name (auto-suffixed ``service_2``, ...
        when several services run in one process).  Idempotent per instance.
        """
        if self._collector_name is None:
            self._collector_name = get_registry().register_collector("service", self.snapshot)
        return self._collector_name

    def unregister_collector(self) -> None:
        """Remove this instance's pull collector (no-op when never registered)."""
        if self._collector_name is not None:
            get_registry().unregister_collector(self._collector_name)
        self._collector_name = None
