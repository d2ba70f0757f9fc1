"""The central metrics registry: pull-mode collectors over the counters.

Counts live on the objects that make them; one process-wide
:class:`MetricsRegistry` (:func:`get_registry`) pulls them into one
document.  Its collectors read four per-object counter surfaces:

* :class:`~repro.service.session.SolverService` — its own counters, as a
  ``service`` collector registered per instance; it records latencies
  through this module's :class:`Reservoir`, under its own lock,
* :class:`~repro.compiler.cache.CacheStats` — pulled by the
  ``artifact_cache`` collector (the process-wide shared compiler cache),
* :class:`~repro.compiler.codegen.c_backend.DiskCacheStats` — pulled by the
  ``disk_cache`` collector,
* :class:`~repro.frontend.specialized.FrontendStats` — pulled by the
  ``frontend`` collector (the process-wide default front end).

The registry holds no counter of its own: *collectors* are zero-overhead
adapters polled only at snapshot/export time, so the counter surfaces keep
their exact APIs and hot paths while still appearing in one document
(:func:`~repro.observe.exporters.snapshot`, Prometheus text, the service's
``metrics`` wire verb).  Time is not counted here: it is the tracer's spans
(:mod:`repro.observe.trace`).

Everything is thread-safe and stdlib-only.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = [
    "percentile",
    "Reservoir",
    "MetricsRegistry",
    "get_registry",
    "DEFAULT_RESERVOIR_SAMPLES",
]

#: Samples kept per reservoir for quantile estimation (a sliding window;
#: enough for stable p95 under the smoke workloads without unbounded growth).
DEFAULT_RESERVOIR_SAMPLES = 4096


def percentile(samples: List[float], q: float) -> float:
    """The ``q``-th percentile (0..100) of ``samples`` by linear interpolation.

    Stdlib-only (the wire layer keeps numpy out of metric aggregation so a
    thin monitoring client could reuse it); empty input returns 0.0.
    """
    if not samples:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise ValueError("percentile q must be within [0, 100]")
    ordered = sorted(samples)
    return _percentile_sorted(ordered, q)


def _percentile_sorted(ordered: List[float], q: float) -> float:
    """Percentile of an already-sorted sample list (shared sort amortized)."""
    if not ordered:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise ValueError("percentile q must be within [0, 100]")
    if len(ordered) == 1:
        return ordered[0]
    pos = (q / 100.0) * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


class Reservoir:
    """A bounded sliding-window sample reservoir with consistent quantiles.

    The latency deque, its running count/total and the quantile math live
    behind one lock, and :meth:`quantiles` computes every requested
    percentile from **one** consistent copy of the samples taken under that
    lock — a snapshot can never mix samples from different moments into its
    p50 and p95.
    """

    __slots__ = ("_lock", "_samples", "count", "total")

    def __init__(self, maxlen: int = DEFAULT_RESERVOIR_SAMPLES, *, lock: Optional[threading.Lock] = None) -> None:
        # ``lock``: an owner's lock to share, so that it can record a sample
        # together with its own counters (observe_locked).
        self._lock = lock if lock is not None else threading.Lock()
        self._samples: deque = deque(maxlen=maxlen)
        self.count = 0
        self.total = 0.0

    def observe_locked(self, value: float) -> None:
        """Record one sample; the caller holds the reservoir's lock (the one it passed as ``lock``)."""
        value = float(value)
        self._samples.append(value)
        self.count += 1
        self.total += value

    def snapshot(self) -> Tuple[List[float], int, float]:
        """One consistent ``(samples, count, total)`` copy under the lock."""
        with self._lock:
            return list(self._samples), self.count, self.total

    def quantiles(self, qs: Iterable[float]) -> Dict[float, float]:
        """Percentiles computed from one consistent sample copy, sorted once."""
        samples, _, _ = self.snapshot()
        ordered = sorted(samples)
        return {float(q): _percentile_sorted(ordered, float(q)) for q in qs}

    def summary(self, qs: Iterable[float] = (50.0, 95.0)) -> Dict[str, float]:
        """Count/mean plus the requested percentiles, all from one copy."""
        samples, count, total = self.snapshot()
        ordered = sorted(samples)
        out: Dict[str, float] = {
            "count": count,
            "mean_seconds": (total / count) if count else 0.0,
        }
        for q in qs:
            key = f"p{int(q) if float(q).is_integer() else q}_seconds"
            out[key] = _percentile_sorted(ordered, float(q))
        return out


class MetricsRegistry:
    """Thread-safe registry of pull-mode collectors.

    Collectors are named zero-argument callables returning a (possibly
    nested) dict of numbers; they are polled only by :meth:`collect` /
    :meth:`snapshot` / :meth:`to_prometheus`, never on a hot path.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._collectors: Dict[str, Callable[[], Mapping]] = {}

    # ------------------------------------------------------------------ #
    def register_collector(
        self,
        name: str,
        fn: Callable[[], Mapping],
        *,
        replace: bool = False,
    ) -> str:
        """Register a pull-mode collector; returns the name actually used.

        A taken name gets a ``_2``/``_3``... suffix unless ``replace=True``
        (used by the idempotent default adapters), so several service
        instances can coexist in one registry.
        """
        with self._lock:
            actual = name
            if not replace:
                i = 2
                while actual in self._collectors:
                    actual = f"{name}_{i}"
                    i += 1
            self._collectors[actual] = fn
            return actual

    def unregister_collector(self, name: str) -> bool:
        with self._lock:
            return self._collectors.pop(name, None) is not None

    def collect(self) -> Dict[str, Dict[str, object]]:
        """Poll every collector; a raising collector contributes its error."""
        with self._lock:
            collectors = dict(self._collectors)
        out: Dict[str, Dict[str, object]] = {}
        for name in sorted(collectors):
            try:
                out[name] = dict(collectors[name]())
            except Exception as exc:  # never let one adapter break a scrape
                out[name] = {"collector_error": f"{type(exc).__name__}: {exc}"}
        return out

    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, object]:
        """One deterministic JSON-friendly view of every collector."""
        return {"collectors": self.collect()}

    def to_prometheus(self) -> str:
        """Prometheus text exposition (version 0.0.4) of every collector.

        Collector values flatten to gauges named ``repro_<collector>_<key>``.
        Output is sorted and deterministic for a fixed registry state.
        """
        lines: List[str] = []
        typed: set = set()
        for cname, values in self.collect().items():
            for key, value in sorted(_flatten(values).items()):
                if isinstance(value, bool):
                    value = float(value)
                elif not isinstance(value, (int, float)):
                    continue  # strings (backend names, errors) stay JSON-only
                full = _prom_name(f"repro_{cname}_{key}")
                if full not in typed:
                    typed.add(full)
                    lines.append(f"# TYPE {full} gauge")
                lines.append(f"{full} {_prom_num(value)}")
        return "\n".join(lines) + "\n"


def _flatten(values: Mapping, prefix: str = "") -> Dict[str, object]:
    """Flatten nested collector dicts: ``{"a": {"b": 1}}`` → ``{"a_b": 1}``."""
    out: Dict[str, object] = {}
    for key, value in values.items():
        name = f"{prefix}{key}"
        if isinstance(value, Mapping):
            out.update(_flatten(value, f"{name}_"))
        else:
            out[name] = value
    return out


def _prom_name(name: str) -> str:
    return "".join(c if (c.isalnum() or c in "_:") else "_" for c in name)


def _prom_num(value: float) -> str:
    f = float(value)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


#: The process-wide default registry every adapter plumbs into.
_DEFAULT_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide :class:`MetricsRegistry`."""
    return _DEFAULT_REGISTRY
