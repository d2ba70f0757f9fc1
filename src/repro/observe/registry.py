"""The central metrics registry: labeled counters plus pull-mode collectors.

One process-wide :class:`MetricsRegistry` (:func:`get_registry`) is the
single aggregation point the four legacy stats surfaces plumb into:

* :class:`~repro.service.metrics.ServiceMetrics` — pushes its counters as a
  ``service`` collector (registered per :class:`~repro.service.session.SolverService`)
  and records latencies through this module's :class:`Reservoir`,
* :class:`~repro.compiler.cache.CacheStats` — pulled by the
  ``artifact_cache`` collector (the process-wide shared compiler cache),
* :class:`~repro.compiler.codegen.c_backend.DiskCacheStats` — pulled by the
  ``disk_cache`` collector,
* :class:`~repro.frontend.specialized.FrontendStats` — pulled by the
  ``frontend`` collector (the process-wide default front end).

Counters are created lazily and labeled
(``registry.counter("phase_seconds_total", phase="inspect")``; the tracer
keeps the phase counters); pull metrics are *collectors* — zero-overhead
adapters polled only at snapshot/export time, so the legacy surfaces keep
their exact APIs and hot paths while still appearing in one unified document
(:func:`~repro.observe.exporters.snapshot`, Prometheus text, the service's
``metrics`` wire verb).

Everything is thread-safe and stdlib-only.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = [
    "percentile",
    "Counter",
    "Reservoir",
    "MetricsRegistry",
    "get_registry",
    "DEFAULT_RESERVOIR_SAMPLES",
]

#: Samples kept per reservoir for quantile estimation (a sliding window;
#: enough for stable p95 under the smoke workloads without unbounded growth).
#: Re-homed here from ``repro.service.metrics`` so every surface shares one
#: quantile implementation.
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


class Counter:
    """A monotonically increasing (float-valued) counter."""

    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        """Add ``n`` (must be non-negative) to the counter."""
        if n < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self.value += n

    def get(self) -> float:
        with self._lock:
            return self.value


class Reservoir:
    """A bounded sliding-window sample reservoir with consistent quantiles.

    Re-homed from ``repro.service.metrics``: the latency deque, its running
    count/total and the quantile math now live behind one lock, and
    :meth:`quantiles` computes every requested percentile from **one**
    consistent copy of the samples taken under that lock — a snapshot can
    never mix samples from different moments into its p50 and p95.
    """

    __slots__ = ("_lock", "_samples", "count", "total")

    def __init__(self, maxlen: int = DEFAULT_RESERVOIR_SAMPLES, *, lock: Optional[threading.Lock] = None) -> None:
        # ``lock``: an owner's lock to share, so that it can record a sample
        # together with its own counters (observe_locked).
        self._lock = lock if lock is not None else threading.Lock()
        self._samples: deque = deque(maxlen=maxlen)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        with self._lock:
            self.observe_locked(value)

    def observe_locked(self, value: float) -> None:
        """:meth:`observe` for a caller already holding the reservoir's lock."""
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


LabeledKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _key(name: str, labels: Mapping[str, object]) -> LabeledKey:
    return (name, tuple(sorted((str(k), str(v)) for k, v in labels.items())))


def render_key(name: str, labels: Tuple[Tuple[str, str], ...]) -> str:
    """Render ``name{a="x",b="y"}`` (deterministic label order)."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Thread-safe registry of labeled counters plus pull-mode collectors.

    Counters are created lazily by :meth:`counter` — repeated calls with the
    same ``(name, labels)`` return the same object, so callsites keep no
    references.

    Collectors are named zero-argument callables returning a (possibly
    nested) dict of numbers; they are polled only by :meth:`collect` /
    :meth:`snapshot` / :meth:`to_prometheus`, never on a hot path.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[LabeledKey, Counter] = {}
        self._collectors: Dict[str, Callable[[], Mapping]] = {}

    # ------------------------------------------------------------------ #
    def counter(self, name: str, **labels) -> Counter:
        """Get or create one labeled counter."""
        key = _key(name, labels)
        with self._lock:
            counter = self._counters.get(key)
            if counter is None:
                counter = self._counters[key] = Counter()
            return counter

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
        """One deterministic JSON-friendly view of every counter + collector."""
        with self._lock:
            items = sorted(self._counters.items())
        return {
            "counters": {render_key(name, labels): counter.get() for (name, labels), counter in items},
            "collectors": self.collect(),
        }

    def reset(self) -> None:
        """Drop every counter (collectors stay registered); tests only."""
        with self._lock:
            self._counters.clear()

    # ------------------------------------------------------------------ #
    def to_prometheus(self, prefix: str = "repro") -> str:
        """Prometheus text exposition (version 0.0.4) of the whole registry.

        Counters export under their own names; collector values flatten to
        gauges named ``<prefix>_<collector>_<key>``.  Output is sorted and
        deterministic for a fixed registry state.
        """
        with self._lock:
            items = sorted(self._counters.items())
        lines: List[str] = []
        typed: set = set()

        def emit_type(name: str, kind: str) -> None:
            if name not in typed:
                typed.add(name)
                lines.append(f"# TYPE {name} {kind}")

        for (name, labels), counter in items:
            full = _prom_name(f"{prefix}_{name}")
            emit_type(full, "counter")
            lines.append(f"{full}{_prom_labels(labels)} {_prom_num(counter.get())}")
        for cname, values in self.collect().items():
            for key, value in sorted(_flatten(values).items()):
                if isinstance(value, bool):
                    value = float(value)
                elif not isinstance(value, (int, float)):
                    continue  # strings (backend names, errors) stay JSON-only
                full = _prom_name(f"{prefix}_{cname}_{key}")
                emit_type(full, "gauge")
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


def _prom_labels(labels: Tuple[Tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{_prom_name(k)}="{_escape(v)}"' for k, v in labels)
    return f"{{{inner}}}"


def _escape(value: str) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _prom_num(value: float) -> str:
    f = float(value)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


#: The process-wide default registry every adapter and span plumbs into.
_DEFAULT_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide :class:`MetricsRegistry`."""
    return _DEFAULT_REGISTRY
