"""Unified observability: spans keep the time, collectors gather the counts.

Each fact is recorded once.  Counts live on the objects that make them —
each ``SolverService``'s own counters, the in-memory
``ArtifactCache.stats``, the on-disk ``disk_cache_stats()`` and the front
end's ``FrontendStats`` — and one
:class:`~repro.observe.registry.MetricsRegistry` pulls them, through
pull-mode collectors, into one document.  Time lives in the tracer's spans.

Three layers:

* **registry** — pull-mode *collectors* polled only at snapshot time;
  :class:`Reservoir` keeps the service's latency quantiles.
* **trace** — nestable spans (``with observe.span("inspect"): ...``)
  instrumenting ingest → probe → inspection → transform → codegen → cc →
  numeric → service dispatch, with explicit cross-thread
  propagation (:func:`capture` / :func:`attach`).  Zero-cost when disabled.
* **exporters** — JSON :func:`snapshot`, Chrome :func:`chrome_trace` /
  :func:`write_chrome_trace`, and Prometheus :func:`prometheus_text`
  (served by the service's ``metrics`` wire verb).

Tracing crosses process boundaries: :func:`wire_trace_headers` /
:func:`attach_remote` propagate a :class:`SpanContext` over the service
wire protocol, and ``ShardFleet.chrome_trace()`` merges every shard's
drained span buffer into one clock-offset-corrected Chrome trace.

The paper's amortization split (symbolic inspection and codegen against
numeric time, Figs. 8-9) is ``python -m repro.bench fig8`` / ``fig9`` /
``overheads``; a Chrome trace of a whole workload is
``benchmarks/e2e/run.py --trace 1``.
"""

from __future__ import annotations

from repro.observe.adapters import install_default_collectors
from repro.observe.exporters import (
    chrome_trace,
    chrome_trace_events,
    process_name_event,
    prometheus_text,
    relabel_prometheus_text,
    snapshot,
    write_chrome_trace,
)
from repro.observe.registry import (
    DEFAULT_RESERVOIR_SAMPLES,
    MetricsRegistry,
    Reservoir,
    get_registry,
    percentile,
)
from repro.observe.trace import (
    Span,
    SpanContext,
    attach,
    attach_remote,
    capture,
    disable,
    enable,
    enabled,
    get_tracer,
    reset,
    span,
    wire_trace_headers,
)

__all__ = [
    "DEFAULT_RESERVOIR_SAMPLES",
    "MetricsRegistry",
    "Reservoir",
    "Span",
    "SpanContext",
    "attach",
    "attach_remote",
    "capture",
    "chrome_trace",
    "chrome_trace_events",
    "disable",
    "enable",
    "enabled",
    "get_registry",
    "get_tracer",
    "percentile",
    "process_name_event",
    "prometheus_text",
    "relabel_prometheus_text",
    "reset",
    "snapshot",
    "span",
    "wire_trace_headers",
    "write_chrome_trace",
]

# The process-wide collectors (disk cache, shared artifact cache, frontend)
# are installed on first import; they cost nothing until a snapshot is taken.
install_default_collectors()
