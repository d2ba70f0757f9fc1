"""Unified observability: metrics registry, pipeline tracing, exporters.

This package is the one place timing and counters live.  It replaces four
ad-hoc surfaces that grew organically (``repro.service.metrics``'s
``ServiceMetrics``, the in-memory ``ArtifactCache.stats``, the on-disk
``disk_cache_stats()``, and the frontend's ``FrontendStats``) — all four
keep their public APIs but are now visible through one
:class:`~repro.observe.registry.MetricsRegistry` via pull-mode adapters.

Three layers:

* **registry** — labeled counters
  (``registry.counter("solves", kernel="cholesky")``), plus pull-mode
  *collectors* polled only at snapshot time; :class:`Reservoir` keeps the
  service's latency quantiles.
* **trace** — nestable spans (``with observe.span("inspect"): ...``)
  instrumenting ingest → probe → inspection → transform → codegen → cc →
  numeric → service dispatch, with explicit cross-thread
  propagation (:func:`capture` / :func:`attach`).  Zero-cost when disabled.
* **events** — a bounded structured event log
  (:func:`get_event_log` / :func:`emit_event`) recording fleet lifecycle
  edges (shard spawn/death/failover, re-registration, eviction, admission
  rejection, compile cold/warm, stale-lock breaks) plus sampled
  slow-request span trees; optional JSON-lines sink.
* **exporters** — JSON :func:`snapshot`, Chrome :func:`chrome_trace`,
  Prometheus :func:`prometheus_text` (served by the service's ``metrics``
  wire verb), and the paper's Fig. 8/9 amortization :func:`breakdown`.

Tracing crosses process boundaries: :func:`wire_trace_headers` /
:func:`attach_remote` propagate a :class:`SpanContext` over the service
wire protocol, and ``ShardFleet.chrome_trace()`` merges every shard's
drained span buffer into one clock-offset-corrected Chrome trace.

``python -m repro.observe`` runs a scripted workload with tracing on and
prints the accumulated per-phase breakdown (inspection vs. codegen vs. cc
vs. numeric) — the paper's amortization argument, reproduced live.
"""

from __future__ import annotations

from repro.observe.adapters import install_default_collectors
from repro.observe.events import (
    Event,
    EventLog,
    configure_events,
    emit_event,
    get_event_log,
)
from repro.observe.exporters import (
    PHASE_GROUPS,
    breakdown,
    chrome_trace,
    chrome_trace_events,
    format_breakdown,
    phase_totals,
    process_name_event,
    prometheus_text,
    relabel_prometheus_text,
    snapshot,
    write_chrome_trace,
)
from repro.observe.registry import (
    DEFAULT_RESERVOIR_SAMPLES,
    Counter,
    MetricsRegistry,
    Reservoir,
    get_registry,
    percentile,
)
from repro.observe.trace import (
    Span,
    SpanContext,
    Tracer,
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
    "Counter",
    "DEFAULT_RESERVOIR_SAMPLES",
    "Event",
    "EventLog",
    "MetricsRegistry",
    "PHASE_GROUPS",
    "Reservoir",
    "Span",
    "SpanContext",
    "Tracer",
    "attach",
    "attach_remote",
    "breakdown",
    "capture",
    "chrome_trace",
    "chrome_trace_events",
    "configure_events",
    "disable",
    "emit_event",
    "enable",
    "enabled",
    "format_breakdown",
    "get_event_log",
    "get_registry",
    "get_tracer",
    "install_default_collectors",
    "percentile",
    "phase_totals",
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
