"""Structured tracing: nestable, thread-safe spans over the whole pipeline.

A *span* is a named, timed region of work.  Spans nest through a
:class:`contextvars.ContextVar`, so ``with span("compile"): ...`` opened
inside ``with span("solve"): ...`` records ``solve`` as its parent without
any explicit plumbing.  Thread pools do **not** propagate context variables
into workers, so cross-thread attribution is explicit: the submitting side
calls :func:`capture` and the worker wraps its work in
``with attach(ctx): ...`` — the worker's spans then attach to the
submitting request's trace (this is how the pool threads of
:func:`~repro.solvers.linear_solver.map_items` stay attributable; the
service needs none of it, because each solve runs on its caller's thread).

Tracing is **zero-cost when disabled**: :func:`span` checks one module-level
flag and returns a shared no-op context manager, allocating nothing
(``tests/test_observe.py::TestSpans::test_disabled_is_shared_noop``).  The
enabled cost is measured end to end by ``benchmarks/e2e`` as
``observe.tracing_overhead_pct``.

Spans are the one record of time: the exporters read the finished spans
stored here.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional

__all__ = [
    "Span",
    "SpanContext",
    "Tracer",
    "attach",
    "attach_remote",
    "capture",
    "disable",
    "enable",
    "enabled",
    "get_tracer",
    "reset",
    "span",
    "wire_trace_headers",
]

DEFAULT_MAX_SPANS = 65536

_enabled = False


def _fresh_id_counter() -> "itertools.count[int]":
    # Span/trace ids must stay unique across *processes*: a fleet merge
    # (`ShardFleet.chrome_trace`) interleaves spans from every shard, and two
    # shards both counting 1, 2, 3… would alias unrelated spans.  The low 40
    # bits count locally; the high bits carry a per-process random tag (xor'd
    # with the pid so even clones of a forked RNG state diverge).
    tag = int.from_bytes(os.urandom(3), "big") ^ (os.getpid() & 0xFFFFFF)
    return itertools.count((((tag << 1) | 1) << 40) + 1)


_ids = _fresh_id_counter()


@dataclass(frozen=True)
class SpanContext:
    """An immutable handle to a live span, safe to pass across threads."""

    trace_id: int
    span_id: int
    name: str


# The innermost live span of the *current* context (thread / task), or None.
_CURRENT: ContextVar[Optional[SpanContext]] = ContextVar(
    "repro_observe_current_span", default=None
)


@dataclass
class Span:
    """One finished (or in-flight) timed region.

    ``start`` is a :func:`time.perf_counter` timestamp; ``wall_start`` is a
    :func:`time.time` epoch timestamp used only for export.  ``duration`` is
    seconds and stays 0.0 until the span closes.
    """

    name: str
    trace_id: int
    span_id: int
    parent_id: Optional[int]
    attrs: Dict[str, Any] = field(default_factory=dict)
    start: float = 0.0
    wall_start: float = 0.0
    duration: float = 0.0
    thread: str = ""

    # -- context-manager protocol -------------------------------------------
    def __enter__(self) -> "Span":
        self.start = time.perf_counter()
        self.wall_start = time.time()
        self.thread = threading.current_thread().name
        self._token = _CURRENT.set(
            SpanContext(trace_id=self.trace_id, span_id=self.span_id, name=self.name)
        )
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration = time.perf_counter() - self.start
        _CURRENT.reset(self._token)
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        get_tracer()._finish(self)
        return False

    def set(self, **attrs: Any) -> "Span":
        """Attach key/value attributes to the span (chainable)."""
        self.attrs.update(attrs)
        return self

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.wall_start,
            "duration_seconds": self.duration,
            "thread": self.thread,
            "attrs": dict(self.attrs),
        }


class _NoopSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self

    def as_dict(self) -> Dict[str, Any]:
        return {}


_NOOP = _NoopSpan()


class Tracer:
    """Bounded, thread-safe store of the last :data:`DEFAULT_MAX_SPANS` finished spans."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: Deque[Span] = deque(maxlen=DEFAULT_MAX_SPANS)

    def _finish(self, sp: Span) -> None:
        with self._lock:
            self._spans.append(sp)

    def spans(self) -> List[Span]:
        """A consistent copy of the finished spans, oldest first."""
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def drain(self) -> List[Span]:
        """Atomically snapshot-and-clear the finished spans, oldest first.

        This is what the ``trace`` wire verb serves: each drain hands the
        caller every span finished since the previous drain exactly once, so
        repeated fleet merges never duplicate shard spans.
        """
        with self._lock:
            spans = list(self._spans)
            self._spans.clear()
        return spans

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide tracer holding finished spans."""
    return _TRACER


def span(name: str, /, **attrs: Any):
    """Open a timed span; the primary instrumentation entry point.

    ``name`` is positional-only, so a span may carry an attribute called
    ``name`` (the ``ordering`` span records which ordering ran).

    Returns a context manager.  When tracing is disabled (the default) this
    is a single module-flag check returning a shared no-op object — the
    pipeline call sites stay in place at effectively zero cost.
    """
    if not _enabled:
        return _NOOP
    parent = _CURRENT.get()
    if parent is None:
        trace_id = next(_ids)
        parent_id = None
    else:
        trace_id = parent.trace_id
        parent_id = parent.span_id
    return Span(
        name=name,
        trace_id=trace_id,
        span_id=next(_ids),
        parent_id=parent_id,
        attrs=dict(attrs) if attrs else {},
    )


def capture() -> Optional[SpanContext]:
    """Snapshot the current span context for hand-off to another thread.

    Returns ``None`` when tracing is disabled or no span is open; passing
    that ``None`` to :func:`attach` is a no-op, so call sites never branch.
    """
    if not _enabled:
        return None
    return _CURRENT.get()


class _Attach:
    """Context manager installing a captured :class:`SpanContext` in this thread."""

    __slots__ = ("_ctx", "_token")

    def __init__(self, ctx: Optional[SpanContext]) -> None:
        self._ctx = ctx
        self._token = None

    def __enter__(self) -> Optional[SpanContext]:
        if self._ctx is not None and _enabled:
            self._token = _CURRENT.set(self._ctx)
        return self._ctx

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        return False


def attach(ctx: Optional[SpanContext]) -> _Attach:
    """Adopt a captured context so spans opened here join the captured trace.

    ``attach(None)`` (tracing disabled at capture time, or no open span) is
    a no-op context manager, so worker code wraps unconditionally.
    """
    return _Attach(ctx)


def wire_trace_headers() -> Dict[str, int]:
    """Header keys carrying the current span context across a process boundary.

    Returns ``{"trace_id": ..., "parent_id": ...}`` for the innermost open
    span, or ``{}`` when tracing is disabled or no span is open — so wire
    headers carry **no** trace keys unless there is something to propagate
    (the disabled hot path merges an empty dict).
    """
    if not _enabled:
        return {}
    ctx = _CURRENT.get()
    if ctx is None:
        return {}
    return {"trace_id": ctx.trace_id, "parent_id": ctx.span_id}


def attach_remote(
    trace_id: Optional[int], parent_id: Optional[int], name: str = "remote"
) -> _Attach:
    """Adopt a span context propagated from another process.

    The server side calls this with the ``trace_id``/``parent_id`` wire
    header values; spans opened under it join the remote caller's trace,
    parented at the caller's request span.  Missing/malformed ids or
    locally-disabled tracing degrade to a no-op context manager.
    """
    if not _enabled or not isinstance(trace_id, int) or not isinstance(parent_id, int):
        return _Attach(None)
    return _Attach(SpanContext(trace_id=trace_id, span_id=parent_id, name=name))


def enable() -> None:
    """Turn tracing on."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn tracing off; already-recorded spans are kept until :func:`reset`."""
    global _enabled
    _enabled = False


def enabled() -> bool:
    return _enabled


def reset() -> None:
    """Drop all recorded spans (flag state is left untouched)."""
    _TRACER.clear()
