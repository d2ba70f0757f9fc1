"""Structured event log: bounded, thread-safe record of fleet lifecycle edges.

Spans answer *"where did the time go"*; events answer *"what happened"*.
Every lifecycle edge in the serving stack emits one :class:`Event` here —
shard spawn/death/failover, warm/cold re-registration, artifact eviction,
admission rejection, compile cold/warm, stale-lock breaks in
``build_file_once`` — plus sampled slow requests that keep their full span
tree as a payload.

The log is a fixed-size in-memory ring (oldest events fall off) with an
optional JSON-lines sink for durable capture.  Emitting is cheap and never
raises: a broken sink disables itself rather than failing the serving path.
Unlike tracing there is no global enable flag — lifecycle edges are rare
(per-shard, per-compile, per-eviction; never per-solve), so recording them
unconditionally costs nothing measurable, and the ring means an idle
process holds at most ``max_events`` small dicts.

Schema (one JSON object per line in the sink, same shape from
:meth:`Event.as_dict`)::

    {"kind": "shard_death", "wall_time": 1754650000.123, "seq": 17,
     "attrs": {"slot": 1, "generation": 0}}

``kind`` is a small closed vocabulary (see the emit sites); ``attrs`` is
kind-specific.  ``seq`` is a process-local monotonic sequence number so
readers can order events emitted within one wall-clock tick.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional

__all__ = [
    "DEFAULT_MAX_EVENTS",
    "DEFAULT_SLOW_REQUEST_SECONDS",
    "Event",
    "EventLog",
    "emit",
    "emit_event",
    "get_event_log",
]

DEFAULT_MAX_EVENTS = 4096

# Requests slower than this keep their span tree as an event payload; chosen
# well above a warm service solve (~ms) so steady state samples nothing.
DEFAULT_SLOW_REQUEST_SECONDS = 1.0


@dataclass(frozen=True)
class Event:
    """One structured lifecycle event."""

    kind: str
    wall_time: float
    seq: int
    attrs: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "wall_time": self.wall_time,
            "seq": self.seq,
            "attrs": dict(self.attrs),
        }


class EventLog:
    """Bounded thread-safe event ring with an optional JSON-lines sink."""

    def __init__(
        self,
        max_events: int = DEFAULT_MAX_EVENTS,
        *,
        jsonl_path: Optional[str] = None,
        slow_request_seconds: Optional[float] = DEFAULT_SLOW_REQUEST_SECONDS,
    ) -> None:
        self._lock = threading.Lock()
        self._events: Deque[Event] = deque(maxlen=max_events)
        self._seq = 0
        self._jsonl_path = jsonl_path
        self._sink_broken = False
        self.slow_request_seconds = slow_request_seconds

    # -- recording ----------------------------------------------------------
    def emit(self, kind: str, **attrs: Any) -> Event:
        """Record one event; never raises (a broken sink disables itself)."""
        with self._lock:
            self._seq += 1
            event = Event(kind=kind, wall_time=time.time(), seq=self._seq, attrs=attrs)
            self._events.append(event)
            path = None if self._sink_broken else self._jsonl_path
        if path is not None:
            try:
                line = json.dumps(event.as_dict(), sort_keys=True, default=repr)
                with open(path, "a", encoding="utf-8") as fh:
                    fh.write(line + "\n")
            except (OSError, TypeError, ValueError):
                with self._lock:
                    self._sink_broken = True
        return event

    # -- reading ------------------------------------------------------------
    def events(self, kind: Optional[str] = None) -> List[Event]:
        """A consistent copy, oldest first; optionally filtered by ``kind``."""
        with self._lock:
            events = list(self._events)
        if kind is not None:
            events = [ev for ev in events if ev.kind == kind]
        return events

    def kinds(self) -> Dict[str, int]:
        """Event count per kind (for asserts and the health surface)."""
        counts: Dict[str, int] = {}
        for ev in self.events():
            counts[ev.kind] = counts.get(ev.kind, 0) + 1
        return counts

    def clear(self) -> None:
        with self._lock:
            self._events.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    # -- configuration ------------------------------------------------------
    def configure(
        self,
        *,
        jsonl_path: Optional[str] = None,
        slow_request_seconds: Optional[float] = None,
    ) -> None:
        """Point the sink at a JSONL file and/or adjust the slow threshold.

        ``jsonl_path=None`` leaves the sink unchanged; pass ``""`` to detach
        it.  ``slow_request_seconds=None`` leaves the threshold unchanged;
        pass ``float("inf")`` to disable slow-request sampling.
        """
        with self._lock:
            if jsonl_path is not None:
                self._jsonl_path = jsonl_path or None
                self._sink_broken = False
        if slow_request_seconds is not None:
            self.slow_request_seconds = slow_request_seconds


_LOG = EventLog()


def get_event_log() -> EventLog:
    """The process-wide event log."""
    return _LOG


def emit(kind: str, **attrs: Any) -> Event:
    """Record one event on the process-wide log."""
    return _LOG.emit(kind, **attrs)


# Unambiguous alias for the package-level namespace (`repro.observe.emit`
# would read as emitting a metric or a span; this doesn't).
emit_event = emit
