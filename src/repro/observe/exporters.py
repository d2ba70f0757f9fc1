"""Export surfaces: JSON snapshot, Chrome trace events, Prometheus text.

Three consumers, two sources: the registry's collectors hold the counts, the
tracer's spans hold the time.

* :func:`snapshot` — a JSON-serialisable document with every pull-collector
  output (``{"collectors"}``).  This is what ``cache_probe --json`` embeds
  and what tests assert against.
* :func:`chrome_trace` / :func:`write_chrome_trace` — the Chrome
  ``chrome://tracing`` / Perfetto trace-event format (``ph: "X"`` complete
  events, microsecond timestamps) built from the tracer's finished spans.
* :func:`prometheus_text` — the Prometheus text exposition format (0.0.4),
  served live by the service's ``metrics`` wire verb.

The paper's Fig. 8/9 split of symbolic against numeric time is reported by
``python -m repro.bench fig8`` / ``fig9`` / ``overheads``.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, List, Optional, Sequence

from repro.observe.registry import get_registry
from repro.observe.trace import get_tracer

__all__ = [
    "chrome_trace",
    "chrome_trace_events",
    "process_name_event",
    "prometheus_text",
    "relabel_prometheus_text",
    "snapshot",
    "write_chrome_trace",
]


def snapshot() -> Dict[str, Any]:
    """One JSON-serialisable document over the whole default registry."""
    return get_registry().snapshot()


def prometheus_text() -> str:
    """The default registry as Prometheus text exposition (format version 0.0.4)."""
    return get_registry().to_prometheus()


def _escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format (backslash first)."""
    return value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')


# Consumes whole name="value" pairs left to right, so a `name=` fragment
# *inside* a quoted value is never mistaken for a label of its own.
_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)\s*=\s*"(?:[^"\\]|\\.)*"')


def _split_sample(line: str) -> Optional[tuple]:
    """Split one exposition sample into ``(name, label_body_or_None, rest)``.

    The label block is found by scanning from the first ``{`` with
    quote/escape awareness — a label *value* may legally contain ``{``,
    ``}``, spaces, quotes and backslashes, so naive ``rsplit``/``endswith``
    parsing corrupts such lines.  Returns ``None`` for malformed samples
    (unterminated label block, no value).
    """
    brace = line.find("{")
    space = line.find(" ")
    if brace == -1 or (space != -1 and space < brace):
        name, sep, rest = line.partition(" ")
        if not sep or not name:
            return None
        return name, None, rest.strip()
    i = brace + 1
    in_quotes = False
    escaped = False
    while i < len(line):
        ch = line[i]
        if escaped:
            escaped = False
        elif ch == "\\":
            escaped = True
        elif ch == '"':
            in_quotes = not in_quotes
        elif ch == "}" and not in_quotes:
            rest = line[i + 1 :].strip()
            if not rest:
                return None
            return line[:brace], line[brace + 1 : i], rest
        i += 1
    return None


def relabel_prometheus_text(text: str, **labels: str) -> str:
    """Add ``labels`` to every sample in Prometheus exposition ``text``.

    The fleet uses this to merge per-shard ``metrics`` verb output
    into one scrape page: each shard's samples gain a ``shard="i"`` label so
    identically-named series stay distinguishable.  Pre-existing labels on a
    sample are preserved (and win over an added label of the same name —
    relabelling never silently rewrites a series' own identity); added label
    values are escaped per the exposition format (``\\``, ``"``, newline).
    ``# HELP``/``# TYPE`` comment lines are kept but deduplicated (each
    shard ships its own copy of the same metadata); blank and malformed
    lines are dropped/passed through respectively.
    """
    if not labels:
        return text
    out: List[str] = []
    seen_comments = set()
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            if stripped not in seen_comments:
                seen_comments.add(stripped)
                out.append(stripped)
            continue
        parsed = _split_sample(stripped)
        if parsed is None:
            out.append(stripped)
            continue
        name, label_body, rest = parsed
        existing = (label_body or "").strip().rstrip(",")
        existing_names = set(_LABEL_PAIR_RE.findall(existing))
        added = ",".join(
            f'{k}="{_escape_label_value(str(v))}"'
            for k, v in sorted(labels.items())
            if k not in existing_names
        )
        merged = ",".join(part for part in (existing, added) if part)
        out.append(f"{name}{{{merged}}} {rest}")
    return "\n".join(out) + "\n"


def chrome_trace_events(
    span_dicts: Sequence[Dict[str, Any]],
    *,
    pid: int = 1,
    clock_offset: float = 0.0,
) -> List[Dict[str, Any]]:
    """Span dicts (:meth:`Span.as_dict` shape) → Chrome complete events.

    The cross-process building block behind :func:`chrome_trace` and
    :meth:`ShardFleet.chrome_trace`: ``pid`` places the spans in their own
    process track, and ``clock_offset`` (seconds the *span producer's* wall
    clock runs ahead of the merger's) is subtracted from each timestamp so
    spans from differently-clocked processes line up on one timeline.
    """
    events: List[Dict[str, Any]] = []
    for sp in span_dicts:
        args = dict(sp.get("attrs") or {})
        args["trace_id"] = sp.get("trace_id")
        if sp.get("parent_id") is not None:
            args["parent_id"] = sp["parent_id"]
        events.append(
            {
                "name": sp.get("name", "?"),
                "ph": "X",
                "ts": (float(sp.get("start", 0.0)) - clock_offset) * 1e6,
                "dur": float(sp.get("duration_seconds", 0.0)) * 1e6,
                "pid": pid,
                "tid": sp.get("thread") or "main",
                "cat": "repro",
                "args": args,
            }
        )
    return events


def process_name_event(pid: int, name: str) -> Dict[str, Any]:
    """A ``process_name`` metadata record labelling ``pid``'s track."""
    return {
        "name": "process_name",
        "ph": "M",
        "pid": pid,
        "args": {"name": name},
    }


def chrome_trace() -> Dict[str, Any]:
    """The tracer's spans as a Chrome trace-event document.

    Loadable in ``chrome://tracing`` or https://ui.perfetto.dev.  Spans are
    complete events (``ph: "X"``); timestamps/durations are microseconds;
    each thread renders as its own row (``tid`` = thread name).  Single
    process (``pid: 1``); the fleet-wide merge lives in
    :meth:`ShardFleet.chrome_trace`.
    """
    spans = get_tracer().spans()
    events = chrome_trace_events([sp.as_dict() for sp in spans], pid=1)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path) -> None:
    """Serialise :func:`chrome_trace` to ``path`` as JSON."""
    doc = chrome_trace()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=None, separators=(",", ":"), sort_keys=True)
