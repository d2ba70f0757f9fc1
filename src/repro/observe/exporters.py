"""Export surfaces: JSON snapshot, Chrome trace events, Prometheus text,
and the paper's amortization breakdown.

Three consumers, one source of truth (the default registry + tracer):

* :func:`snapshot` — a JSON-serialisable document with every counter and
  pull-collector output (``{"counters", "collectors"}``).  This is what
  ``cache_probe --json`` embeds and what tests assert against.
* :func:`chrome_trace` / :func:`write_chrome_trace` — the Chrome
  ``chrome://tracing`` / Perfetto trace-event format (``ph: "X"`` complete
  events, microsecond timestamps) built from the tracer's finished spans.
* :func:`prometheus_text` — the Prometheus text exposition format (0.0.4),
  served live by the service's ``metrics`` wire verb.

:func:`breakdown` reduces the per-phase counters into the paper's Fig. 8/9
accumulated-time groups (inspection / lowering / codegen / cc / numeric /
serving), and :func:`format_breakdown` renders it as the table
``python -m repro.observe`` prints.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, List, Optional, Sequence

from repro.observe.registry import MetricsRegistry, get_registry
from repro.observe.trace import Tracer, get_tracer

__all__ = [
    "PHASE_GROUPS",
    "breakdown",
    "chrome_trace",
    "chrome_trace_events",
    "format_breakdown",
    "phase_totals",
    "process_name_event",
    "prometheus_text",
    "relabel_prometheus_text",
    "snapshot",
    "write_chrome_trace",
]

# The paper's amortization story groups leaf phases into the Fig. 8/9
# categories.  Only *leaf* span names appear here — parent spans like
# "compile" (which wraps inspect/transform/codegen) and nested detail
# spans like "native-build" (inside whichever of "ordering" / "inspect" first
# needs the helper) are excluded so a group never double-counts its own
# children.
PHASE_GROUPS: Dict[str, tuple] = {
    "ingest": ("ingest", "probe"),
    "inspection": ("ordering", "inspect"),
    "lowering": ("transform",),
    "codegen": ("codegen", "py-compile"),
    "cc": ("cc",),
    "numeric": ("numeric",),
    "serving": ("dispatch",),
}

# Groups whose sum is the paper's one-time *symbolic* cost; "numeric" is the
# per-solve cost it amortizes against.
SYMBOLIC_GROUPS = ("inspection", "lowering", "codegen", "cc")


def snapshot(registry: Optional[MetricsRegistry] = None) -> Dict[str, Any]:
    """One JSON-serialisable document over the whole registry."""
    return (registry or get_registry()).snapshot()


def prometheus_text(
    registry: Optional[MetricsRegistry] = None, *, prefix: str = "repro"
) -> str:
    """Prometheus text exposition (format version 0.0.4)."""
    return (registry or get_registry()).to_prometheus(prefix=prefix)


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

    The fleet router uses this to merge per-shard ``metrics`` verb output
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


def phase_totals(registry: Optional[MetricsRegistry] = None) -> Dict[str, Dict[str, float]]:
    """Accumulated seconds and call counts per span name.

    Returns ``{phase: {"seconds": s, "calls": n}}`` pulled from the
    ``phase_seconds_total`` / ``phase_calls_total`` counters the tracer
    maintains.
    """
    reg = registry or get_registry()
    snap = reg.snapshot()
    totals: Dict[str, Dict[str, float]] = {}
    for key, value in snap.get("counters", {}).items():
        for base, field in (("phase_seconds_total", "seconds"), ("phase_calls_total", "calls")):
            marker = base + '{phase="'
            if key.startswith(marker) and key.endswith('"}'):
                phase = key[len(marker) : -2]
                totals.setdefault(phase, {"seconds": 0.0, "calls": 0.0})[field] = value
    return totals


def breakdown(registry: Optional[MetricsRegistry] = None) -> Dict[str, Any]:
    """The amortization breakdown: accumulated seconds per paper phase group.

    Returns ``{"groups": {group: {"seconds", "calls", "phases": {...}}},
    "symbolic_seconds", "numeric_seconds", "amortization_ratio", "other": {...}}``.
    ``amortization_ratio`` is symbolic/numeric — how many "numeric units" the
    one-time inspection+compilation cost is worth (the paper's break-even
    count); 0.0 when no numeric time was recorded.
    """
    totals = phase_totals(registry)
    grouped_phases = {p for phases in PHASE_GROUPS.values() for p in phases}
    groups: Dict[str, Any] = {}
    for group, phases in PHASE_GROUPS.items():
        present = {p: totals[p] for p in phases if p in totals}
        groups[group] = {
            "seconds": sum(v["seconds"] for v in present.values()),
            "calls": sum(v["calls"] for v in present.values()),
            "phases": {p: dict(v) for p, v in sorted(present.items())},
        }
    symbolic = sum(groups[g]["seconds"] for g in SYMBOLIC_GROUPS)
    numeric = groups["numeric"]["seconds"]
    other = {p: dict(v) for p, v in sorted(totals.items()) if p not in grouped_phases}
    return {
        "groups": groups,
        "symbolic_seconds": symbolic,
        "numeric_seconds": numeric,
        "amortization_ratio": (symbolic / numeric) if numeric > 0.0 else 0.0,
        "other": other,
    }


def format_breakdown(data: Optional[Dict[str, Any]] = None) -> str:
    """Render :func:`breakdown` as the aligned table the CLI prints."""
    data = data if data is not None else breakdown()
    groups = data["groups"]
    total = sum(g["seconds"] for g in groups.values())
    lines = []
    header = f"{'phase':<12} {'seconds':>12} {'calls':>8} {'share':>7}"
    lines.append(header)
    lines.append("-" * len(header))
    for name, g in groups.items():
        share = (100.0 * g["seconds"] / total) if total > 0 else 0.0
        lines.append(f"{name:<12} {g['seconds']:>12.6f} {int(g['calls']):>8d} {share:>6.1f}%")
        for phase, v in g["phases"].items():
            lines.append(
                f"  {phase:<10} {v['seconds']:>12.6f} {int(v['calls']):>8d}"
            )
    lines.append("-" * len(header))
    lines.append(f"{'total':<12} {total:>12.6f}")
    sym, num = data["symbolic_seconds"], data["numeric_seconds"]
    lines.append(
        f"symbolic (inspection+lowering+codegen+cc): {sym:.6f}s"
        f"   numeric: {num:.6f}s"
    )
    if num > 0:
        lines.append(
            f"amortization: symbolic cost = {data['amortization_ratio']:.2f}x "
            "the accumulated numeric time so far"
        )
    return "\n".join(lines)


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


def chrome_trace(tracer: Optional[Tracer] = None) -> Dict[str, Any]:
    """The tracer's spans as a Chrome trace-event document.

    Loadable in ``chrome://tracing`` or https://ui.perfetto.dev.  Spans are
    complete events (``ph: "X"``); timestamps/durations are microseconds;
    each thread renders as its own row (``tid`` = thread name).  Single
    process (``pid: 1``); the fleet-wide merge lives in
    :meth:`ShardFleet.chrome_trace`.
    """
    spans = (tracer or get_tracer()).spans()
    events = chrome_trace_events([sp.as_dict() for sp in spans], pid=1)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path, tracer: Optional[Tracer] = None) -> None:
    """Serialise :func:`chrome_trace` to ``path`` as JSON."""
    doc = chrome_trace(tracer)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=None, separators=(",", ":"), sort_keys=True)
