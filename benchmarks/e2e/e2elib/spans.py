"""The benchmark's own spans around every public call it makes.

Spans are kept in memory and written out once, in Chrome-trace form, when the
run ends.  With tracing off :meth:`Recorder.timed` is one ``perf_counter``
pair around the call and records nothing else.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Dict, List


class Recorder:
    """Times calls; when tracing, also keeps a span tree with step ids."""

    def __init__(self, tracing: bool) -> None:
        self.tracing = tracing
        self.spans: List[dict] = []
        self._local = threading.local()
        self._ids = iter(range(1, 1 << 62))
        self._id_lock = threading.Lock()
        # perf_counter -> epoch offset, so these spans share a time axis with
        # the program's own spans (which export time.time()).
        self._epoch = time.time() - time.perf_counter()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **args):
        """Open a span under the innermost open span of this thread."""
        if not self.tracing:
            yield
            return
        with self._id_lock:
            span_id = next(self._ids)
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = {"name": name, "id": span_id, "parent": parent["id"] if parent else None}
        # A step id is inherited by everything the step calls.
        step = args.pop("step", parent["step"] if parent else None)
        record["step"] = step
        record["args"] = args
        record["thread"] = threading.current_thread().name
        stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def adopt(self, parent):
        """Make ``parent`` (a span open in another thread) this thread's root."""
        if parent is not None:
            self._stack().append(parent)

    def current(self) -> dict:
        return self._stack()[-1]

    def timed(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` (inside a span when tracing); returns ``(result, seconds)``."""
        if not self.tracing:
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
        else:
            with self.span(name):
                t0 = time.perf_counter()
                out = fn(*args, **kwargs)
                dt = time.perf_counter() - t0
        return out, dt

    def chrome_events(self, pid: int) -> List[dict]:
        events = []
        for sp in self.spans:
            args = dict(sp["args"], span_id=sp["id"])
            if sp["parent"] is not None:
                args["parent_id"] = sp["parent"]
            if sp["step"] is not None:
                args["step"] = sp["step"]
            events.append(
                {
                    "name": sp["name"],
                    "ph": "X",
                    "ts": (sp["start"] + self._epoch) * 1e6,
                    "dur": (sp["end"] - sp["start"]) * 1e6,
                    "pid": pid,
                    "tid": sp["thread"],
                    "cat": "bench",
                    "args": args,
                }
            )
        return events


def nesting_errors(events: List[dict]) -> List[str]:
    """Benchmark spans whose parent is missing or does not contain them."""
    bench = {(e["pid"], e["args"]["span_id"]): e for e in events if e.get("cat") == "bench"}
    errors = []
    for (pid, span_id), event in bench.items():
        parent_id = event["args"].get("parent_id")
        if parent_id is None:
            continue
        parent = bench.get((pid, parent_id))
        if parent is None:
            errors.append(f"span {event['name']}#{span_id} has no parent span {parent_id}")
            continue
        # One microsecond of slack for float rounding of ts/dur.
        inside = (
            parent["ts"] - 1.0 <= event["ts"]
            and event["ts"] + event["dur"] <= parent["ts"] + parent["dur"] + 1.0
        )
        if not inside:
            errors.append(f"span {event['name']}#{span_id} is not inside {parent['name']}")
    return errors


def write_chrome_trace(path, events: List[dict], process_names: Dict[int, str]) -> None:
    meta = [
        {"name": "process_name", "ph": "M", "pid": pid, "args": {"name": name}}
        for pid, name in process_names.items()
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": meta + events, "displayTimeUnit": "ms"}, fh, separators=(",", ":"))
