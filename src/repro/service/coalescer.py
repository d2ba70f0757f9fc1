"""Micro-batched request coalescing: same-pattern solves share one dispatch.

N concurrent requests on one registered pattern can share one dispatch —
one wake-up of the dispatcher, one response block, one batch span — instead
of N.  The :class:`Coalescer` makes that happen transparently: requests
enqueue into a per-pattern queue, and a dispatcher thread flushes each queue
when it reaches ``max_batch`` or its oldest request has waited
``window_seconds`` — classic micro-batching.  A zero window still coalesces
whatever accumulated while the dispatcher was busy (natural batching under
load).

Error isolation is the dispatcher's contract, not this module's: the dispatch
callable receives the whole batch and must resolve every request's future
(the service runs the requests one by one and gives each its own result or
error).  A dispatch callable that *raises* fails only that batch's futures;
the dispatcher thread survives.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.observe import trace as observe_trace

__all__ = ["Coalescer"]


class _PatternQueue:
    """Pending requests of one pattern plus their flush deadline."""

    __slots__ = ("entry", "requests", "deadline")

    def __init__(self, entry: object, deadline: float) -> None:
        self.entry = entry
        self.requests: List[object] = []
        self.deadline = deadline


class Coalescer:
    """Groups in-flight same-pattern requests into micro-batches.

    Parameters
    ----------
    dispatch:
        ``dispatch(entry, requests)`` — runs one coalesced batch, resolving
        each request's future, and returns the callable that makes the
        batch's last resolution (called once the batch span has closed).  It
        must not assume success: exceptions are caught and reported per
        batch by the caller's dispatch logic.
    window_seconds:
        How long the oldest request of a pattern may wait before its batch
        flushes regardless of size.
    max_batch:
        Flush immediately once this many requests of one pattern are queued.
    """

    def __init__(
        self,
        dispatch: Callable[[object, Sequence[object]], Callable[[], None]],
        *,
        window_seconds: float = 0.002,
        max_batch: int = 32,
    ) -> None:
        if window_seconds < 0:
            raise ValueError("window_seconds must be non-negative")
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        self._dispatch = dispatch
        self.window_seconds = float(window_seconds)
        self.max_batch = int(max_batch)
        self._cond = threading.Condition()
        self._queues: Dict[Hashable, _PatternQueue] = {}
        self._thread: Optional[threading.Thread] = None
        self._busy = False
        self._closed = False

    # ------------------------------------------------------------------ #
    def offer(self, key: Hashable, entry: object, request: object) -> None:
        """Enqueue one request for pattern ``key`` (entry is its dispatch ctx)."""
        with self._cond:
            if self._closed:
                raise RuntimeError("coalescer is closed")
            if self._thread is None or not self._thread.is_alive():
                self._thread = threading.Thread(
                    target=self._run, name="repro-service-coalescer", daemon=True
                )
                self._thread.start()
            queue = self._queues.get(key)
            if queue is None:
                queue = self._queues[key] = _PatternQueue(
                    entry, time.monotonic() + self.window_seconds
                )
            queue.requests.append(request)
            self._cond.notify_all()

    def depth(self) -> int:
        """Requests currently queued (excluding the batch being dispatched)."""
        with self._cond:
            return sum(len(q.requests) for q in self._queues.values())

    def flush(self, timeout: Optional[float] = None) -> bool:
        """Block until every queued request has been dispatched.

        Returns False when ``timeout`` elapsed first.  Requests offered
        *while* flushing extend the wait (drain-to-idle semantics).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while self._queues or self._busy:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._cond.wait(timeout=0.05 if remaining is None else min(remaining, 0.05))
            return True

    def close(self, timeout: float = 5.0) -> None:
        """Stop accepting requests, drain the queues and join the thread."""
        with self._cond:
            self._closed = True
            thread = self._thread
            self._cond.notify_all()
        if thread is not None:
            thread.join(timeout=timeout)

    # ------------------------------------------------------------------ #
    def _pop_ready(self, now: float) -> Optional[Tuple[object, List[object]]]:
        """Take one due batch off the queues (called with the lock held).

        A queue is due when it holds ``max_batch`` requests, its deadline
        passed, or the coalescer is draining for close.  At most
        ``max_batch`` requests pop; a nonempty remainder keeps its (already
        expired or original) deadline and flushes on a later pass.
        """
        for key, queue in list(self._queues.items()):
            due = (
                len(queue.requests) >= self.max_batch
                or queue.deadline <= now
                or self._closed
            )
            if not due or not queue.requests:
                continue
            batch = queue.requests[: self.max_batch]
            del queue.requests[: self.max_batch]
            if not queue.requests:
                del self._queues[key]
            return queue.entry, batch
        return None

    def _run(self) -> None:
        while True:
            with self._cond:
                while True:
                    now = time.monotonic()
                    ready = self._pop_ready(now)
                    if ready is not None:
                        break
                    if self._closed and not self._queues:
                        self._cond.notify_all()
                        return
                    deadlines = [q.deadline for q in self._queues.values()]
                    timeout = None
                    if deadlines:
                        timeout = max(min(deadlines) - now, 0.0005)
                    self._cond.wait(timeout=timeout)
                self._busy = True
            entry, batch = ready
            try:
                # The dispatcher thread has no caller context of its own;
                # the batch-level span starts a fresh trace here, while the
                # per-request dispatch spans inside re-attach each
                # submitter's captured context (see session._dispatch).
                with observe_trace.span("coalesce", batch=len(batch)):
                    resolve_last = self._dispatch(entry, batch)
                # The batch's last future resolves only after the batch span
                # has closed: a caller that has heard from every request sees
                # the whole batch in the span buffer.
                resolve_last()
            except Exception as exc:  # pragma: no cover - dispatch guards itself
                _fail_batch(batch, exc)
            finally:
                with self._cond:
                    self._busy = False
                    self._cond.notify_all()


def _fail_batch(batch: Sequence[object], exc: Exception) -> None:
    """Last-resort failure propagation when a dispatch callable raises."""
    for request in batch:
        future = getattr(request, "future", None)
        if future is not None and not future.done():
            future.set_exception(exc)
