"""Request coalescing: same-pattern solves that queued together share a dispatch.

N concurrent requests on one registered pattern can share one dispatch —
one wake-up of the dispatcher, one response block, one batch span — instead
of N.  The :class:`Coalescer` makes that happen transparently and without a
timer: requests enqueue into a per-pattern queue, and one dispatcher thread,
whenever it is free, takes up to ``max_batch`` requests of the pattern at the
head of the line and runs them.  A request on an idle service is therefore
dispatched at once, and the requests that arrive while a batch runs form the
next batch (natural batching under load).

Error isolation is the dispatcher's contract, not this module's: the dispatch
callable receives the whole batch and must resolve every request's future
(the service runs the requests one by one and gives each its own result or
error).  A dispatch callable that *raises* fails only that batch's futures;
the dispatcher thread survives.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.observe import trace as observe_trace

__all__ = ["Coalescer"]


class Coalescer:
    """Groups queued same-pattern requests into batches, one dispatch each.

    Parameters
    ----------
    dispatch:
        ``dispatch(entry, requests)`` — runs one coalesced batch, resolving
        each request's future, and returns the callable that makes the
        batch's last resolution (called once the batch span has closed).  It
        must not assume success: exceptions are caught and reported per
        batch by the caller's dispatch logic.
    max_batch:
        The most requests of one pattern a single dispatch takes.
    """

    def __init__(
        self,
        dispatch: Callable[[object, Sequence[object]], Callable[[], None]],
        *,
        max_batch: int = 32,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        self._dispatch = dispatch
        self.max_batch = int(max_batch)
        self._cond = threading.Condition()
        #: pattern key -> (dispatch ctx, pending requests); dict order is the
        #: line the dispatcher serves from.
        self._queues: Dict[Hashable, Tuple[object, List[object]]] = {}
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
            self._queues.setdefault(key, (entry, []))[1].append(request)
            self._cond.notify_all()

    def depth(self) -> int:
        """Requests currently queued (excluding the batch being dispatched)."""
        with self._cond:
            return sum(len(requests) for _, requests in self._queues.values())

    def flush(self, timeout: Optional[float] = None) -> bool:
        """Block until every queued request has been dispatched.

        Returns False when ``timeout`` elapsed first.  Requests offered
        *while* flushing extend the wait (drain-to-idle semantics).
        """
        with self._cond:
            return self._cond.wait_for(
                lambda: not self._queues and not self._busy, timeout
            )

    def close(self, timeout: float = 5.0) -> None:
        """Stop accepting requests, drain the queues and join the thread."""
        with self._cond:
            self._closed = True
            thread = self._thread
            self._cond.notify_all()
        if thread is not None:
            thread.join(timeout=timeout)

    # ------------------------------------------------------------------ #
    def _pop_batch(self) -> Tuple[object, List[object]]:
        """Take one batch off the head of the line (called with the lock held).

        At most ``max_batch`` requests pop; a nonempty remainder goes to the
        back of the line, so a pattern with a standing backlog cannot shut
        the other patterns out.
        """
        key = next(iter(self._queues))
        entry, requests = self._queues.pop(key)
        if len(requests) > self.max_batch:
            self._queues[key] = (entry, requests[self.max_batch :])
        return entry, requests[: self.max_batch]

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._queues:
                    if self._closed:
                        return
                    self._cond.wait()
                entry, batch = self._pop_batch()
                self._busy = True
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
                # Hold nothing while idle: an evicted pattern's entry, and the
                # solver it owns, must be free to go.
                entry = batch = resolve_last = None
                with self._cond:
                    self._busy = False
                    self._cond.notify_all()


def _fail_batch(batch: Sequence[object], exc: Exception) -> None:
    """Last-resort failure propagation when a dispatch callable raises."""
    for request in batch:
        future = getattr(request, "future", None)
        if future is not None and not future.done():
            future.set_exception(exc)
