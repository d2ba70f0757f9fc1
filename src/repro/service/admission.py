"""Admission control: bounded in-flight work.

A long-lived service must bound the number of solves admitted but not yet
completed, a resource the in-process API never had to think about.
:meth:`AdmissionController.acquire` rejects beyond ``max_in_flight`` with
:class:`ServiceOverloadedError` carrying a ``retry_after`` hint
(reject-with-retry-after backpressure, not unbounded queueing).  The other
budget a service keeps, at most ``max_patterns`` registered patterns, is the
service's own LRU over its pattern table.
"""

from __future__ import annotations

import threading

from repro.service.errors import ServiceOverloadedError

__all__ = ["AdmissionController", "RETRY_AFTER_SECONDS"]

#: The backoff a rejected caller is told to wait before retrying.
RETRY_AFTER_SECONDS = 0.05


class AdmissionController:
    """Bounded request admission: in-flight slots with a retry-after hint."""

    def __init__(self, *, max_in_flight: int = 256) -> None:
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be at least 1")
        self.max_in_flight = int(max_in_flight)
        self._lock = threading.Lock()
        self._in_flight = 0

    def acquire(self) -> None:
        """Claim one in-flight slot or reject with a retry-after hint."""
        with self._lock:
            if self._in_flight >= self.max_in_flight:
                raise ServiceOverloadedError(
                    f"service saturated ({self._in_flight} requests in flight, "
                    f"limit {self.max_in_flight}); retry after "
                    f"{RETRY_AFTER_SECONDS:g}s",
                    retry_after=RETRY_AFTER_SECONDS,
                )
            self._in_flight += 1

    def release(self) -> None:
        """Return one in-flight slot."""
        with self._lock:
            if self._in_flight > 0:
                self._in_flight -= 1

    @property
    def in_flight(self) -> int:
        """Requests currently admitted but not completed."""
        with self._lock:
            return self._in_flight
