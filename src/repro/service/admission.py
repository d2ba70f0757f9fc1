"""Admission control: bounded in-flight work and a per-pattern LRU budget.

A long-lived service must bound two resources the in-process API never had
to think about:

* **request slots** — the number of solves admitted but not yet completed.
  :meth:`AdmissionController.acquire` rejects beyond ``max_in_flight`` with
  :class:`ServiceOverloadedError` carrying a ``retry_after`` hint
  (reject-with-retry-after backpressure, not unbounded queueing), and
* **compiled artifacts** — registered patterns pin generated kernels in
  memory; :meth:`AdmissionController.pin_pattern` keeps at most
  ``max_patterns`` of them, returning the LRU victims for the service to
  evict (their artifacts drop out of the compiler cache; the on-disk code
  cache makes re-registration warm).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Hashable, List

from repro.service.errors import ServiceOverloadedError

__all__ = ["AdmissionController"]


class AdmissionController:
    """Bounded request admission plus the per-pattern LRU pin board."""

    def __init__(
        self,
        *,
        max_in_flight: int = 256,
        max_patterns: int = 32,
        retry_after_seconds: float = 0.05,
    ) -> None:
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be at least 1")
        if max_patterns < 1:
            raise ValueError("max_patterns must be at least 1")
        self.max_in_flight = int(max_in_flight)
        self.max_patterns = int(max_patterns)
        self.retry_after_seconds = float(retry_after_seconds)
        self._lock = threading.Lock()
        self._in_flight = 0
        self._lru: "OrderedDict[Hashable, None]" = OrderedDict()

    # ------------------------------------------------------------------ #
    # Request slots
    # ------------------------------------------------------------------ #
    def acquire(self) -> None:
        """Claim one in-flight slot or reject with a retry-after hint."""
        with self._lock:
            if self._in_flight >= self.max_in_flight:
                raise ServiceOverloadedError(
                    f"service saturated ({self._in_flight} requests in flight, "
                    f"limit {self.max_in_flight}); retry after "
                    f"{self.retry_after_seconds:g}s",
                    retry_after=self.retry_after_seconds,
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

    # ------------------------------------------------------------------ #
    # Pattern pin board (LRU over registered patterns)
    # ------------------------------------------------------------------ #
    def pin_pattern(self, key: Hashable) -> List[Hashable]:
        """Register ``key`` as pinned; returns the LRU keys pushed over budget.

        The caller (the service) owns the actual eviction — dropping its
        entry and un-pinning the compiled artifacts — so the controller only
        decides *which* patterns fall out.
        """
        with self._lock:
            if key in self._lru:
                self._lru.move_to_end(key)
                return []
            self._lru[key] = None
            victims: List[Hashable] = []
            while len(self._lru) > self.max_patterns:
                victim, _ = self._lru.popitem(last=False)
                victims.append(victim)
            return victims

    def touch_pattern(self, key: Hashable) -> None:
        """Mark ``key`` recently used (called per solve)."""
        with self._lock:
            if key in self._lru:
                self._lru.move_to_end(key)

    def drop_pattern(self, key: Hashable) -> bool:
        """Explicitly remove ``key`` from the board; True when it was pinned."""
        with self._lock:
            if key not in self._lru:
                return False
            del self._lru[key]
            return True

    def patterns(self) -> List[Hashable]:
        """Pinned pattern keys, least recently used first."""
        with self._lock:
            return list(self._lru)
