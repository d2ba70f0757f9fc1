"""The :class:`SolverEndpoint` protocol — one solver-serving surface, three scales.

Every way of reaching the compiled-kernel serving stack implements the same
eight methods, so callers swap local ↔ remote ↔ fleet without code changes:

* :class:`~repro.service.session.SolverService` — in process (each solve on
  its caller's thread, one lock per pattern),
* :class:`~repro.service.client.ServiceClient` — one server over the wire
  (id-tagged requests: one connection pipelines many submits),
* :class:`~repro.service.fleet.ShardFleet` — N worker processes, each
  pattern pinned to one by its fingerprint.

The contract::

    handle = endpoint.register_pattern(A, kernel=..., ordering=..., options=...)
    future = endpoint.submit(handle, values, rhs)      # async, pipelined
    x      = endpoint.solve(handle, values, rhs)       # sync = submit + wait
    endpoint.evict(handle)                             # drop the pattern's solver
    endpoint.stats()                                   # cumulative counters
    endpoint.health()                                  # liveness + load facts
    endpoint.metrics_text()                            # Prometheus exposition
    endpoint.close()

``submit`` returns a :class:`concurrent.futures.Future` (or an object with
the same ``result(timeout)``/``exception()``/``add_done_callback`` surface)
resolving to the solution vector.  Errors are the consolidated types of
:mod:`repro.service.errors` at every scale — an overloaded fleet raises the
same :class:`~repro.service.errors.ServiceOverloadedError` (with the same
``retry_after``) an overloaded in-process service does.

The protocol is ``runtime_checkable``: ``isinstance(obj, SolverEndpoint)``
verifies the method surface (names only, per :pep:`544`).
"""

from __future__ import annotations

from typing import Dict, Optional, Protocol, runtime_checkable

__all__ = ["SolverEndpoint"]


@runtime_checkable
class SolverEndpoint(Protocol):
    """Anything that serves registered-pattern solves (local, wire, fleet)."""

    def register_pattern(
        self,
        A,
        *,
        kernel: str = "cholesky",
        ordering: str = "mindeg",
        options=None,
    ):
        """Register a sparsity pattern; compile/pin once, return a handle."""
        ...

    def submit(self, handle, values, rhs):
        """Send one solve; returns a future resolving to the solution."""
        ...

    def solve(self, handle, values, rhs, *, timeout: Optional[float] = None):
        """Synchronous solve: submit + wait."""
        ...

    def evict(self, handle) -> bool:
        """Drop a registered pattern (idempotent); True when it was present."""
        ...

    def stats(self) -> Dict:
        """Cumulative counters/histograms snapshot."""
        ...

    def health(self) -> Dict:
        """A small liveness document: status, uptime, load facts."""
        ...

    def metrics_text(self) -> str:
        """The unified registry as Prometheus exposition text."""
        ...

    def close(self) -> None:
        """Release every resource (idempotent)."""
        ...
