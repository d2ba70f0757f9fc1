"""The long-lived solver service: patterns registered once, solves served many.

:class:`SolverService` is the serving-layer face of the whole stack.  It
turns the paper's inspector/executor amortization into a served resource:

* :meth:`SolverService.register_pattern` compiles (or warm-loads) the
  factorization + triangular-solve kernels for one sparsity pattern into the
  pattern's one :class:`SparseLinearSolver`, which holds them, and returns a
  :class:`PatternHandle` carrying the fingerprint and size metadata,
* :meth:`SolverService.submit` runs one numeric solve (new values on the
  registered pattern, one right-hand side) on the calling thread and
  returns it as an already-resolved :class:`concurrent.futures.Future`;
  :meth:`SolverService.solve` runs the same body and returns ``x`` itself,
  with no future.  The solve is
  the pattern's :meth:`SparseLinearSolver.step
  <repro.solvers.linear_solver.SparseLinearSolver.step>` — the same warm
  step the front end takes: the solve alone when a request's values are the
  ones the current factors came from, the compiled kernel first when they
  are new.  The step holds its solver's lock, so callers on one pattern take
  turns and callers on different patterns run side by side; the service
  starts no thread of its own,
* admission control (:mod:`repro.service.admission`) bounds in-flight work
  (reject-with-retry-after; a request waiting on its solver's lock holds
  its slot); the service's own pattern table is an LRU of at most
  ``max_patterns`` entries.  Evicting an entry drops its solver, and with
  it the last reference the service held to its compiled artifacts;
  evicted patterns re-register warm from the on-disk code cache.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.compiler.cache import options_fingerprint
from repro.compiler.codegen.c_backend import disk_cache_stats
from repro.compiler.codegen.runtime import pattern_fingerprint
from repro.compiler.options import SympilerOptions
from repro.observe import events as observe_events
from repro.observe import trace as observe_trace
from repro.service.admission import AdmissionController
from repro.service.errors import (
    PatternEvictedError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.service.metrics import ServiceMetrics
from repro.solvers.linear_solver import SparseLinearSolver
from repro.sparse.csc import CSCMatrix

__all__ = ["SolverService", "PatternHandle"]


@dataclass(frozen=True)
class PatternHandle:
    """One registered pattern: identity, compile provenance and metadata.

    Handles are value objects — serializable over the wire by ``handle_id``
    — and stay valid until the pattern is evicted; solving through an
    evicted handle raises
    :class:`~repro.service.errors.PatternEvictedError` (re-register to
    get a fresh handle; the on-disk cache makes that warm).
    """

    handle_id: str
    key: tuple
    fingerprint: str
    kernel: str
    ordering: str
    n: int
    nnz: int
    factor_nnz: int
    #: True when registration reused previously generated code end to end
    #: (zero C recompiles and no python-backend kernel text written).
    warm: bool


@dataclass
class _PatternEntry:
    """Server-side state of one registered pattern."""

    key: tuple
    handle: PatternHandle
    #: The pattern's one solver.  It holds the compiled factorization, whose
    #: module also solves, and its lock serializes concurrent solves.
    solver: SparseLinearSolver
    #: The backend that actually generated code ("c" may fall back to
    #: "python" when no toolchain exists); recorded for the stats endpoint.
    backend_effective: str = "python"
    solves: int = 0


class SolverService:
    """A long-lived, thread-safe serving layer over the compiled-kernel stack.

    Parameters
    ----------
    options:
        Default :class:`SympilerOptions` for registrations (per-registration
        override allowed).
    max_in_flight, retry_after_seconds:
        Backpressure: beyond ``max_in_flight`` admitted-but-incomplete
        requests (running, or waiting on their solver's lock), ``submit``
        rejects with a ``retry_after`` hint.
    max_patterns:
        At most this many patterns stay registered; beyond that the least
        recently registered or solved one is evicted, and its solver with it.

    Examples
    --------
    >>> from repro.sparse import laplacian_2d
    >>> import numpy as np
    >>> service = SolverService()
    >>> A = laplacian_2d(8)
    >>> handle = service.register_pattern(A)
    >>> x = service.solve(handle, A.data, np.ones(A.n))
    >>> bool(np.isfinite(x).all())
    True
    >>> service.close()
    """

    def __init__(
        self,
        *,
        options: Optional[SympilerOptions] = None,
        max_in_flight: int = 256,
        max_patterns: int = 32,
        retry_after_seconds: float = 0.05,
    ) -> None:
        if max_patterns < 1:
            raise ValueError("max_patterns must be at least 1")
        self.options = options or SympilerOptions()
        self.metrics = ServiceMetrics()
        # Pull-mode registration in the unified registry: the Prometheus
        # export / observe.snapshot() see this service's counters without
        # any extra hot-path cost; unregistered again in close().
        self.metrics.register_collector()
        self.max_patterns = int(max_patterns)
        self.admission = AdmissionController(
            max_in_flight=max_in_flight,
            retry_after_seconds=retry_after_seconds,
        )
        self._lock = threading.Lock()
        #: Registered patterns, least recently registered or solved first.
        self._entries: "OrderedDict[tuple, _PatternEntry]" = OrderedDict()
        self._by_id: Dict[str, tuple] = {}
        self._registering: Dict[tuple, threading.Event] = {}
        self._closed = False
        self.started_at = time.time()

    # ------------------------------------------------------------------ #
    # Registration / eviction (the control plane)
    # ------------------------------------------------------------------ #
    def register_pattern(
        self,
        A,
        *,
        kernel: str = "cholesky",
        ordering: str = "mindeg",
        options: Optional[SympilerOptions] = None,
    ) -> PatternHandle:
        """Register one sparsity pattern; compile eagerly, return a handle.

        Registration is idempotent and single-flight: concurrent
        registrations of the same (pattern, kernel, ordering, options)
        collapse to one compile — every caller shares the entry and its
        solver.  ``A`` may be anything the front-end ingest layer
        accepts (:class:`CSCMatrix`, ``scipy.sparse``, COO triplets, dense)
        and must carry numerically valid values (the eager compile runs one
        factorization to seed the triangular-solve kernels).
        """
        if self._closed:
            raise ServiceClosedError("service is closed")
        if not isinstance(A, CSCMatrix):
            from repro.frontend.ingest import as_csc

            A = as_csc(A)
        options = options or self.options
        key = (
            kernel,
            pattern_fingerprint(A.indptr, A.indices, extra=f"n={A.n}"),
            ordering,
            options_fingerprint(options),
        )
        waited = False
        while True:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self.metrics.incr("registrations")
                    if waited:
                        self.metrics.incr("registrations_coalesced")
                    else:
                        self.metrics.incr("compile_warm")
                    self._entries.move_to_end(key)
                    return entry.handle
                event = self._registering.get(key)
                if event is None:
                    event = self._registering[key] = threading.Event()
                    break  # this thread builds the entry
            waited = True
            event.wait()
        try:
            entry = self._build_entry(A, kernel, ordering, options, key)
            with self._lock:
                self._entries[key] = entry
                self._by_id[entry.handle.handle_id] = key
                victims = list(self._entries)[: -self.max_patterns]
            for victim in victims:
                self._drop_entry(victim, reason="lru")
            return entry.handle
        finally:
            with self._lock:
                self._registering.pop(key, None)
            event.set()

    def _build_entry(
        self,
        A: CSCMatrix,
        kernel: str,
        ordering: str,
        options: SympilerOptions,
        key: tuple,
    ) -> _PatternEntry:
        disk_before = disk_cache_stats().as_dict()
        solver = SparseLinearSolver(A, method=kernel, ordering=ordering, options=options)
        disk_after = disk_cache_stats().as_dict()
        generated = (disk_after["compiles"] - disk_before["compiles"]) + (
            disk_after["py_writes"] - disk_before["py_writes"]
        )
        warm = generated == 0
        factorization = solver.factorization
        handle = PatternHandle(
            handle_id=hashlib.sha256(repr(key).encode()).hexdigest()[:16],
            key=key,
            fingerprint=key[1],
            kernel=solver.method,
            ordering=ordering,
            n=A.n,
            nnz=A.nnz,
            factor_nnz=solver.factor_nnz,
            warm=warm,
        )
        self.metrics.incr("registrations")
        self.metrics.incr("compile_warm" if warm else "compile_cold")
        backend_effective = factorization.backend
        observe_events.emit(
            "compile_warm" if warm else "compile_cold",
            kernel=solver.method,
            fingerprint=key[1],
            n=A.n,
            backend=backend_effective,
        )
        return _PatternEntry(
            key=key,
            handle=handle,
            solver=solver,
            backend_effective=backend_effective,
        )

    def _drop_entry(self, key: tuple, *, reason: str) -> bool:
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                return False
            self._by_id.pop(entry.handle.handle_id, None)
        # The entry's solver goes with it once no running solve still holds
        # the entry; the on-disk generated code survives, so re-registration
        # is a warm (zero-recompile) path.
        self.metrics.incr("patterns_evicted")
        self.metrics.incr(f"patterns_evicted_{reason}")
        observe_events.emit(
            "pattern_evicted",
            reason=reason,
            fingerprint=key[1],
            handle_id=entry.handle.handle_id,
        )
        return True

    def evict(self, handle) -> bool:
        """Explicitly evict one registered pattern (by handle or handle id)."""
        key = self._resolve_key(handle, missing_ok=True)
        if key is None:
            return False
        return self._drop_entry(key, reason="explicit")

    def _resolve_key(self, handle, *, missing_ok: bool = False):
        if isinstance(handle, PatternHandle):
            return handle.key
        with self._lock:
            key = self._by_id.get(str(handle))
        if key is None and not missing_ok:
            raise PatternEvictedError(f"unknown handle {handle!r}")
        return key

    def _entry_for(self, handle) -> _PatternEntry:
        """The live entry of ``handle``, marked recently used."""
        key = self._resolve_key(handle)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        if entry is None:
            raise PatternEvictedError(
                f"pattern {key[1]} was evicted; re-register it for a fresh "
                "handle (warm from the on-disk code cache)"
            )
        return entry

    # ------------------------------------------------------------------ #
    # The data plane
    # ------------------------------------------------------------------ #
    def submit(self, handle, values: np.ndarray, rhs: np.ndarray) -> Future:
        """Solve one system on the calling thread; returns its resolved future.

        ``values`` are the matrix nonzeros in the registered pattern's input
        order; ``rhs`` the right-hand side.  A closed service, an evicted
        handle, a shape error or a full service raises here (client errors);
        a numeric failure (a singular or non-finite value set) resolves the
        *future* with the kernel's exception instead.  Either way the future
        is done when ``submit`` returns.
        """
        entry, values, rhs = self._admit(handle, values, rhs)
        future: Future = Future()
        try:
            future.set_result(self._run(entry, values, rhs))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def solve(
        self,
        handle,
        values: np.ndarray,
        rhs: np.ndarray,
        *,
        timeout: Optional[float] = None,
    ) -> np.ndarray:
        """:meth:`submit` without the future: ``x``, or any failure raised.

        The request runs on the calling thread, as :meth:`submit`'s does;
        ``timeout`` is kept for the
        :class:`~repro.service.endpoint.SolverEndpoint` surface.
        """
        return self._run(*self._admit(handle, values, rhs))

    def _admit(self, handle, values, rhs) -> tuple:
        """``(entry, values, rhs)`` of an admitted request; a client error raises.

        An admitted request holds its admission slot until :meth:`_run`
        releases it.
        """
        if self._closed:
            raise ServiceClosedError("service is closed")
        entry = self._entry_for(handle)
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (entry.handle.nnz,):
            raise ValueError(
                f"values must have shape ({entry.handle.nnz},) matching the "
                "registered pattern's nonzero count"
            )
        rhs = np.asarray(rhs, dtype=np.float64)
        if rhs.shape != (entry.handle.n,):
            raise ValueError(f"rhs must have shape ({entry.handle.n},)")
        try:
            self.admission.acquire()
        except ServiceOverloadedError as exc:
            self.metrics.incr("rejected")
            observe_events.emit(
                "admission_rejected",
                handle_id=entry.handle.handle_id,
                in_flight=self.admission.in_flight,
                retry_after_seconds=getattr(exc, "retry_after", None),
            )
            raise
        return entry, values, rhs

    def _run(self, entry: _PatternEntry, values: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Run one admitted request on this thread: its pattern solver's warm step.

        Returns ``x``; a numeric failure raises.  Either way the admission
        slot is released and the request recorded.
        """
        started = time.monotonic()
        refactorized = None
        try:
            with observe_trace.span("dispatch", kernel=entry.handle.kernel):
                x, refactorized = entry.solver.step(values, rhs)
            with self._lock:  # callers on one pattern finish concurrently
                entry.solves += 1
        finally:
            self.admission.release()
            latency = time.monotonic() - started
            self.metrics.observe_request(refactorized, latency)
            slow_after = observe_events.get_event_log().slow_request_seconds
            if slow_after is not None and latency >= slow_after:
                self._sample_slow_request(entry, latency)
        return x

    def _sample_slow_request(self, entry: _PatternEntry, latency: float) -> None:
        """Keep a slow request's full span tree as a structured event.

        Only requests over the event log's ``slow_request_seconds`` threshold
        pay this: the finished spans of the caller's trace are copied into
        the event payload, so the *why* of a tail-latency outlier survives
        after the tracer ring has rolled over.
        """
        trace_id = getattr(observe_trace.capture(), "trace_id", None)
        spans = []
        if trace_id is not None:
            spans = [
                sp.as_dict()
                for sp in observe_trace.get_tracer().spans()
                if sp.trace_id == trace_id
            ]
        self.metrics.incr("slow_requests")
        observe_events.emit(
            "slow_request",
            kernel=entry.handle.kernel,
            fingerprint=entry.handle.fingerprint,
            latency_seconds=latency,
            trace_id=trace_id,
            spans=spans,
        )

    # ------------------------------------------------------------------ #
    # Observability / lifecycle
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, object]:
        """One JSON-friendly snapshot of the whole service."""
        with self._lock:
            entries = list(self._entries.values())
        cache = entries[0].solver.artifact_cache if entries else None
        patterns = {}
        for entry in entries:
            handle = entry.handle
            patterns[handle.handle_id] = {
                "kernel": handle.kernel,
                "ordering": handle.ordering,
                "fingerprint": handle.fingerprint,
                "n": handle.n,
                "nnz": handle.nnz,
                "factor_nnz": handle.factor_nnz,
                "warm_registration": handle.warm,
                "solves": entry.solves,
                "backend_effective": entry.backend_effective,
            }
        snapshot = self.metrics.snapshot()
        snapshot.update(
            {
                "patterns": patterns,
                "registered_patterns": len(patterns),
                "in_flight": self.admission.in_flight,
                "max_in_flight": self.admission.max_in_flight,
                "max_patterns": self.max_patterns,
                "uptime_seconds": time.time() - self.started_at,
                "disk_cache": disk_cache_stats().as_dict(),
            }
        )
        if cache is not None:
            snapshot["artifact_cache"] = cache.stats.as_dict()
        return snapshot

    def health(self) -> Dict[str, object]:
        """A small liveness/readiness document (cheap; no per-pattern detail).

        The in-process leg of the ``health`` wire verb: uptime and load facts
        only — :meth:`stats` has the full per-pattern snapshot.  The wire
        layer augments this with transport facts (wire version, pid, server
        clocks); :meth:`ShardFleet.health` aggregates it across shards.
        """
        with self._lock:
            registered = len(self._entries)
            closed = self._closed
        return {
            "status": "closed" if closed else "ok",
            "started_at": self.started_at,
            "uptime_seconds": time.time() - self.started_at,
            "registered_patterns": registered,
            "in_flight": self.admission.in_flight,
            "solves_ok": self.metrics.count("solves_ok"),
            "solves_failed": self.metrics.count("solves_failed"),
            "rejected": self.metrics.count("rejected"),
        }

    def metrics_text(self) -> str:
        """The unified registry as Prometheus exposition text.

        The in-process leg of the :class:`~repro.service.endpoint.SolverEndpoint`
        contract: the same text the wire ``metrics`` verb serves (this
        service's counters are pull-collected into the default registry).
        """
        from repro.observe import prometheus_text

        return prometheus_text()

    def close(self) -> None:
        """Reject further calls and drop the pattern table.

        Solves already running finish on their callers' threads.  The
        table goes, and with it the service's solvers; the shared compiler
        cache keeps the artifacts for warm reuse by other in-process users
        until its own LRU drops them.
        """
        if self._closed:
            return
        self._closed = True
        self.metrics.unregister_collector()
        with self._lock:
            self._entries.clear()
            self._by_id.clear()

    def __enter__(self) -> "SolverService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
