"""The long-lived solver service: patterns registered once, solves served many.

:class:`SolverService` is the serving-layer face of the whole stack.  It
turns the paper's inspector/executor amortization into a served resource:

* :meth:`SolverService.register_pattern` compiles (or warm-loads) the
  factorization + triangular-solve kernels for one sparsity pattern into the
  pattern's one :class:`SparseLinearSolver`, which holds them, and returns a
  :class:`PatternHandle` carrying the fingerprint and size metadata — the
  same eight fields the wire's ``register`` response carries,
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

The service counts its own requests: registrations, evictions, rejections
and each request's outcome and latency are recorded under the one lock the
service already takes, and :meth:`SolverService.stats` reads them.  The same
counts are the ``service`` pull collector of the observability registry
(``repro_service_*`` in the Prometheus export).
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
from repro.observe import trace as observe_trace
from repro.observe.registry import Reservoir, get_registry
from repro.service.admission import AdmissionController
from repro.service.errors import (
    PatternEvictedError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.solvers.linear_solver import SparseLinearSolver
from repro.sparse.csc import CSCMatrix
from repro.sparse.utils import require_real

__all__ = ["SolverService", "PatternHandle"]


@dataclass(frozen=True)
class PatternHandle:
    """One registered pattern: identity, compile provenance and metadata.

    Handles are value objects, and the same type at every scale: the wire's
    ``register`` response is ``dataclasses.asdict(handle)`` and the client
    rebuilds the handle from it.  Any call that takes a handle also takes its
    ``handle_id`` string.  A handle stays valid until the pattern is evicted;
    solving through an evicted handle raises
    :class:`~repro.service.errors.PatternEvictedError` (re-register to
    get a fresh handle; the on-disk cache makes that warm).
    """

    #: A hash of the (kernel, pattern, ordering, options) key: the same
    #: registration gets the same id in every process.
    handle_id: str
    fingerprint: str
    kernel: str
    ordering: str
    n: int
    nnz: int
    factor_nnz: int
    #: True when registration reused previously generated code end to end
    #: (zero C recompiles and no python-backend kernel text written).
    warm: bool


def handle_id_of(handle) -> str:
    """The id of ``handle``: a :class:`PatternHandle`'s ``handle_id``, or the id string itself."""
    return handle.handle_id if isinstance(handle, PatternHandle) else str(handle)


@dataclass
class _PatternEntry:
    """Server-side state of one registered pattern."""

    handle: PatternHandle
    #: The pattern's one solver.  It holds the compiled factorization, whose
    #: module also solves, and its lock serializes concurrent solves.
    solver: SparseLinearSolver
    solves: int = 0


class SolverService:
    """A long-lived, thread-safe serving layer over the compiled-kernel stack.

    Parameters
    ----------
    options:
        Default :class:`SympilerOptions` for registrations (per-registration
        override allowed).
    max_in_flight:
        Backpressure: beyond ``max_in_flight`` admitted-but-incomplete
        requests (running, or waiting on their solver's lock), ``submit``
        rejects with a ``retry_after`` hint of
        :data:`~repro.service.admission.RETRY_AFTER_SECONDS`.
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
    ) -> None:
        if max_patterns < 1:
            raise ValueError("max_patterns must be at least 1")
        self.options = options or SympilerOptions()
        self.max_patterns = int(max_patterns)
        self.admission = AdmissionController(max_in_flight=max_in_flight)
        self._lock = threading.Lock()
        #: Registered patterns by handle id, least recently registered or
        #: solved first.
        self._entries: "OrderedDict[str, _PatternEntry]" = OrderedDict()
        self._registering: Dict[str, threading.Event] = {}
        #: Named counts (registrations, outcomes, rejections, evictions),
        #: each present once bumped; guarded by ``_lock``, as is the latency
        #: reservoir, so a request records both at once.
        self._counters: Dict[str, int] = {}
        self._latency = Reservoir(lock=self._lock)
        self._closed = False
        self.started_at = time.time()
        # Pull-mode registration in the unified registry: the Prometheus
        # export / observe.snapshot() see this service's counters without
        # any extra hot-path cost; unregistered again in close().
        self._collector_name = get_registry().register_collector("service", self._metrics)

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

        ``kernel="cholesky"`` (and ``"ldlt"``) read only ``tril(A)``: the
        answer is that of ``tril(A)`` mirrored to full, and an entry stored
        only above the diagonal is ignored without an error.  Symmetry is
        the caller's promise; pass ``kernel="lu"`` for a matrix that may
        break it.
        """
        if self._closed:
            raise ServiceClosedError("service is closed")
        if not isinstance(A, CSCMatrix):
            from repro.frontend.ingest import as_csc

            A = as_csc(A)
        options = options or self.options
        fingerprint = pattern_fingerprint(A.indptr, A.indices, extra=f"n={A.n}")
        key = (kernel, fingerprint, ordering, options_fingerprint(options))
        handle_id = hashlib.sha256(repr(key).encode()).hexdigest()[:16]
        waited = False
        while True:
            with self._lock:
                entry = self._entries.get(handle_id)
                if entry is not None:
                    self._count("registrations", "registrations_coalesced" if waited else "compile_warm")
                    self._entries.move_to_end(handle_id)
                    return entry.handle
                event = self._registering.get(handle_id)
                if event is None:
                    event = self._registering[handle_id] = threading.Event()
                    break  # this thread builds the entry
            waited = True
            event.wait()
        try:
            generated = disk_cache_stats().generated_on_this_thread()
            solver = SparseLinearSolver(A, method=kernel, ordering=ordering, options=options)
            # What this thread generated, whatever other threads compile meanwhile.
            warm = disk_cache_stats().generated_on_this_thread() == generated
            handle = PatternHandle(
                handle_id=handle_id,
                fingerprint=fingerprint,
                kernel=solver.method,
                ordering=ordering,
                n=A.n,
                nnz=A.nnz,
                factor_nnz=solver.factor_nnz,
                warm=warm,
            )
            with self._lock:
                self._count("registrations", "compile_warm" if warm else "compile_cold")
                self._entries[handle_id] = _PatternEntry(handle=handle, solver=solver)
                while len(self._entries) > self.max_patterns:
                    self._entries.popitem(last=False)  # the least recently used
                    self._count("patterns_evicted", "patterns_evicted_lru")
            return handle
        finally:
            with self._lock:
                self._registering.pop(handle_id, None)
            event.set()

    def _count(self, *names: str) -> None:
        """Bump each named counter by one; the caller holds ``_lock``."""
        counters = self._counters
        for name in names:
            counters[name] = counters.get(name, 0) + 1

    def evict(self, handle) -> bool:
        """Explicitly evict one registered pattern (by handle or handle id).

        The entry's solver goes with it once no running solve still holds
        the entry; the on-disk generated code survives, so re-registration
        is a warm (zero-recompile) path.
        """
        with self._lock:
            if self._entries.pop(handle_id_of(handle), None) is None:
                return False
            self._count("patterns_evicted", "patterns_evicted_explicit")
        return True

    def _entry_for(self, handle) -> _PatternEntry:
        """The live entry of ``handle``, marked recently used."""
        handle_id = handle_id_of(handle)
        with self._lock:
            entry = self._entries.get(handle_id)
            if entry is not None:
                self._entries.move_to_end(handle_id)
        if entry is None:
            raise PatternEvictedError(
                f"no registered pattern has handle {handle_id!r} (evicted, or never "
                "registered here); re-register it for a fresh handle (warm from the "
                "on-disk code cache)"
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
        require_real(values, "values")
        require_real(rhs, "rhs")
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
        except ServiceOverloadedError:
            with self._lock:
                self._count("rejected")
            raise
        return entry, values, rhs

    def _run(self, entry: _PatternEntry, values: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Run one admitted request on this thread: its pattern solver's warm step.

        Returns ``x``; a numeric failure raises.  Either way the admission
        slot is released and the request recorded, under one lock: its
        outcome (``solves_ok`` with ``refactorizations`` or ``value_hits``,
        else ``solves_failed``), its pattern's solve count and its latency.
        """
        started = time.monotonic()
        refactorized = None
        try:
            with observe_trace.span("dispatch", kernel=entry.handle.kernel):
                x, refactorized = entry.solver.step(values, rhs)
        finally:
            self.admission.release()
            seconds = time.monotonic() - started
            with self._lock:  # callers on one pattern finish concurrently
                if refactorized is None:
                    self._count("solves_failed")
                else:
                    entry.solves += 1
                    self._count("solves_ok", "refactorizations" if refactorized else "value_hits")
                self._latency.observe_locked(seconds)
        return x

    # ------------------------------------------------------------------ #
    # Observability / lifecycle
    # ------------------------------------------------------------------ #
    def _metrics(self) -> Dict[str, object]:
        """The counts: the ``service`` collector's document and the head of :meth:`stats`.

        Every request is a dispatch of its own, so ``batches``, the
        batch-size histogram, ``coalescing_ratio`` and ``max_batch_size``
        follow from the solve count (kept for the readers of the ``stats``
        document).  The latency quantiles come from one copy of the
        reservoir, so p95 is never below p50.
        """
        with self._lock:
            counters = dict(self._counters)
        solves = counters.get("solves_ok", 0) + counters.get("solves_failed", 0)
        if solves:
            counters["batches"] = solves
        return {
            "counters": counters,
            "batch_size_histogram": {"1": solves} if solves else {},
            "solves": solves,
            "coalescing_ratio": 1.0 if solves else 0.0,
            "max_batch_size": 1 if solves else 0,
            "latency": self._latency.summary(qs=(50.0, 95.0)),
        }

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
            }
        snapshot = self._metrics()
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
            outcomes = {name: self._counters.get(name, 0) for name in ("solves_ok", "solves_failed", "rejected")}
        return {
            "status": "closed" if closed else "ok",
            "started_at": self.started_at,
            "uptime_seconds": time.time() - self.started_at,
            "registered_patterns": registered,
            "in_flight": self.admission.in_flight,
            **outcomes,
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
        get_registry().unregister_collector(self._collector_name)
        with self._lock:
            self._entries.clear()

    def __enter__(self) -> "SolverService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
