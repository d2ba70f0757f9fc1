"""The batch execution engine: one compiled artifact, many value sets.

The registry artifacts are stateless with respect to numeric values — the
premise the whole compiler is built on — so one compiled kernel can serve an
arbitrary number of concurrent numeric executions.  :class:`BatchExecutor`
exploits that along three strategies, chosen per artifact and batch:

``threads``
    C-backend artifacts: the generated shared object releases the GIL for
    the duration of the call (ctypes foreign calls always do) and its work
    buffers are ``_Thread_local``, so a pool of ``num_threads`` workers runs
    items truly concurrently.  Items are dealt to workers in contiguous
    chunks so pool overhead amortizes over the batch.
``wavefront``
    Wavefront-compiled C artifacts (``parallel="wavefront"`` options) on a
    batch *smaller* than the worker count: items run sequentially but each
    call spreads one kernel's level-set columns across the generated
    worker pool (within-kernel H-Level parallelism).  The items-vs-levels
    heuristic in :meth:`BatchExecutor.plan_batch` picks between this and
    ``threads``.
``serial``
    Everything else (the python backend, and ``num_threads == 1``): a plain
    loop over the artifact's own entry point.

All strategies share two invariants: **deterministic result ordering**
(results land at their item's input index, whatever the completion order)
and **per-item error isolation** (a singular/indefinite item is reported in
:attr:`BatchResult.errors`; the other items complete normally).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.compiler.codegen.c_backend import CGeneratedModule, num_threads_from_env
from repro.observe import trace as observe_trace

__all__ = ["BatchExecutor", "BatchResult", "BatchItemError", "resolve_num_threads"]


def resolve_num_threads(num_threads: Optional[int]) -> int:
    """Normalize a thread-count knob to a concrete worker count.

    **This is the canonical thread-count precedence for every entry point**
    — ``repro.solve``, ``SparseLinearSolver.solve`` /
    ``solve_with_factors`` / ``solve_many`` / ``pcg``,
    ``FactorHandle.solve``, ``preconditioned_conjugate_gradient``, the
    batched runtime and the wavefront C entry (which mirrors this logic in
    generated code):

    1. an explicit ``num_threads=`` argument wins,
    2. when ``None``, the ``REPRO_NUM_THREADS`` environment variable applies
       (CI runners and the service container pin the count there without
       touching call sites),
    3. with neither, the caller's ``SympilerOptions.num_threads`` — or 1
       here, where no options are in scope.

    At any level, ``0`` means one per CPU.  A blank ``REPRO_NUM_THREADS``
    counts as unset (:func:`~repro.compiler.codegen.c_backend.num_threads_from_env`
    is the one parser).  The knob is runtime-only: it is excluded from cache
    fingerprints, so re-tuning it never recompiles.
    """
    if num_threads is None:
        num_threads = num_threads_from_env()
    if num_threads is None:
        return 1
    num_threads = int(num_threads)
    if num_threads < 0:
        raise ValueError("num_threads must be non-negative (0 means one per CPU)")
    if num_threads == 0:
        return os.cpu_count() or 1
    return num_threads


@dataclass(frozen=True)
class BatchItemError:
    """One failed batch item: its input index and the error it raised."""

    index: int
    error: Exception

    def __str__(self) -> str:
        return f"item {self.index}: {self.error}"


@dataclass
class BatchResult:
    """Outcome of one batch execution.

    ``results[i]`` is item ``i``'s output (``None`` when it failed); failures
    are listed in ``errors`` in item order.  ``mode`` records the strategy
    that actually ran (``"threads"``, ``"wavefront"`` or ``"serial"``) — useful
    in benchmarks and tests, since strategy selection is per artifact.
    """

    results: List[Optional[object]]
    errors: List[BatchItemError] = field(default_factory=list)
    mode: str = "serial"
    num_threads: int = 1
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """True when every item completed."""
        return not self.errors

    @property
    def n_items(self) -> int:
        """Number of items the batch ran."""
        return len(self.results)

    def raise_first(self) -> None:
        """Re-raise the first per-item error, if any."""
        if self.errors:
            raise self.errors[0].error

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)


class BatchExecutor:
    """Maps a compiled artifact's numeric entry point over a batch.

    Parameters
    ----------
    artifact:
        Any compiled artifact (factorization or triangular solve).
    num_threads:
        Worker threads for the C-backend path, ``0`` meaning one per CPU.
        Precedence: this argument, then the ``REPRO_NUM_THREADS``
        environment variable, then the artifact's compile options.  Callers
        holding the *requested* options should pass their value explicitly,
        since a cache hit may return an artifact compiled under a different
        (runtime-irrelevant) thread setting.
    """

    def __init__(self, artifact, *, num_threads: Optional[int] = None) -> None:
        self.artifact = artifact
        if num_threads is None:
            num_threads = num_threads_from_env()
        if num_threads is None:
            num_threads = getattr(artifact.options, "num_threads", 1)
        self.num_threads = resolve_num_threads(num_threads)
        self._is_c_backend = isinstance(artifact.module, CGeneratedModule)

    # ------------------------------------------------------------------ #
    @property
    def schedule(self):
        """The artifact's compile-time level-set schedule (wavefronts)."""
        return self.artifact.schedule

    @property
    def mode(self) -> str:
        """The strategy batch calls will use for this artifact.

        For wavefront-capable artifacts this is the *large-batch* strategy
        (``"threads"``); a batch smaller than the worker count switches to
        within-kernel parallelism per :meth:`plan_batch`, and the strategy
        that actually ran is recorded in :attr:`BatchResult.mode`.
        """
        if self._is_c_backend and self.num_threads > 1:
            return "threads"
        return "serial"

    @property
    def wavefront_capable(self) -> bool:
        """Whether the artifact's entry takes a per-call thread count."""
        return bool(getattr(self.artifact, "accepts_num_threads", False))

    def plan_batch(self, n_items: int) -> Tuple[str, int]:
        """Choose a strategy and per-call thread count for one batch.

        The items-vs-levels heuristic: a batch with at least as many items
        as workers saturates the pool by threading *across* items — zero
        barrier overhead, so within-kernel threading is switched off for
        the calls (per-call thread count 1).  A smaller batch of
        wavefront-capable kernels would leave workers idle, so the threads
        go *inside* each kernel instead: items run sequentially and each
        call fans its level sets across ``num_threads`` workers.
        """
        if self._is_c_backend and self.num_threads > 1 and n_items > 0:
            if n_items >= self.num_threads or not self.wavefront_capable:
                return "threads", 1
            return "wavefront", self.num_threads
        return "serial", 1

    # ------------------------------------------------------------------ #
    def map(
        self,
        fn: Callable[[object], object],
        items: Sequence[object],
        *,
        strategy: Optional[str] = None,
    ) -> BatchResult:
        """Apply ``fn`` to every item with isolation and stable ordering.

        Uses the thread pool in ``threads`` mode (``fn`` must release the GIL
        to benefit — the C-backend entry points do) and a sequential loop
        otherwise.  ``strategy`` overrides the artifact default — the
        structured batch entries pass the :meth:`plan_batch` choice through
        it (``"wavefront"`` runs items sequentially, the parallelism living
        inside each call).
        """
        items = list(items)
        start = time.perf_counter()
        results: List[Optional[object]] = [None] * len(items)
        errors: List[BatchItemError] = []

        # Thread pools do not propagate context variables, so the caller's
        # open trace span is captured here and re-attached inside each worker
        # — spans opened by ``fn`` in a pool thread join the submitting
        # call's trace instead of starting orphan traces.
        trace_ctx = observe_trace.capture()

        def run_range(lo: int, hi: int) -> List[BatchItemError]:
            local: List[BatchItemError] = []
            with observe_trace.attach(trace_ctx):
                for i in range(lo, hi):
                    try:
                        results[i] = fn(items[i])
                    except Exception as exc:  # per-item isolation
                        local.append(BatchItemError(index=i, error=exc))
            return local

        if strategy is None:
            strategy = (
                "threads"
                if self._is_c_backend and self.num_threads > 1 and len(items) > 0
                else "serial"
            )
        workers = 1
        if strategy == "threads":
            workers = min(self.num_threads, len(items))
            bounds = np.linspace(0, len(items), workers + 1).astype(int)
            with ThreadPoolExecutor(max_workers=workers) as pool:
                chunks = [
                    pool.submit(run_range, int(bounds[w]), int(bounds[w + 1]))
                    for w in range(workers)
                ]
                for chunk in chunks:
                    errors.extend(chunk.result())
            errors.sort(key=lambda e: e.index)
            mode = "threads"
        else:
            errors.extend(run_range(0, len(items)))
            # Wavefront batches loop over items sequentially; the recorded
            # worker count is the *within-kernel* pool width.
            if strategy == "wavefront":
                workers = self.num_threads
            mode = strategy
        return BatchResult(
            results=results,
            errors=errors,
            mode=mode,
            num_threads=workers,
            seconds=time.perf_counter() - start,
        )

    # ------------------------------------------------------------------ #
    def factorize_batch(
        self,
        Ap: np.ndarray,
        Ai: np.ndarray,
        values: Sequence[np.ndarray] | np.ndarray,
        *,
        check: Optional[Callable[[np.ndarray], None]] = None,
    ) -> BatchResult:
        """Run the factorization entry over a batch of value arrays.

        ``values`` is a sequence of per-item ``Ax`` arrays (or a ``(batch,
        nnz)`` array) on the compile-time pattern ``(Ap, Ai)``.  Returns the
        raw kernel outputs per item (``Lx``, ``(Lx, D)`` or ``(Lx, Ux)``
        depending on the kernel) — pass them through the artifact's
        ``assemble_factors`` for factor objects.  ``check``, when given, runs
        on each item's values before its kernel; what it raises fails that
        item alone.
        """
        value_list = [np.asarray(v, dtype=np.float64) for v in values]
        nnz = int(Ap[-1])
        for i, v in enumerate(value_list):
            if v.shape != (nnz,):
                raise ValueError(
                    f"value set {i} has shape {v.shape}, expected ({nnz},) "
                    "matching the compile-time pattern"
                )
        strategy, per_call_threads = self.plan_batch(len(value_list))
        entry = self.artifact.factorize_arrays

        def run(ax):
            if check is not None:
                check(ax)
            return entry(Ap, Ai, ax, num_threads=per_call_threads)

        return self.map(
            run,
            value_list,
            strategy=strategy if value_list else None,
        )

    # ------------------------------------------------------------------ #
    def solve_batch(
        self,
        Lp: np.ndarray,
        Li: np.ndarray,
        Lx: np.ndarray,
        B: Sequence[np.ndarray] | np.ndarray,
    ) -> BatchResult:
        """Run a triangular-solve entry over many right-hand sides.

        ``B`` is a sequence of RHS vectors (or a ``(batch, n)`` array); the
        factor value array ``Lx`` is shared by every item.  Requires a
        triangular-solve artifact (one exposing ``solve_arrays``).
        """
        entry = getattr(self.artifact, "solve_arrays", None)
        if entry is None:
            raise TypeError(
                "solve_batch requires a triangular-solve artifact (exposing "
                f"solve_arrays); got {type(self.artifact).__name__}"
            )
        rhs_list = [np.asarray(b, dtype=np.float64) for b in B]
        strategy, per_call_threads = self.plan_batch(len(rhs_list))
        return self.map(
            lambda b: entry(Lp, Li, Lx, b, num_threads=per_call_threads),
            rhs_list,
            strategy=strategy if rhs_list else None,
        )
