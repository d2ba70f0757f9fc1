"""Factor-once / solve-many direct sparse linear solver.

Combines the pieces of the library into the workflow a downstream user wants:

1. choose a fill-reducing ordering,
2. compile a specialized factorization kernel for the permuted pattern
   through the kernel table — ``method="cholesky"`` for SPD systems,
   ``method="ldlt"`` for symmetric indefinite (saddle-point/KKT) systems,
   ``method="lu"`` for unsymmetric diagonally dominant systems (Newton
   Jacobians),
3. factorize numeric values — repeatedly, as they change — and solve systems
   with forward/backward substitution.

Every kernel compile goes through the Sympiler artifact cache, so repeated
refactorizations reuse the compiled kernel whenever the factor pattern is
unchanged instead of re-running inspection and code generation.

The solve is the factorization module's second entry point: one generated
call permutes ``b``, runs the forward sweep on ``L``, divides by ``D``
(LDLᵀ), runs the backward sweep on the same ``L`` read column by column
(``Lᵀ z = y``), or on ``U`` for LU, and un-permutes into ``x``.  No
triangular-solve kernel is compiled and no transposed copy of a factor is
kept.
"""

from __future__ import annotations

import ctypes
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.compiler.artifacts import CompiledArtifact, SympiledFactorization
from repro.compiler.cache import CacheStats
from repro.compiler.codegen.c_backend import resolve_num_threads
from repro.compiler.options import SympilerOptions
from repro.compiler.registry import UnknownKernelError, kernel_spec
from repro.compiler.sympiler import Sympiler
from repro.observe.trace import attach, capture, span
from repro.observe.trace import enabled as tracing_enabled
from repro.sparse.csc import CSCMatrix
from repro.sparse.ordering import ordering_by_name
from repro.sparse.permutation import Permutation
from repro.sparse.utils import require_finite_values, require_real
from repro.symbolic import native

__all__ = ["OTHER_PATTERN", "SparseLinearSolver", "backward_factor", "map_items"]

_F64 = np.dtype(np.float64)
# An array's address as _addressof(_from_buffer(array)): cold, less than half
# the cost of array.ctypes.data.  A read-only, strided or empty array raises
# TypeError or ValueError.
_addressof, _from_buffer = ctypes.addressof, ctypes.c_char.from_buffer

#: What :meth:`SparseLinearSolver._native_step` answers for another pattern.
OTHER_PATTERN = object()

#: No pattern check: ``index_bytes`` 0 and no pointers.
_NO_PATTERN = (0, None, None, None, None)


def map_items(
    fn: Callable, items: Sequence, *, artifact: CompiledArtifact, num_threads: int
) -> Tuple[List, List[Optional[Exception]]]:
    """``fn`` over ``items``: ``(results, errors)``, both in input order.

    A C artifact's calls release the GIL and its work buffers are
    ``_Thread_local``, so with ``num_threads > 1`` (already resolved) the
    items are dealt to that many pool threads in contiguous chunks; anything
    else runs in a loop.  An item that raises leaves ``None`` in ``results``
    and its exception in ``errors`` (``None`` for an item that ran), and the
    other items run on.  Pool threads do not inherit context variables, so
    the caller's trace context is attached in each one: spans opened by
    ``fn`` join the caller's trace.
    """
    results: List = [None] * len(items)
    errors: List[Optional[Exception]] = [None] * len(items)
    trace_ctx = capture()

    def run(lo: int, hi: int) -> None:
        with attach(trace_ctx):
            for i in range(lo, hi):
                try:
                    results[i] = fn(items[i])
                except Exception as exc:  # fails this item alone
                    errors[i] = exc

    workers = min(num_threads, len(items)) if artifact.backend == "c" else 1
    if workers > 1:
        bounds = np.linspace(0, len(items), workers + 1).astype(int)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = [pool.submit(run, bounds[w], bounds[w + 1]) for w in range(workers)]
            for chunk in chunks:
                chunk.result()
    else:
        run(0, len(items))
    return results, errors


def backward_factor(L: CSCMatrix, U: Optional[CSCMatrix] = None) -> CSCMatrix:
    """The backward-sweep operand, lower triangular in reversed index order.

    The backward substitution solves ``Lᵀ z = y`` (symmetric methods) or
    ``U z = y`` (LU); either matrix is upper triangular, and reversing both
    its row and column order turns the sweep into an ordinary forward
    substitution on a lower-triangular matrix, which the generated
    triangular-solve kernel handles directly.  A transpose plus a COO
    round-trip, kept for :attr:`SparseLinearSolver.compiled_artifacts`,
    whose backward triangular solve is compiled on this operand's pattern;
    every product solve (the solver's, and PCG's IC(0) preconditioner)
    reads its factor in place through the module's solve entry instead.
    """
    upper = U if U is not None else L.transpose()
    n = upper.n
    reverse = Permutation(np.arange(n - 1, -1, -1, dtype=np.int64))
    return reverse.symmetric_permute(upper)


def _index_valued(M: CSCMatrix) -> CSCMatrix:
    """``M``'s pattern carrying each entry's storage index as its value.

    Pushed through a symbolic operation, the result's values read back as
    the gather that replays the operation on any later value set.
    """
    return M.with_values(np.arange(M.nnz, dtype=np.float64))


class SparseLinearSolver:
    """Direct solver: ordering + Sympiler-generated factorization kernels.

    Parameters
    ----------
    A:
        Square matrix (full storage): SPD for ``method="cholesky"``,
        symmetric indefinite allowed for ``method="ldlt"``, unsymmetric
        diagonally dominant for ``method="lu"`` (no pivoting is performed).
        Accepts anything the front-end ingest layer understands — a
        :class:`~repro.sparse.csc.CSCMatrix` (used as-is, no copy), a
        ``scipy.sparse`` matrix, a COO triplet tuple, or a dense 2-D array
        (see :func:`repro.frontend.ingest.ingest`).
    method:
        Factorization kernel to compile — a complete factorization of the
        kernel table (``"cholesky"``, ``"ldlt"`` or ``"lu"``).
    ordering:
        Fill-reducing ordering name (``"natural"``, ``"mindeg"`` or
        ``"rcm"``); orderings are symmetric permutations computed on the
        pattern of ``A + Aᵀ``, so the diagonal stays on the diagonal for
        unsymmetric input.
    options:
        Sympiler code-generation options.

    Examples
    --------
    >>> from repro.sparse import laplacian_2d
    >>> import numpy as np
    >>> A = laplacian_2d(10)
    >>> solver = SparseLinearSolver(A, ordering="mindeg")
    >>> b = np.ones(A.n)
    >>> x = solver.solve(b)
    >>> float(np.linalg.norm(A.matvec(x) - b)) < 1e-8
    True
    """

    def __init__(
        self,
        A,
        *,
        method: str = "cholesky",
        ordering: str = "mindeg",
        options: Optional[SympilerOptions] = None,
    ) -> None:
        if not isinstance(A, CSCMatrix):
            # Lazy: the front-end ingest layer is import-light, but keeping
            # the CSCMatrix fast path free of it preserves the historical
            # import graph (and the ingest of a CSCMatrix is the identity
            # anyway — same object, no copy).
            from repro.frontend.ingest import as_csc

            A = as_csc(A)
        if not A.is_square():
            raise ValueError("SparseLinearSolver requires a square matrix")
        self.A = A
        self.options = options or SympilerOptions()
        self.ordering_name = ordering
        self._sympiler = Sympiler(self.options)
        # Any factorization kernel of the table works here: its module
        # carries the solve entry of its factors (Lx; Lx, D; or Lx, Ux).
        try:
            spec = kernel_spec(method)
        except UnknownKernelError as exc:
            raise ValueError(f"unknown factorization method {method!r}: {exc}") from exc
        if not issubclass(spec.artifact_cls, SympiledFactorization):
            raise ValueError(
                f"kernel {spec.name!r} is not a factorization method "
                "(its artifact does not provide factorize())"
            )
        if getattr(spec.artifact_cls, "is_incomplete", False):
            raise ValueError(
                f"kernel {spec.name!r} is an incomplete factorization — its "
                "factors only approximate A and cannot back a direct solve; "
                "use it as a preconditioner instead "
                "(repro.solvers.preconditioned_conjugate_gradient)"
            )
        self.method = spec.name
        t0 = time.perf_counter()
        with span("ordering", name=ordering, n=A.n, nnz=A.nnz) as sp:
            self.permutation: Permutation = ordering_by_name(ordering)(A)
            sp.set(native=native.helper() is not None)
        # The pattern-only numeric plan, built here and nowhere else: every
        # later value set reaches the kernels through two gathers.  Permuting
        # an index-valued copy of A once yields both the permuted pattern and
        # the input-order -> permuted-order value gather.
        probe = self.permutation.symmetric_permute(_index_valued(A))
        self._value_gather = probe.data.astype(np.int64)
        self.A_permuted = probe.with_values(A.data[self._value_gather])
        self._factorization = self._sympiler.compile(spec.name, self.A_permuted)
        self.setup_seconds = time.perf_counter() - t0
        # The solve entry's vectors: the caller's b is copied in, x copied
        # out, so every address the entry reads is bound once (below).
        self._perm = np.ascontiguousarray(self.permutation.perm)
        self._b, self._w, self._x = (np.zeros(A.n) for _ in range(3))
        # The two triangular solves of compiled_artifacts, compiled on first access.
        self._sweep_artifacts: Optional[tuple] = None
        # The input-order values the current factors came from: a private
        # snapshot (the caller may edit A.data in place), and, wrapped on A's
        # pattern, what `self.A` becomes once step() has moved on from A.
        self._values = A.data.copy()
        self._A_current = A.with_values(self._values)
        # One lock around everything that reads or replaces the factors and
        # the plan's buffers (factorize, solve, step, solve_many, L / d / U).
        self._lock = threading.Lock()
        # The factor arrays the kernel writes (Lx; Lx, D; or Lx, Ux), owned
        # for the solver's lifetime: every refactorization overwrites them
        # whole, through a kernel bound to them and to A_permuted's arrays
        # here, once; the solve entry is bound to them here too.  They are
        # allocated last, after every long-lived block of the set-up, so
        # they cannot sit in space the set-up's temporaries left free: with
        # the factor allocated mid-set-up, benchmarks/e2e's newton_2d ended
        # between 83 and 102 MB peak RSS from run to run, with it allocated
        # last, at 85-87 MB every time.
        self._outputs = self._factorization.new_outputs()
        self._set_factors(
            self._factorization.assemble_factors(self._outputs if len(self._outputs) > 1 else self._outputs[0])
        )
        permuted = self.A_permuted
        self._kernel = self._factorization.bind((permuted.indptr, permuted.indices, permuted.data), self._outputs)
        self._solve = self._factorization.bind_solve((self._perm, *self._outputs, self._b), (self._w, self._x))
        # The same two entries and arrays behind one native call: the warm
        # step of step() from the value check to x.  None without the native
        # helper or a C module; step() composes the step then.
        helper = native.helper()
        self._warm = None
        if helper is not None:
            self._warm = helper.bind_warm_step(
                self._kernel,
                self._solve,
                snapshot=self._values,
                gather=self._value_gather,
                permuted=permuted.data,
                b=self._b,
            )
        self._factored = False
        # Numeric work last, through the one refactorization path (not
        # factorize(), whose copy of L nobody here would read).
        with self._lock:
            self._refactorize(A.data)

    # ------------------------------------------------------------------ #
    @property
    def L(self) -> Optional[CSCMatrix]:
        """A copy of the current lower-triangular factor of the permuted matrix.

        The solver refactorizes into arrays it owns, so it hands out copies:
        a factor read here is never overwritten by a later refactorization.
        ``None`` while the solver is without factors (see :meth:`factorize`);
        so are :attr:`d` and :attr:`U`.
        """
        with self._lock:
            return self._copy_of(self._L)

    @property
    def d(self) -> Optional[np.ndarray]:
        """A copy of the LDLᵀ pivot vector (``None`` for the other methods)."""
        with self._lock:
            return self._copy_of(self._d)

    @property
    def U(self) -> Optional[CSCMatrix]:
        """A copy of the upper-triangular LU factor (``None`` for the symmetric methods)."""
        with self._lock:
            return self._copy_of(self._U)

    def _copy_of(self, factor):
        """A copy of one owned factor, ``None`` without factors (the caller holds the lock)."""
        if factor is None or not self._factored:
            return None
        if isinstance(factor, CSCMatrix):
            return factor.with_values(factor.data.copy())
        return factor.copy()

    @property
    def factor_nnz(self) -> int:
        """Stored entries of the factor."""
        return self._factorization.factor_nnz

    @property
    def artifact_cache(self):
        """The artifact cache the underlying Sympiler driver compiles through."""
        return self._sympiler.cache

    @property
    def factorization(self) -> SympiledFactorization:
        """The compiled factorization: its kernel refactorizes, its solve entry solves."""
        return self._factorization

    @property
    def compiled_artifacts(self) -> tuple:
        """The factorization and the triangular solves of its factor patterns: ``(factorization, forward, backward)``.

        The solver itself runs the factorization alone (its solve entry reads
        the factors in place); the two triangular solves — on ``L``'s pattern
        and on :func:`backward_factor`'s — are compiled on first access,
        through the shared artifact cache, for callers that run the sweeps
        one by one.  The solver holds them by reference: they live as long
        as it does, whatever the shared cache later evicts.
        """
        if self._sweep_artifacts is None:
            L = self._factorization.l_pattern
            operands = (L, backward_factor(L, getattr(self._factorization, "u_pattern", None)))
            self._sweep_artifacts = tuple(
                self._sympiler.compile("triangular-solve", M, options=self.options) for M in operands
            )
        return (self._factorization, *self._sweep_artifacts)

    @property
    def cache_stats(self) -> CacheStats:
        """Artifact-cache counters of the underlying Sympiler driver.

        The driver uses the *process-wide shared* cache by default, so these
        counters aggregate every Sympiler in the process — useful for
        deltas around an operation, not as per-solver totals.
        """
        return self._sympiler.cache_stats

    def factorize(self, A=None) -> CSCMatrix:
        """(Re-)factorize; ``A`` may carry new values on the same pattern.

        Like the constructor, ``A`` may be anything the ingest layer accepts
        (``scipy.sparse``, triplets, dense) — it is converted first and then
        pattern-checked against the solver's matrix.  Past that check the
        call is the numeric refactorization of :meth:`step`, unconditionally.
        A value set that fails keeps :attr:`A` at the last matrix that
        factorized: a non-finite value raises ``ValueError`` and leaves the
        factors as they were; if the kernel raises, the solver is left without
        factors and :meth:`solve` refuses until a factorization succeeds.
        Returns a copy of the new ``L``, as :attr:`L` does.
        """
        if A is not None:
            if not isinstance(A, CSCMatrix):
                from repro.frontend.ingest import as_csc

                A = as_csc(A)
            if not A.pattern_equal(self.A):
                raise ValueError(
                    "the new matrix must have the same sparsity pattern; "
                    "build a new SparseLinearSolver for a different pattern"
                )
        with self._lock:
            self._refactorize(self.A.data if A is None else A.data)
            if A is not None:
                self.A = A
            return self._copy_of(self._L)

    def _refactorize(self, values: np.ndarray) -> None:
        """Factors of the input-order ``values`` (the caller holds the lock).

        Numeric only: the snapshot takes the values, one gather puts them in
        permuted order, the kernel bound at construction overwrites the owned
        factor arrays.  Nothing is allocated or bound: every array written
        here is one the solver has held, at the same address, since
        construction, and the solve entry stays bound to them.

        A non-finite value is refused first, before anything is touched: no
        kernel here pivots, and the Cholesky -> LDLᵀ escape of the front end
        would otherwise turn the breakdown into a NaN answer.  A kernel that
        raises may have written part of the factors, so the solver is without
        factors until the next success, which overwrites every output whole.
        """
        require_finite_values(self.A, values)
        np.copyto(self._values, values)
        # mode="clip": the default "raise" buffers `out` in a temporary.
        np.take(self._values, self._value_gather, out=self.A_permuted.data, mode="clip")
        self._factored = False
        self._kernel()
        self._factored = True

    def _set_factors(self, result) -> None:
        """Hold the owned factors, wrapped once around the kernel's outputs.

        Duck-typed factor protocol: composite results expose the (unit)
        lower-triangular factor as ``.L``, an optional between-sweeps
        diagonal as ``.d`` (LDL^T) and an optional explicit upper factor as
        ``.U`` (LU, whose backward sweep runs on U instead of L^T); a bare
        factor matrix (Cholesky) is its own L.
        """
        self._L = getattr(result, "L", result)
        self._d = getattr(result, "d", None)
        self._U = getattr(result, "U", None)

    def permute_values(self, values: np.ndarray) -> np.ndarray:
        """Input-order pattern values in permuted-pattern order (one gather)."""
        return values[self._value_gather]

    # ------------------------------------------------------------------ #
    def solve_with_factors(
        self,
        b: np.ndarray,
        *,
        L: CSCMatrix,
        d: Optional[np.ndarray] = None,
        U: Optional[CSCMatrix] = None,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Solve ``A x = b`` using explicitly supplied numeric factors.

        ``L``/``d``/``U`` must carry the patterns this solver was compiled
        for (they normally come from a batched factorization of a same-
        pattern matrix), ``d`` for LDLᵀ and ``U`` for LU.  The factorization's
        solve entry depends only on those fixed patterns, so it serves every
        factor set: these factors are not the solver's own, so it is bound
        to them, and to a work vector of this call's own, per call.  ``out``
        optionally receives the solution in place.
        """
        b, out = np.ascontiguousarray(self._rhs(b)), self._out(out)
        n = self.A.n
        x = out if out is not None and out.flags.c_contiguous else np.empty(n)
        factors = (L.data, *(f for f in (d, None if U is None else U.data) if f is not None))
        self._factorization.bind_solve((self._perm, *factors, b), (np.empty(n), x))()
        if out is not None and x is not out:
            np.copyto(out, x)
        return x if out is None else out

    def _rhs(self, b) -> np.ndarray:
        """``b`` as float64, checked before the entry runs."""
        require_real(b, "b")
        b = np.asarray(b, dtype=np.float64)
        if b.shape != (self.A.n,):
            raise ValueError(f"b must have shape ({self.A.n},)")
        return b

    def _out(self, out) -> Optional[np.ndarray]:
        """``out``, checked before the entry runs."""
        if out is not None:
            if out.shape != (self.A.n,) or out.dtype != np.float64:
                raise ValueError(f"out must be a float64 array of shape ({self.A.n},)")
            if not out.flags.writeable:
                raise ValueError("out must be writeable")
        return out

    def _solve_current(self, b: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
        """The solve entry on the current factors, bound at construction (the caller holds the lock).

        ``b`` goes in and ``x`` comes out through the solver's own vectors,
        so a strided ``b`` or ``out``, or an ``out`` that is ``b``, reach the
        entry as contiguous vectors.
        """
        self._require_factors()
        b, out = self._rhs(b), self._out(out)
        np.copyto(self._b, b)
        self._solve()
        if out is None:
            return self._x.copy()
        np.copyto(out, self._x)
        return out

    def _require_factors(self) -> None:
        if not self._factored:
            raise RuntimeError("the last factorize() failed; there are no factors to solve with")

    def solve(self, b: np.ndarray, *, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Solve ``A x = b``: one call of the solve entry bound at construction.

        ``out`` optionally receives the solution in place (it may be ``b``
        itself, or a strided view).
        """
        with self._lock:
            return self._solve_current(b, out)

    def step(self, values: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, bool]:
        """The warm step: ``x`` solving ``A(values) x = b``, and whether it refactorized.

        ``values`` are the matrix nonzeros in the input order of the solver's
        pattern (length ``A.nnz``; the caller vouches for the pattern — that
        is what makes the step numeric only).  When they equal the values the
        current factors came from (``==``, so ``-0.0`` equals ``0.0``), the
        step solves on the current factors; otherwise the values go into the
        snapshot, through the gather and the compiled kernel first.  On a
        C module with the native helper loaded, and for ``values``
        and ``b`` that are writable, C-contiguous ``float64`` arrays of the
        exact shape, the whole step is one native call
        (``repro_warm_step``, bound at construction); anything else composes
        the same step in Python, call by call (:meth:`_refactorize`, then the
        solve entry), to the same bits.  Either way a warm step allocates no
        factor and binds nothing.  This is the one numeric path of every
        layer above the artifact — the front end calls it per solve, the
        service once per request — and it holds the solver's lock
        throughout, so concurrent callers with different values each get the
        answer to their own system.  With tracing enabled, the native call runs in one
        ``numeric`` span (``op="step"``, ``refactorized``).

        A value set the kernel rejects raises the kernel's error and leaves
        the solver without factors, so repeating it fails again rather than
        matching the snapshot.  A non-finite value set raises ``ValueError``
        before the kernel runs and leaves the solver as it was.
        """
        out = self._native_step(values, b)
        if out is not None:
            return out
        with self._lock:
            refactorized = not self._factored or not np.array_equal(self._values, values)
            if refactorized:
                if np.shape(values) != self._values.shape:
                    raise ValueError(f"values must have shape {self._values.shape}")
                self._refactorize(values)
                self.A = self._A_current
            return self._solve_current(b, None), refactorized

    def _native_step(self, values, b, pattern=_NO_PATTERN):
        """:meth:`step` in one native call: ``(x, refactorized)``, or ``None`` where the composed step runs.

        ``pattern`` is ``(index_bytes, indptr, indices, ref_indptr,
        ref_indices)`` as addresses: with it, the call first checks the
        caller's pattern against the reference copy and answers
        :data:`OTHER_PATTERN`, having touched nothing, when they differ.
        """
        warm = self._warm
        try:
            if (
                warm is None
                or values.dtype is not _F64
                or b.dtype is not _F64
                or values.shape != self._values.shape
                or b.shape != self._b.shape
            ):
                return None
            args = (_addressof(_from_buffer(values)), _addressof(_from_buffer(b)))
        except (AttributeError, TypeError, ValueError):  # not an array; read-only, strided or empty
            return None
        with self._lock:
            args += (not self._factored, *pattern)
            if not tracing_enabled():
                status = warm(*args)
            else:
                factorization = self._factorization
                with span(
                    "numeric", kernel=factorization.kernel_name, op="step", fingerprint=factorization.fingerprint
                ) as sp:
                    status = warm(*args)
                    sp.set(refactorized=status == native.WARM_REFACTORED)
            if status == native.WARM_SOLVED:
                return self._x.copy(), False
            if status == native.WARM_REFACTORED:
                self._factored = True
                self.A = self._A_current
                return self._x.copy(), True
            if status == native.WARM_OTHER_PATTERN:
                return OTHER_PATTERN
            if status == native.WARM_NONFINITE:
                require_finite_values(self.A, values)  # raises: nothing was touched
            self._factored = False
            self._factorization.raise_status(status)

    def solve_many(self, B: np.ndarray, *, num_threads: Optional[int] = None) -> np.ndarray:
        """Solve ``A X = B`` column by column (``B`` is ``n × k``, ``k`` may be 0).

        The thread count is ``num_threads``, then ``REPRO_NUM_THREADS``, then 1
        (:func:`~repro.compiler.codegen.c_backend.resolve_num_threads`); with
        the C backend and more than one thread the columns run on a thread
        pool (:func:`map_items`), and they come back in order either way.
        """
        require_real(B, "B")
        B = np.asarray(B, dtype=np.float64)
        if B.ndim != 2 or B.shape[0] != self.A.n:
            raise ValueError(f"B must have shape ({self.A.n}, k)")
        num_threads = resolve_num_threads(num_threads)
        # Column-major, so every column the entry reads or writes is contiguous.
        B = np.asfortranarray(B)
        X = np.empty_like(B, order="F")
        with self._lock:
            self._require_factors()
            # The columns may run on several threads at once, so each binds
            # the solve entry to a work vector of its own instead of the solver's.
            inputs = (self._perm, *self._outputs)
            _, errors = map_items(
                lambda k: self._factorization.bind_solve((*inputs, B[:, k]), (np.empty(self.A.n), X[:, k]))(),
                range(B.shape[1]),
                artifact=self._factorization,
                num_threads=num_threads,
            )
        for error in errors:
            if error is not None:
                raise error
        return X

    def residual(self, x: np.ndarray, b: np.ndarray) -> float:
        """Relative residual of a computed solution."""
        r = self.A.matvec(x) - np.asarray(b, dtype=np.float64)
        return float(np.linalg.norm(r) / max(np.linalg.norm(b), 1.0))
