"""Factor-once / solve-many direct sparse linear solver.

Combines the pieces of the library into the workflow a downstream user wants:

1. choose a fill-reducing ordering,
2. compile specialized factorization and triangular-solve kernels for the
   (permuted) pattern through the kernel table — ``method="cholesky"`` for
   SPD systems, ``method="ldlt"`` for symmetric indefinite (saddle-point/KKT)
   systems, ``method="lu"`` for unsymmetric diagonally dominant systems
   (Newton Jacobians),
3. factorize numeric values — repeatedly, as they change — and solve systems
   with forward/backward substitution.

Every kernel compile goes through the Sympiler artifact cache, so repeated
refactorizations and the backward sweep reuse the compiled kernels whenever
the factor pattern is unchanged instead of re-running inspection and code
generation.

The backward substitution (``Lᵀ z = y``, or ``U z = y`` for LU) is performed
as a specialized solve on an upper-triangular pattern that becomes lower
triangular after reversing the index order, so the same generated-kernel
machinery covers both sweeps.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.compiler.artifacts import CompiledArtifact, SympiledFactorization
from repro.compiler.cache import CacheStats
from repro.compiler.codegen.c_backend import CGeneratedModule, resolve_num_threads
from repro.compiler.options import SympilerOptions
from repro.compiler.registry import UnknownKernelError, kernel_spec
from repro.compiler.sympiler import Sympiler
from repro.observe.trace import attach, capture, span
from repro.sparse.csc import CSCMatrix
from repro.sparse.ordering import ordering_by_name
from repro.sparse.permutation import Permutation
from repro.sparse.utils import require_finite_values
from repro.symbolic import native

__all__ = ["SparseLinearSolver", "backward_factor", "map_items"]


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

    workers = min(num_threads, len(items)) if isinstance(artifact.module, CGeneratedModule) else 1
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
    triangular-solve kernel handles directly.  This is the one *symbolic*
    definition of the operand (a transpose plus a COO round-trip): a
    :class:`SparseLinearSolver` runs it once, on index-valued factors, and
    every numeric operand after that is a gather
    (:meth:`SparseLinearSolver.backward_operand`).
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
        Fill-reducing ordering name (``"natural"``, ``"mindeg"``/``"amd"``,
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
        # Any factorization kernel whose result follows the L-factor
        # protocol (a lower-triangular factor, or an object exposing it as
        # `.L` with an optional diagonal `.d`) works here without solver
        # changes; kernels with a different solve recipe (e.g. a future LU's
        # upper sweep) still need an explicit solve path.
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
                "use it as a preconditioner instead (SparseLinearSolver.pcg "
                "or repro.solvers.preconditioned_conjugate_gradient)"
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
        # The rest of the plan needs only the factor *patterns*, which the
        # compiled factorization predicts.  The backward operand's pattern and
        # its gather from the factor values (U's for LU, L's otherwise) come
        # from one symbolic backward_factor on index-valued patterns; the
        # probe then stays as the operand itself — factorize() gathers the
        # values into it.
        L_pattern = self._factorization.l_pattern
        U_pattern = getattr(self._factorization, "u_pattern", None)
        if U_pattern is None:
            self._Lt = backward_factor(_index_valued(L_pattern))
        else:
            self._Lt = backward_factor(L_pattern, _index_valued(U_pattern))
        self._backward_gather = self._Lt.data.astype(np.int64)
        # The triangular-solve kernels depend only on the factor *pattern*,
        # which is fixed per solver instance, so they are compiled once; the
        # shared artifact cache additionally dedupes them across solver
        # instances working on the same pattern.
        self._forward = self._sympiler.compile(
            "triangular-solve", L_pattern, options=self.options
        )
        self._backward = self._sympiler.compile(
            "triangular-solve", self._Lt, options=self.options
        )
        # The sweeps' vectors — permuted b, y, reversed y, reversed z — and
        # the gather n-1-inv that takes reversed z to the caller's order.
        # Both sweeps are bound, once, to the owned factors and these
        # buffers (below), so a solve on the current factors runs on
        # prebuilt addresses (see _sweep).
        n = A.n
        self._buffers = tuple(np.zeros(n) for _ in range(4))
        self._unreverse = (n - 1) - self.permutation.inv
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
        # here, once; both sweeps are bound to them here too.  They are
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
        self._sweeps = self._bind_sweeps(self._L, self._Lt, self._buffers)
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
    def compiled_artifacts(self) -> tuple:
        """The compiled artifacts this solver holds (factorization + sweeps).

        The solver owns them by reference: they live as long as it does,
        whatever the shared artifact cache later evicts.
        """
        return (self._factorization, self._forward, self._backward)

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
        factor arrays, one gather fills the backward operand.  Nothing is
        allocated or bound: every array written here is one the solver has
        held, at the same address, since construction, and both sweeps stay
        bound to them.

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
        source = self._L if self._U is None else self._U
        np.take(source.data, self._backward_gather, out=self._Lt.data, mode="clip")
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

    def backward_operand(self, L: CSCMatrix, U: Optional[CSCMatrix] = None) -> CSCMatrix:
        """:func:`backward_factor` of factors on this solver's patterns.

        Bitwise the same matrix, built by one gather of the factor values
        into the backward pattern fixed at construction.
        """
        source = L if U is None else U
        return self._Lt.with_values(source.data[self._backward_gather])

    # ------------------------------------------------------------------ #
    def solve_with_factors(
        self,
        b: np.ndarray,
        *,
        L: CSCMatrix,
        d: Optional[np.ndarray] = None,
        Lt: Optional[CSCMatrix] = None,
        U: Optional[CSCMatrix] = None,
        out: Optional[np.ndarray] = None,
        num_threads: Optional[int] = None,
    ) -> np.ndarray:
        """Solve ``A x = b`` using explicitly supplied numeric factors.

        ``L``/``d``/``U`` must carry the patterns this solver was compiled
        for (they normally come from a batched factorization of a same-
        pattern matrix); ``Lt`` is the precomputed backward operand
        (:meth:`backward_operand`) and is derived from ``L``/``U`` when
        omitted.  The compiled forward/backward triangular kernels depend
        only on those fixed patterns, so they are shared by every factor set.
        ``out`` optionally receives the solution in place (the final
        un-permutation gathers directly into it).
        ``num_threads`` applies when the trisolves were compiled with
        ``parallel="wavefront"``: both sweeps fan each level set across that
        many workers (``None`` defers to ``REPRO_NUM_THREADS``, then one per
        CPU; serial kernels ignore it), bitwise identical to serial either
        way.  These factors are not the solver's own, so both sweeps are
        bound to them, and to vectors of this call's own, per call.
        """
        b, out = self._checked(b, out)
        if Lt is None:
            Lt = self.backward_operand(L, U)
        buffers = tuple(np.empty(self.A.n) for _ in range(4))
        return self._sweep(self._bind_sweeps(L, Lt, buffers), buffers, d, b, out, num_threads)

    def _checked(self, b, out) -> Tuple[np.ndarray, np.ndarray]:
        """``b`` as float64 and the array the answer goes to, both checked before any sweep runs."""
        n = self.A.n
        b = np.asarray(b, dtype=np.float64)
        if b.shape != (n,):
            raise ValueError(f"b must have shape ({n},)")
        if out is None:
            return b, np.empty(n)
        if out.shape != (n,) or out.dtype != np.float64:
            raise ValueError(f"out must be a float64 array of shape ({n},)")
        return b, out

    def _bind_sweeps(self, L: CSCMatrix, Lt: CSCMatrix, buffers) -> tuple:
        """Both compiled sweeps bound to factors and to ``(pb, y, y_rev, z_rev)``."""
        pb, y, y_rev, z_rev = buffers
        return (
            self._forward.bind((L.indptr, L.indices, L.data, pb), (y,)),
            self._backward.bind((Lt.indptr, Lt.indices, Lt.data, y_rev), (z_rev,)),
        )

    def _sweep(self, sweeps, buffers, d, b, out, num_threads) -> np.ndarray:
        """``x`` into ``out`` by bound sweeps: permute, forward, ``/ d``, reverse, backward, un-permute.

        ``b`` and ``out`` come from :meth:`_checked`; every other step writes
        into ``buffers``, the vectors the sweeps are bound to (see
        :meth:`_bind_sweeps`).
        """
        forward, backward = sweeps
        pb, y, y_rev, z_rev = buffers
        # mode="clip" throughout: the default "raise" buffers `out` in a temporary.
        np.take(b, self.permutation.perm, out=pb, mode="clip")
        forward(num_threads)
        if d is not None:
            # LDL^T: diagonal solve between the two triangular sweeps.
            np.divide(y, d, out=y)
        # Backward substitution via the reversed transposed factor.
        np.copyto(y_rev, y[::-1])
        backward(num_threads)
        # Un-reverse and un-permute in one gather straight into out.
        np.take(z_rev, self._unreverse, out=out, mode="clip")
        return out

    def _solve_current(
        self, b: np.ndarray, out: Optional[np.ndarray], num_threads: Optional[int]
    ) -> np.ndarray:
        """The two sweeps on the current factors, bound at construction (the caller holds the lock)."""
        self._require_factors()
        b, out = self._checked(b, out)
        return self._sweep(self._sweeps, self._buffers, self._d, b, out, num_threads)

    def _require_factors(self) -> None:
        if not self._factored:
            raise RuntimeError("the last factorize() failed; there are no factors to solve with")

    def solve(
        self,
        b: np.ndarray,
        *,
        out: Optional[np.ndarray] = None,
        num_threads: Optional[int] = None,
    ) -> np.ndarray:
        """Solve ``A x = b`` (``out``/``num_threads`` as in :meth:`solve_with_factors`)."""
        with self._lock:
            return self._solve_current(b, out, num_threads)

    def step(self, values: np.ndarray, b: np.ndarray, *, num_threads: Optional[int] = None) -> Tuple[np.ndarray, bool]:
        """The warm step: ``x`` solving ``A(values) x = b``, and whether it refactorized.

        ``values`` are the matrix nonzeros in the input order of the solver's
        pattern (length ``A.nnz``; the caller vouches for the pattern — that
        is what makes the step numeric only).  When they equal the values the
        current factors came from, the step is the two sweeps; otherwise the
        compiled kernel runs first, between its two gathers, as one call bound
        at construction (:meth:`_refactorize`): a warm step allocates no
        factor and binds nothing.  This is the one
        numeric path of every layer above the artifact — the front end calls
        it per solve, the service once per request — and it holds
        the solver's lock throughout, so concurrent callers with different
        values each get the answer to their own system.

        A value set the kernel rejects raises the kernel's error and leaves
        the solver without factors, so repeating it fails again rather than
        matching the snapshot.  A non-finite value set raises ``ValueError``
        before the kernel runs and leaves the solver as it was.
        """
        with self._lock:
            refactorized = not self._factored or not np.array_equal(self._values, values)
            if refactorized:
                if np.shape(values) != self._values.shape:
                    raise ValueError(f"values must have shape {self._values.shape}")
                self._refactorize(values)
                self.A = self._A_current
            return self._solve_current(b, None, num_threads), refactorized

    def solve_many(self, B: np.ndarray, *, num_threads: Optional[int] = None) -> np.ndarray:
        """Solve ``A X = B`` column by column (``B`` is ``n × k``).

        The thread count is ``num_threads``, then ``REPRO_NUM_THREADS``, then 1
        (:func:`~repro.compiler.codegen.c_backend.resolve_num_threads`); with
        the C backend and more than one thread the columns run on a thread
        pool (:func:`map_items`), and they come back in order either way.
        """
        B = np.asarray(B, dtype=np.float64)
        if B.ndim != 2 or B.shape[0] != self.A.n:
            raise ValueError(f"B must have shape ({self.A.n}, k)")
        num_threads = resolve_num_threads(num_threads)
        with self._lock:
            self._require_factors()
            # The columns may run on several threads at once, so each binds
            # the sweeps to vectors of its own instead of the solver's.
            L, d, Lt = self._L, self._d, self._Lt
            results, errors = map_items(
                lambda b: self.solve_with_factors(b, L=L, d=d, Lt=Lt),
                [B[:, k] for k in range(B.shape[1])],
                artifact=self._forward,
                num_threads=num_threads,
            )
        for error in errors:
            if error is not None:
                raise error
        return np.column_stack(results)

    def pcg(
        self,
        b: np.ndarray,
        *,
        tol: float = 1e-8,
        max_iterations: int = 1000,
        num_threads: Optional[int] = None,
    ):
        """Solve ``A x = b`` iteratively by IC(0)-preconditioned CG.

        The iterative companion of :meth:`solve` for SPD systems: instead of
        the complete factorization this solver was built with, it runs
        conjugate gradient preconditioned by the compiled ``ic0`` registry
        kernel.  All compiles go through the shared artifact cache, so
        repeated ``pcg`` calls on this pattern reuse the generated IC(0) and
        triangular-solve kernels.  ``num_threads`` behaves exactly as in
        :meth:`solve` — the single precedence rule for every entry point is
        documented on :func:`~repro.compiler.codegen.c_backend.resolve_num_threads`.
        Returns a :class:`~repro.solvers.cg.CGResult`.

        Constructing a :class:`SparseLinearSolver` eagerly compiles and runs
        the *complete* factorization, which ``pcg`` does not use — call
        :func:`repro.solvers.preconditioned_conjugate_gradient` directly for
        iterative-only workloads; this method serves callers who already
        hold a direct solver and want the iterative answer too.
        """
        from repro.solvers.cg import preconditioned_conjugate_gradient

        return preconditioned_conjugate_gradient(
            self.A,
            b,
            tol=tol,
            max_iterations=max_iterations,
            options=self.options,
            num_threads=num_threads,
        )

    def residual(self, x: np.ndarray, b: np.ndarray) -> float:
        """Relative residual of a computed solution."""
        r = self.A.matvec(x) - np.asarray(b, dtype=np.float64)
        return float(np.linalg.norm(r) / max(np.linalg.norm(b), 1.0))
