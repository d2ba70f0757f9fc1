"""Compiled-artifact types returned by the Sympiler driver.

Every kernel of the table in :mod:`repro.compiler.registry` declares one
artifact class here.  An artifact bundles

* the specialized numeric entry point (``solve`` / ``factorize``) which only
  touches numeric arrays,
* the generated source, the applied transformations and the threshold
  decisions (for inspection, tests and ablation benchmarks), and
* a breakdown of the compile-time cost (symbolic inspection, transformation,
  code generation and compilation) — the quantities reported as "Sympiler
  (symbolic)" in Figures 8 and 9 of the paper.

Artifacts are immutable once built and are what the artifact cache stores, so
a cache hit returns the very same object (same timings, same generated code).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.compiler.codegen.c_backend import _C_METHOD_SPECS, CGeneratedModule
from repro.compiler.codegen.runtime import pattern_fingerprint, rhs_fingerprint_extra
from repro.compiler.options import SympilerOptions
from repro.compiler.plan import DomainLoop
from repro.observe import trace as observe_trace
from repro.sparse.csc import CSCMatrix
from repro.symbolic.inspector import (
    CholeskyInspectionResult,
    IC0InspectionResult,
    ILU0InspectionResult,
    LUInspectionResult,
    TriangularInspectionResult,
)

__all__ = [
    "CompileTimings",
    "PatternMismatchError",
    "CompiledArtifact",
    "SympiledFactorization",
    "SympiledTriangularSolve",
    "SympiledCholesky",
    "SympiledLDLT",
    "SympiledLU",
    "SympiledIC0",
    "SympiledILU0",
    "LDLTFactors",
    "LUFactors",
]


class PatternMismatchError(ValueError):
    """Raised when numeric inputs do not match the compile-time pattern."""


def _require_arrays(names, arrays, lengths, dtypes) -> None:
    """Raise ``ValueError`` naming the first array of the wrong length, dtype or layout.

    The generated kernels trust the compile-time sizes in their tables, so an
    array of another length would be read or written past its end; and they
    read raw addresses, so an array must already be C-contiguous of the
    entry's element type.
    """
    for name, array, expected in zip(names, arrays, lengths):
        if len(array) != expected:
            raise ValueError(f"{name} has length {len(array)}, expected {expected}")
    for name, array, dtype in zip(names, arrays, dtypes):
        if not (isinstance(array, np.ndarray) and array.dtype == dtype and array.flags.c_contiguous):
            raise ValueError(f"{name} must be a C-contiguous {np.dtype(dtype).name} array")


@dataclass(frozen=True)
class LDLTFactors:
    """The factors of ``A = L D Lᵀ``.

    ``L`` is unit lower triangular (the unit diagonal is stored explicitly so
    triangular-solve kernels need no special casing) and ``d`` holds the
    diagonal of ``D``; entries of ``d`` may be negative for indefinite input.
    """

    L: CSCMatrix
    d: np.ndarray

    @property
    def n(self) -> int:
        """Order of the factored matrix."""
        return self.L.n

    @property
    def inertia(self) -> tuple[int, int, int]:
        """``(n_positive, n_negative, n_zero)`` eigenvalue counts (Sylvester)."""
        return (
            int(np.sum(self.d > 0.0)),
            int(np.sum(self.d < 0.0)),
            int(np.sum(self.d == 0.0)),
        )

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` by forward, diagonal and backward substitution."""
        b = np.asarray(b, dtype=np.float64)
        L = self.L
        n = L.n
        y = b.copy()
        # Forward: L y = b (unit diagonal stored explicitly).
        for j in range(n):
            p0, p1 = L.indptr[j], L.indptr[j + 1]
            y[j] /= L.data[p0]
            y[L.indices[p0 + 1 : p1]] -= L.data[p0 + 1 : p1] * y[j]
        z = y / self.d
        # Backward: L^T x = z, column-at-a-time from the right.
        x = z.copy()
        for j in range(n - 1, -1, -1):
            p0, p1 = L.indptr[j], L.indptr[j + 1]
            x[j] -= float(L.data[p0 + 1 : p1] @ x[L.indices[p0 + 1 : p1]])
            x[j] /= L.data[p0]
        return x

    def reconstruct_dense(self) -> np.ndarray:
        """Dense ``L @ diag(d) @ L.T`` — the oracle for correctness tests."""
        Ld = self.L.to_dense()
        return Ld @ np.diag(self.d) @ Ld.T


@dataclass(frozen=True)
class LUFactors:
    """The factors of ``A = L U``.

    ``L`` is unit lower triangular (the unit diagonal is stored explicitly so
    triangular-solve kernels need no special casing) and ``U`` is upper
    triangular with the pivots on its diagonal (stored as the last entry of
    every column, rows ascending).
    """

    L: CSCMatrix
    U: CSCMatrix

    @property
    def n(self) -> int:
        """Order of the factored matrix."""
        return self.L.n

    @property
    def pivots(self) -> np.ndarray:
        """The diagonal of ``U`` (the elimination pivots)."""
        return self.U.data[self.U.indptr[1:] - 1].copy()

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` by forward then backward substitution."""
        b = np.asarray(b, dtype=np.float64)
        L, U = self.L, self.U
        n = L.n
        y = b.copy()
        # Forward: L y = b (unit diagonal stored explicitly).
        for j in range(n):
            p0, p1 = L.indptr[j], L.indptr[j + 1]
            y[j] /= L.data[p0]
            y[L.indices[p0 + 1 : p1]] -= L.data[p0 + 1 : p1] * y[j]
        # Backward: U x = y, column-at-a-time from the right (diagonal last).
        x = y.copy()
        for j in range(n - 1, -1, -1):
            p0, p1 = U.indptr[j], U.indptr[j + 1]
            xj = x[j] / U.data[p1 - 1]
            x[j] = xj
            x[U.indices[p0 : p1 - 1]] -= U.data[p0 : p1 - 1] * xj
        return x

    def reconstruct_dense(self) -> np.ndarray:
        """Dense ``L @ U`` — the oracle for correctness tests."""
        return self.L.to_dense() @ self.U.to_dense()


@dataclass
class CompileTimings:
    """Breakdown of the compile-time (symbolic) cost in seconds."""

    inspection: float = 0.0
    transformation: float = 0.0
    codegen: float = 0.0
    compile: float = 0.0

    @property
    def total(self) -> float:
        """Total symbolic (compile-time) cost."""
        return self.inspection + self.transformation + self.codegen + self.compile

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view used by the benchmark harness."""
        return {
            "inspection": self.inspection,
            "transformation": self.transformation,
            "codegen": self.codegen,
            "compile": self.compile,
            "total": self.total,
        }


@dataclass
class CompiledArtifact:
    """State shared by every compiled-kernel artifact type."""

    #: The domain loop the kernel runs (:mod:`repro.compiler.plan`); ``None``
    #: for the untransformed triangular solve.
    loop: Optional[DomainLoop] = field(repr=False)
    module: object = field(repr=False)
    #: The module's binder, ``entry(inputs, outputs) -> run()``
    #: (:meth:`~repro.compiler.codegen.c_backend.CMethodSpec.wrap`); reached
    #: through :meth:`bind`, which checks the arrays first.
    entry: callable = field(repr=False)
    options: SympilerOptions
    applied_transformations: List[str]
    decisions: Dict[str, object]
    timings: CompileTimings
    fingerprint: str
    #: Stored entries of the compile-time operand (``L`` or ``A``): the length
    #: every numeric call's index and value arrays must have.
    operand_nnz: int

    #: Registry name used in pattern-mismatch hints and trace-span labels.
    kernel_name = "kernel"
    #: The ``op`` label of the ``numeric`` trace span.
    numeric_op = "numeric"

    def _input_lengths(self) -> tuple:
        """The length every input array must have, in ABI order."""
        raise NotImplementedError

    def bind(self, inputs, outputs) -> Callable:
        """The numeric entry bound to ``inputs`` and ``outputs``, once.

        ``inputs`` are the entry's arrays in ABI order (``Lp, Li, Lx, b`` for
        a triangular solve, ``Ap, Ai, Ax`` for a factorization) and
        ``outputs`` the buffers it overwrites whole (``x``; ``Lx``, then
        ``D`` or ``Ux`` where the kernel has them).  Each array's length,
        dtype and layout are checked here: an array whose length is not the
        compile-time one raises ``ValueError`` naming it, and so does one
        that is not C-contiguous of the entry's element type.

        Returns ``call()``, which runs the kernel on those very arrays — it
        keeps them alive — and nothing else.  With tracing enabled, a call
        runs under a ``numeric`` span.
        """
        spec = _C_METHOD_SPECS[self.module.method]
        lengths = (*self._input_lengths(), *(getattr(self.inspection, attr) for _, attr in spec.outputs))
        return self._bind_entry(spec, self.entry, inputs, outputs, lengths, self.numeric_op)

    def _bind_entry(self, spec, entry, inputs, outputs, lengths, op: str) -> Callable:
        """:meth:`bind` of the entry whose ABI is ``spec`` and binder ``entry``; a traced call's span has ``op``."""
        arrays = (*inputs, *outputs)
        if len(arrays) != len(spec.names):
            raise TypeError(f"{self.kernel_name} binds the arrays {', '.join(spec.names)}; got {len(arrays)} arrays")
        _require_arrays(spec.names, arrays, lengths, spec.dtypes)
        for name, out in zip(spec.names[len(inputs) :], outputs):
            if not out.flags.writeable:
                raise ValueError(f"{name} must be writeable")
        run = entry(tuple(inputs), tuple(outputs))

        def call():
            if not observe_trace.enabled():
                return run()
            with observe_trace.span("numeric", kernel=self.kernel_name, op=op, fingerprint=self.fingerprint):
                run()

        # The C entry's address and arguments (CMethodSpec.wrap); None on the
        # python backend.
        call.c_call = getattr(run, "c_call", None)
        return call

    def raise_status(self, status: int) -> None:
        """Raise the error the C entry's non-zero ``status`` stands for, as a bound call does."""
        _C_METHOD_SPECS[self.module.method].raise_status(status)

    def new_outputs(self) -> tuple:
        """Zeroed output buffers of the compile-time lengths :meth:`bind` checks, in ABI order."""
        spec = _C_METHOD_SPECS[self.module.method]
        return tuple(np.zeros(getattr(self.inspection, attr)) for _, attr in spec.outputs)

    def _fresh_outputs(self, inputs):
        """Bind ``inputs`` (made contiguous of the entry's dtypes) to :meth:`new_outputs`, call once, return them.

        A bare array for one output, a tuple otherwise.
        """
        spec = _C_METHOD_SPECS[self.module.method]
        inputs = [np.ascontiguousarray(a, dtype=d) for a, d in zip(inputs, spec.dtypes)]
        outputs = self.new_outputs()
        self.bind(inputs, outputs)()
        return outputs[0] if len(outputs) == 1 else outputs

    @property
    def backend(self) -> str:
        """The backend that generated the module: ``"c"``, or ``"python"``, also where the driver fell back to it."""
        return "c" if isinstance(self.module, CGeneratedModule) else "python"

    @property
    def source(self) -> str:
        """The generated source code (Python or C depending on the backend)."""
        return self.module.source

    @property
    def constants(self) -> Dict[str, np.ndarray]:
        """The table block the kernel reads: sizes, then inspection sets, in ABI order.

        The same mapping on both backends (:mod:`repro.compiler.codegen.tables`).
        """
        return dict(self.module.constants)

    @property
    def symbolic_seconds(self) -> float:
        """Total compile-time (symbolic + codegen + compilation) cost."""
        return self.timings.total

    @property
    def parallel_mode(self) -> str:
        """``"serial-fallback"`` where ``parallel="wavefront"`` was asked of the C backend, else ``"none"``.

        Every kernel is serial either way (the source is the same); kept for
        its one caller, the wavefront rung of ``benchmarks/e2e``'s ladder.
        """
        return self.decisions.get("wavefront", {}).get("mode", "none")

    def _check_fingerprint(self, fp: str, hint: str) -> None:
        if fp != self.fingerprint:
            raise PatternMismatchError(
                "the matrix pattern differs from the pattern this kernel was "
                f"generated for; re-run {hint}"
            )


@dataclass
class SympiledTriangularSolve(CompiledArtifact):
    """A triangular solve specialized to one ``L`` pattern and RHS pattern."""

    inspection: TriangularInspectionResult = None
    kernel_name = "triangular-solve"
    numeric_op = "solve"

    def _input_lengths(self) -> tuple:
        n, nnz = self.inspection.n, self.operand_nnz
        return (n + 1, nnz, nnz, n)

    def solve(self, L: CSCMatrix, b: np.ndarray, *, check_pattern: bool = False) -> np.ndarray:
        """Solve ``L x = b`` with the specialized numeric code.

        ``L`` must have the same sparsity pattern (and ``b`` a nonzero pattern
        covered by the compile-time RHS pattern) as at compile time; set
        ``check_pattern=True`` to verify this (at the cost of hashing the
        pattern arrays).
        """
        if check_pattern:
            self.verify_pattern(L)
        return self.solve_arrays(L.indptr, L.indices, L.data, b)

    def solve_arrays(self, Lp: np.ndarray, Li: np.ndarray, Lx: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Raw-array entry point (numeric arrays only): :meth:`bind` to a fresh ``x``, call once.

        An array whose length is not the compile-time one raises
        ``ValueError`` before the kernel runs.
        """
        return self._fresh_outputs((Lp, Li, Lx, b))

    def verify_pattern(self, L: CSCMatrix) -> None:
        """Raise :class:`PatternMismatchError` if ``L`` has a different pattern."""
        extra = rhs_fingerprint_extra(self.inspection.n, self.inspection.rhs_pattern)
        fp = pattern_fingerprint(L.indptr, L.indices, extra=extra)
        self._check_fingerprint(fp, 'Sympiler.compile("triangular-solve", ...)')

    @property
    def reach_size(self) -> int:
        """Number of columns the specialized solve visits."""
        return self.inspection.reach_size


@dataclass
class SympiledFactorization(CompiledArtifact):
    """Shared behaviour of the factorization artifacts (LLᵀ, LDLᵀ, ...).

    The factor pattern, its fingerprint check and the numeric raw-array entry
    point are identical across factorization kernels; subclasses only shape
    the value of :meth:`factorize` (a factor matrix, an ``(L, D)`` pair, ...).
    """

    inspection: CholeskyInspectionResult = None
    #: Registry name shown in the pattern-mismatch hint.
    kernel_name = "factorization"
    #: Whether the kernel computes an *incomplete* (preconditioner-grade)
    #: factorization.  The direct solver refuses incomplete kernels — their
    #: factors only approximate ``A``, so they belong in an iterative
    #: method's preconditioner, not in a forward/backward solve.
    is_incomplete = False
    numeric_op = "factorize"

    def _input_lengths(self) -> tuple:
        n, nnz = self.inspection.n, self.operand_nnz
        return (n + 1, nnz, nnz)

    def factorize_arrays(
        self, Ap: np.ndarray, Ai: np.ndarray, Ax: np.ndarray, *, num_threads=None
    ):
        """Raw-array entry point: :meth:`bind` to fresh outputs, call once, return them.

        The outputs are the kernel's value arrays (``Lx``, ``(Lx, D)`` or
        ``(Lx, Ux)``).  An array whose length is not the compile-time one
        raises ``ValueError`` before the kernel runs.  ``num_threads`` is
        ignored (every kernel is serial); it is kept for its one caller, the
        wavefront rung of ``benchmarks/e2e``'s ladder.
        """
        return self._fresh_outputs((Ap, Ai, Ax))

    def bind_solve(self, inputs, outputs) -> Callable:
        """The module's solve entry bound to ``inputs`` and ``outputs``, once, as :meth:`bind` binds the kernel.

        ``inputs`` are ``perm``, the factor values in the kernel's output
        order (``Lx``; ``Lx, D``; or ``Lx, Ux``) and ``b``; ``outputs`` the
        work vector ``w`` and ``x``.  The call writes ``x`` solving
        ``A x = b``, ``A`` being the matrix whose symmetric permutation by
        ``perm`` this kernel factorizes.  It reads ``b`` whole before it
        writes ``x``, so ``x`` may be ``b``; ``w`` must be neither.  The direct
        factorizations (Cholesky, LDLᵀ, LU) and IC(0) have a solve entry;
        IC(0)'s applies the preconditioner ``(L Lᵀ)⁻¹``.  ILU(0) has none
        and raises ``TypeError``.
        """
        if self.module.solve_entry is None:
            raise TypeError(f"{self.kernel_name} has no solve entry")
        spec = _C_METHOD_SPECS[self.module.method]
        n = self.inspection.n
        lengths = (n, *(getattr(self.inspection, attr) for _, attr in spec.outputs), n, n, n)
        return self._bind_entry(spec.solve_spec, self.module.solve_entry, inputs, outputs, lengths, "solve")

    def verify_pattern(self, A: CSCMatrix) -> None:
        """Raise :class:`PatternMismatchError` if ``A`` has a different pattern."""
        fp = pattern_fingerprint(A.indptr, A.indices)
        self._check_fingerprint(fp, f'Sympiler.compile("{self.kernel_name}", ...)')

    def _assemble_factor(self, lx: np.ndarray) -> CSCMatrix:
        """Numeric factor values on the predicted pattern, as a CSC matrix."""
        return CSCMatrix(
            self.inspection.n,
            self.inspection.n,
            self.inspection.l_indptr,
            self.inspection.l_indices,
            lx,
            check=False,
        )

    def assemble_factors(self, raw):
        """Shape one raw ``factorize_arrays`` output into the factor object.

        :meth:`~repro.solvers.batched.BatchedSolver.factorize_batch` keeps raw
        per-item outputs off the artifact's entry point; this hook gives them
        the same shape ``factorize`` returns (a factor matrix, an ``(L, d)``
        pair, ...), so batched and sequential callers see identical types.
        The default serves the single-factor kernels (Cholesky, IC(0)), whose
        raw output is the ``Lx`` value array.
        """
        return self._assemble_factor(raw)

    def factorize(self, A: CSCMatrix, *, check_pattern: bool = False):
        """Factorize ``A`` (same pattern as at compile time).

        Returns the kernel's factor object — ``L`` (Cholesky, IC(0)),
        :class:`LDLTFactors` or :class:`LUFactors` (LU, ILU(0)); see
        :meth:`assemble_factors`.
        """
        if check_pattern:
            self.verify_pattern(A)
        return self.assemble_factors(self.factorize_arrays(A.indptr, A.indices, A.data))

    @property
    def factor_nnz(self) -> int:
        """Number of stored entries of the factor the kernel produces."""
        return self.inspection.factor_nnz

    @property
    def l_pattern(self) -> CSCMatrix:
        """The factor pattern (zero values), available before factorizing."""
        return self.inspection.l_pattern_matrix()


@dataclass
class SympiledCholesky(SympiledFactorization):
    """A Cholesky factorization specialized to one matrix pattern."""

    kernel_name = "cholesky"


@dataclass
class _SympiledLowerUpper(SympiledFactorization):
    """The ``(Lx, Ux)``-shaped kernels (LU, ILU(0)): two factor patterns."""

    def assemble_factors(self, raw) -> LUFactors:
        """The raw output is the ``(Lx, Ux)`` value-array pair."""
        lx, ux = raw
        insp = self.inspection
        U = CSCMatrix(
            insp.n,
            insp.n,
            insp.u_indptr,
            insp.u_indices,
            np.asarray(ux, dtype=np.float64),
            check=False,
        )
        return LUFactors(L=self._assemble_factor(lx), U=U)

    @property
    def u_pattern(self) -> CSCMatrix:
        """The ``U`` pattern (zero values), available before factorizing."""
        return self.inspection.u_pattern_matrix()


@dataclass
class SympiledLU(_SympiledLowerUpper):
    """An LU factorization specialized to one (unsymmetric) matrix pattern.

    Serves square diagonally dominant systems — the Newton Jacobians of the
    paper's circuit/power-grid workloads — without pivoting, which is what
    makes the factor patterns predictable at compile time.  ``factorize``
    returns :class:`LUFactors` whose unit lower-triangular ``L`` (explicit
    unit diagonal) feeds the generated triangular-solve kernels unchanged and
    whose upper-triangular ``U`` carries the pivots.
    """

    kernel_name = "lu"
    inspection: LUInspectionResult = None


@dataclass
class SympiledIC0(SympiledFactorization):
    """An incomplete Cholesky IC(0) specialized to one SPD pattern.

    The factor pattern is ``tril(A)`` (no fill), so ``factorize`` returns a
    lower-triangular ``L`` with ``L Lᵀ ≈ A`` — exact on the pattern of
    ``A``, the defining property of IC(0).  Built as a *preconditioner*
    kernel: its module's solve entry (:meth:`bind_solve`, with the identity
    ``perm``) applies ``(L Lᵀ)⁻¹`` on the factor in place, once per
    iteration of :func:`repro.solvers.cg.preconditioned_conjugate_gradient`;
    the direct solver refuses it.
    """

    kernel_name = "ic0"
    is_incomplete = True
    inspection: IC0InspectionResult = None


@dataclass
class SympiledILU0(_SympiledLowerUpper):
    """An incomplete LU ILU(0) specialized to one (unsymmetric) pattern.

    No fill, no pivoting: ``L`` is unit lower triangular on the strict lower
    triangle of ``A`` (explicit unit diagonal, so the generated
    triangular-solve kernels apply unchanged), ``U`` upper triangular on
    ``triu(A)``, and ``L U`` matches ``A`` exactly on the pattern of ``A``.
    A preconditioner kernel for unsymmetric iterative solves.
    """

    kernel_name = "ilu0"
    is_incomplete = True
    inspection: ILU0InspectionResult = None


@dataclass
class SympiledLDLT(SympiledFactorization):
    """An LDLᵀ factorization specialized to one symmetric matrix pattern.

    Serves symmetric *indefinite* systems (saddle-point/KKT matrices) that
    Cholesky rejects; ``factorize`` returns :class:`LDLTFactors` whose unit
    lower-triangular ``L`` (explicit unit diagonal) shares the Cholesky factor
    pattern, so the generated triangular-solve kernels apply to it unchanged.
    """

    kernel_name = "ldlt"

    def assemble_factors(self, raw) -> LDLTFactors:
        """The LDLᵀ raw output is the ``(Lx, D)`` value-array pair."""
        lx, d = raw
        return LDLTFactors(
            L=self._assemble_factor(lx), d=np.asarray(d, dtype=np.float64)
        )
