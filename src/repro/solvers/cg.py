"""Preconditioned conjugate gradient.

The paper motivates decoupled triangular solves with preconditioned iterative
solvers (§4.3): a triangular system is solved at every iteration, and solvers
commonly run hundreds or thousands of iterations on a fixed pattern, so a
one-time symbolic/codegen cost is negligible.  This module provides a CG
driver whose preconditioner applications use Sympiler-generated triangular
solves on an incomplete-Cholesky factor (IC(0): the factor is restricted to
the pattern of ``tril(A)``).

Two preconditioner constructions are available:

* ``"compiled"`` (the default) — the IC(0) *factorization itself* is a
  Sympiler-generated kernel (``Sympiler.compile("ic0", A)`` through the
  kernel registry), so the whole preconditioner pipeline — numeric factor and
  both triangular sweeps — runs specialized generated code.
* ``"interpreted"`` — the original :func:`incomplete_cholesky_ic0` NumPy
  loop, kept as the fallback and as the correctness oracle: on the python
  backend the compiled factor is **bitwise identical** to the interpreted
  one (asserted by the test-suite), so both paths produce the same iterates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.compiler.options import SympilerOptions
from repro.compiler.sympiler import Sympiler
from repro.solvers.linear_solver import backward_factor
from repro.sparse.csc import CSCMatrix
from repro.sparse.utils import lower_triangle

__all__ = [
    "incomplete_cholesky_ic0",
    "preconditioned_conjugate_gradient",
    "CGResult",
    "PRECONDITIONERS",
]

#: Valid ``preconditioner`` arguments of the PCG driver.
PRECONDITIONERS = ("compiled", "interpreted")


def incomplete_cholesky_ic0(A: CSCMatrix) -> CSCMatrix:
    """IC(0) factor: Cholesky restricted to the pattern of ``tril(A)``.

    No fill-in is allowed; dropped updates make ``L Lᵀ ≈ A``.  The input must
    be SPD (and is assumed H-matrix-like enough for IC(0) to exist; a clear
    error is raised otherwise).  This is the interpreted reference the
    compiled ``ic0`` registry kernel is validated against — bitwise, on the
    python backend.
    """
    if not A.is_square():
        raise ValueError("IC(0) requires a square matrix")
    L = lower_triangle(A)
    n = L.n
    indptr, indices = L.indptr, L.indices
    data = L.data.copy()
    for j in range(n):
        start, end = indptr[j], indptr[j + 1]
        if indices[start] != j:
            raise ValueError(f"missing diagonal entry in column {j}")
        d = data[start]
        if not d > 0.0:
            raise ValueError(f"IC(0) breakdown: non-positive pivot at column {j}")
        d = math.sqrt(d)
        data[start] = d
        data[start + 1 : end] /= d
        # Update later columns restricted to the existing pattern.
        rows_j = indices[start + 1 : end]
        vals_j = data[start + 1 : end]
        for idx, k in enumerate(rows_j):
            k = int(k)
            ljk = vals_j[idx]
            ks, ke = indptr[k], indptr[k + 1]
            rows_k = indices[ks:ke]
            # Subtract ljk * L(rows_k, j) for rows present in both columns.
            positions = np.searchsorted(rows_j, rows_k)
            valid = (positions < rows_j.size) & (
                rows_j[np.minimum(positions, rows_j.size - 1)] == rows_k
            )
            data[ks:ke][valid] -= ljk * vals_j[positions[valid]]
    return CSCMatrix(n, n, indptr.copy(), indices.copy(), data, check=False)


@dataclass
class CGResult:
    """Outcome of a (preconditioned) conjugate-gradient run."""

    x: np.ndarray
    iterations: int
    converged: bool
    residual_norms: List[float]
    #: Which preconditioner construction ran (``"compiled"``,
    #: ``"interpreted"`` or ``None`` for plain CG).
    preconditioner: Optional[str] = None

    @property
    def final_residual(self) -> float:
        """Last recorded relative residual."""
        return self.residual_norms[-1] if self.residual_norms else float("nan")


def _ic0_factor(
    A: CSCMatrix, preconditioner: str, options: SympilerOptions, sym: Sympiler
) -> CSCMatrix:
    """The IC(0) factor of ``A`` via the requested construction."""
    if preconditioner == "compiled":
        return sym.compile("ic0", A, options=options).factorize(A)
    if preconditioner == "interpreted":
        return incomplete_cholesky_ic0(A)
    raise ValueError(
        f"unknown preconditioner {preconditioner!r}; expected one of {PRECONDITIONERS}"
    )


def preconditioned_conjugate_gradient(
    A: CSCMatrix,
    b: np.ndarray,
    *,
    tol: float = 1e-8,
    max_iterations: int = 1000,
    use_preconditioner: bool = True,
    preconditioner: str = "compiled",
    options: Optional[SympilerOptions] = None,
    num_threads: Optional[int] = None,
) -> CGResult:
    """Solve ``A x = b`` by CG, optionally IC(0)-preconditioned.

    Preconditioner applications ``M⁻¹ r = (L Lᵀ)⁻¹ r`` use two
    Sympiler-generated triangular solves that are compiled once before the
    iteration starts; with ``preconditioner="compiled"`` (the default) the
    IC(0) numeric factorization is a generated registry kernel as well,
    ``"interpreted"`` keeps the NumPy reference loop (fallback and oracle —
    bitwise-identical iterates on the python backend).

    ``num_threads`` fans each preconditioner triangular sweep's level sets
    across workers when the trisolves were compiled with
    ``parallel="wavefront"`` (serial kernels ignore it, bitwise identical
    either way) — the same knob, with the same precedence, as every other
    solve entry point: see
    :func:`repro.runtime.engine.resolve_num_threads`, the canonical
    precedence documentation (explicit argument > ``REPRO_NUM_THREADS`` >
    ``options.num_threads``).
    """
    if not A.is_square():
        raise ValueError("CG requires a square matrix")
    b = np.asarray(b, dtype=np.float64)
    n = A.n
    if b.shape != (n,):
        raise ValueError(f"b must have shape ({n},)")

    apply_preconditioner = None
    used_preconditioner = None
    if use_preconditioner:
        options = options or SympilerOptions()
        sym = Sympiler(options)
        L = _ic0_factor(A, preconditioner, options, sym)
        used_preconditioner = preconditioner
        forward = sym.compile_triangular_solve(L, rhs_pattern=None)
        Lt_rev = backward_factor(L)
        backward = sym.compile_triangular_solve(Lt_rev, rhs_pattern=None)

        def apply_preconditioner(r: np.ndarray) -> np.ndarray:
            y = forward.solve_arrays(
                L.indptr, L.indices, L.data, r, num_threads=num_threads
            )
            z_rev = backward.solve_arrays(
                Lt_rev.indptr,
                Lt_rev.indices,
                Lt_rev.data,
                y[::-1].copy(),
                num_threads=num_threads,
            )
            return z_rev[::-1].copy()

    x = np.zeros(n, dtype=np.float64)
    r = b - A.matvec(x)
    z = apply_preconditioner(r) if apply_preconditioner else r.copy()
    p = z.copy()
    rz = float(np.dot(r, z))
    b_norm = max(float(np.linalg.norm(b)), 1e-300)
    residual_norms = [float(np.linalg.norm(r)) / b_norm]
    converged = residual_norms[-1] <= tol
    iterations = 0
    while not converged and iterations < max_iterations:
        Ap = A.matvec(p)
        alpha = rz / float(np.dot(p, Ap))
        x += alpha * p
        r -= alpha * Ap
        residual_norms.append(float(np.linalg.norm(r)) / b_norm)
        iterations += 1
        if residual_norms[-1] <= tol:
            converged = True
            break
        z = apply_preconditioner(r) if apply_preconditioner else r.copy()
        rz_new = float(np.dot(r, z))
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
    return CGResult(
        x=x,
        iterations=iterations,
        converged=converged,
        residual_norms=residual_norms,
        preconditioner=used_preconditioner,
    )
