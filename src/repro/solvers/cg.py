"""Preconditioned conjugate gradient.

The paper motivates decoupled triangular solves with preconditioned iterative
solvers (§4.3): a triangular system is solved at every iteration, and solvers
commonly run hundreds or thousands of iterations on a fixed pattern, so a
one-time symbolic/codegen cost is negligible.  This module provides a CG
driver whose preconditioner applications use Sympiler-generated triangular
solves on an incomplete-Cholesky factor (IC(0): the factor is restricted to
the pattern of ``tril(A)``).

The IC(0) factorization itself is a Sympiler-generated kernel
(``Sympiler.compile("ic0", A)`` through the kernel table), so the whole
preconditioner pipeline — numeric factor and both triangular sweeps — runs
specialized code.  Its interpreted oracle is
:func:`repro.kernels.incomplete.ic0_left_looking` (bitwise equal, asserted by
the test-suite).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.compiler.options import SympilerOptions
from repro.compiler.sympiler import Sympiler
from repro.solvers.linear_solver import backward_factor
from repro.sparse.csc import CSCMatrix
from repro.sparse.utils import require_finite_values

__all__ = ["preconditioned_conjugate_gradient", "CGResult"]


@dataclass
class CGResult:
    """Outcome of a (preconditioned) conjugate-gradient run."""

    x: np.ndarray
    iterations: int
    converged: bool
    residual_norms: List[float]

    @property
    def final_residual(self) -> float:
        """Last recorded relative residual."""
        return self.residual_norms[-1] if self.residual_norms else float("nan")


def preconditioned_conjugate_gradient(
    A: CSCMatrix,
    b: np.ndarray,
    *,
    tol: float = 1e-8,
    max_iterations: int = 1000,
    use_preconditioner: bool = True,
    options: Optional[SympilerOptions] = None,
    num_threads: Optional[int] = None,
) -> CGResult:
    """Solve ``A x = b`` by CG, optionally IC(0)-preconditioned.

    Preconditioner applications ``M⁻¹ r = (L Lᵀ)⁻¹ r`` use two
    Sympiler-generated triangular solves that are compiled once before the
    iteration starts, on the factor of the compiled ``ic0`` kernel.
    A non-finite value in ``A`` raises ``ValueError`` before any kernel runs.

    ``num_threads`` fans each preconditioner triangular sweep's level sets
    across workers when the trisolves were compiled with
    ``parallel="wavefront"`` (serial kernels ignore it, bitwise identical
    either way) — the same knob, with the same precedence, as every other
    solve entry point: explicit argument > ``REPRO_NUM_THREADS`` > one per
    CPU (:func:`~repro.compiler.codegen.c_backend.resolve_num_threads`).
    """
    if not A.is_square():
        raise ValueError("CG requires a square matrix")
    b = np.asarray(b, dtype=np.float64)
    n = A.n
    if b.shape != (n,):
        raise ValueError(f"b must have shape ({n},)")
    require_finite_values(A)

    apply_preconditioner = None
    if use_preconditioner:
        sym = Sympiler(options)
        L = sym.compile("ic0", A).factorize(A)
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
    return CGResult(x=x, iterations=iterations, converged=converged, residual_norms=residual_norms)
