"""Preconditioned conjugate gradient.

The paper motivates decoupled triangular solves with preconditioned iterative
solvers (§4.3): a triangular system is solved at every iteration, and solvers
commonly run hundreds or thousands of iterations on a fixed pattern, so a
one-time symbolic/codegen cost is negligible.  This module provides a CG
driver preconditioned by an incomplete-Cholesky factor (IC(0): the factor is
restricted to the pattern of ``tril(A)``).

The IC(0) factorization is a Sympiler-generated kernel
(``Sympiler.compile("ic0", A)`` through the kernel table), and its module
exports a second entry, ``<kernel>_solve``, that applies ``(L Lᵀ)⁻¹`` on the
factor in place: the forward sweep on ``L`` and the backward sweep on ``Lᵀ``
read column by column, as the solve entry of a direct factorization does.  So
the whole preconditioner — numeric factor and both sweeps — is one compiled
module, bound once before the iteration starts.  The python backend's
``reference.ic0`` mirrors the C factorization to the bit, and both are checked
against a dense pattern-masked IC(0) by the test-suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.compiler.options import SympilerOptions
from repro.compiler.sympiler import Sympiler
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
) -> CGResult:
    """Solve ``A x = b`` by CG, optionally IC(0)-preconditioned.

    The preconditioner application ``z = M⁻¹ r = (L Lᵀ)⁻¹ r`` is one call of
    the compiled ``ic0`` module's solve entry, bound once before the
    iteration starts to the factor, ``r`` and ``z`` (identity ``perm``).
    A non-finite value in ``A`` raises ``ValueError`` before any kernel runs.
    """
    if not A.is_square():
        raise ValueError("CG requires a square matrix")
    b = np.asarray(b, dtype=np.float64)
    n = A.n
    if b.shape != (n,):
        raise ValueError(f"b must have shape ({n},)")
    require_finite_values(A)

    x = np.zeros(n, dtype=np.float64)
    r = b - A.matvec(x)
    z = np.empty(n, dtype=np.float64)
    if use_preconditioner:
        ic0 = Sympiler(options).compile("ic0", A)
        Lx = ic0.factorize_arrays(A.indptr, A.indices, A.data)
        identity = np.arange(n, dtype=np.int64)
        # r and z are updated in place below, so the bound call always reads
        # this iteration's residual.
        precondition = ic0.bind_solve((identity, Lx, r), (np.empty(n), z))
    else:

        def precondition() -> None:
            np.copyto(z, r)

    precondition()
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
        precondition()
        rz_new = float(np.dot(r, z))
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
    return CGResult(x=x, iterations=iterations, converged=converged, residual_norms=residual_norms)
