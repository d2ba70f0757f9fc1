"""Newton–Raphson with a fixed-sparsity Jacobian.

Section 1.2 and §4.3 of the paper motivate Sympiler with power-system and
circuit simulation: a Newton–Raphson solver factorizes a Jacobian whose
*pattern* is fixed by the network topology at every iteration, while its
*values* change.  This driver reproduces that pattern: the Jacobian pattern is
compiled once, and each iteration only re-runs the generated numeric
factorization and the triangular solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.compiler.options import SympilerOptions
from repro.solvers.linear_solver import SparseLinearSolver
from repro.sparse.csc import CSCMatrix

__all__ = ["newton_raphson_fixed_pattern", "NewtonResult"]


@dataclass
class NewtonResult:
    """Outcome of a Newton–Raphson run."""

    x: np.ndarray
    iterations: int
    converged: bool
    residual_norms: List[float]
    factorizations: int

    @property
    def final_residual(self) -> float:
        """Norm of the residual at the last iterate."""
        return self.residual_norms[-1] if self.residual_norms else float("nan")


def newton_raphson_fixed_pattern(
    residual_fn: Callable[[np.ndarray], np.ndarray],
    jacobian_fn: Callable[[np.ndarray], CSCMatrix],
    x0: np.ndarray,
    *,
    tol: float = 1e-10,
    max_iterations: int = 50,
    damping: float = 1.0,
    options: Optional[SympilerOptions] = None,
    ordering: str = "mindeg",
    method: str = "cholesky",
) -> NewtonResult:
    """Solve ``F(x) = 0`` with Newton's method and a fixed Jacobian pattern.

    Parameters
    ----------
    residual_fn:
        Evaluates ``F(x)``.
    jacobian_fn:
        Evaluates the Jacobian at ``x``.  Every returned matrix must carry
        the same sparsity pattern; the solver (and the generated code) is
        built from the first one and reused for all later iterations.
    x0:
        Initial iterate.
    damping:
        Step-size multiplier (1.0 = full Newton steps).
    method:
        Factorization kernel: ``"cholesky"`` for SPD Jacobians, ``"lu"`` for
        the unsymmetric diagonally dominant Jacobians of circuit/power-flow
        problems (§1.2 of the paper).
    """
    x = np.array(x0, dtype=np.float64, copy=True)
    residual_norms: List[float] = []
    solver: Optional[SparseLinearSolver] = None
    factorizations = 0
    for iteration in range(max_iterations):
        F = np.asarray(residual_fn(x), dtype=np.float64)
        res_norm = float(np.linalg.norm(F))
        residual_norms.append(res_norm)
        if res_norm <= tol:
            return NewtonResult(
                x=x,
                iterations=iteration,
                converged=True,
                residual_norms=residual_norms,
                factorizations=factorizations,
            )
        J = jacobian_fn(x)
        if solver is None:
            solver = SparseLinearSolver(J, method=method, ordering=ordering, options=options)
        else:
            solver.factorize(J)
        factorizations += 1
        dx = solver.solve(-F)
        x = x + damping * dx
    F = np.asarray(residual_fn(x), dtype=np.float64)
    residual_norms.append(float(np.linalg.norm(F)))
    return NewtonResult(
        x=x,
        iterations=max_iterations,
        converged=bool(residual_norms[-1] <= tol),
        residual_norms=residual_norms,
        factorizations=factorizations,
    )
