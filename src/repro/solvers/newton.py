"""Newton–Raphson with a fixed-sparsity Jacobian.

Section 1.2 and §4.3 of the paper motivate Sympiler with power-system and
circuit simulation: a Newton–Raphson solver factorizes a Jacobian whose
*pattern* is fixed by the network topology at every iteration, while its
*values* change.  This driver reproduces that pattern: the Jacobian pattern is
compiled once, and each iteration only re-runs the generated numeric
factorization and the triangular solves.

:func:`newton_raphson_ensemble` extends the scenario to *ensembles*: many
Newton solves whose Jacobians share one sparsity pattern (parameter sweeps,
perturbed operating points, Monte-Carlo load cases).  One compiled kernel
serves every member, and each iteration batch-factorizes the Jacobians of
all still-active members through one
:class:`~repro.solvers.batched.BatchedSolver` — with per-member error
isolation, so a singular member drops out while the rest keep converging.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.compiler.options import SympilerOptions
from repro.solvers.batched import BatchedSolver
from repro.solvers.linear_solver import SparseLinearSolver
from repro.sparse.csc import CSCMatrix

__all__ = ["newton_raphson_fixed_pattern", "newton_raphson_ensemble", "NewtonResult"]


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


def newton_raphson_ensemble(
    residual_fns: Sequence[Callable[[np.ndarray], np.ndarray]],
    jacobian_fns: Sequence[Callable[[np.ndarray], CSCMatrix]],
    x0s: Sequence[np.ndarray],
    *,
    tol: float = 1e-10,
    max_iterations: int = 50,
    damping: float = 1.0,
    options: Optional[SympilerOptions] = None,
    ordering: str = "mindeg",
    method: str = "cholesky",
    num_threads: Optional[int] = None,
) -> List[NewtonResult]:
    """Solve an ensemble of ``F_s(x_s) = 0`` systems with shared-pattern Jacobians.

    Every scenario ``s`` has its own residual/Jacobian callables and initial
    iterate, but all Jacobians must carry one sparsity pattern (the usual
    parameter-sweep situation: one network topology, many load cases).  One
    :class:`~repro.solvers.batched.BatchedSolver` is built from the first
    scenario's Jacobian; each iteration batch-factorizes the Jacobians of every
    still-active scenario concurrently and applies the Newton updates.

    A scenario whose Jacobian fails to factorize (singular/indefinite) stops
    iterating and reports ``converged=False``; the other scenarios are
    unaffected.  Results come back in scenario order.
    """
    if not (len(residual_fns) == len(jacobian_fns) == len(x0s)):
        raise ValueError("residual_fns, jacobian_fns and x0s must have equal length")
    n_scenarios = len(x0s)
    if n_scenarios == 0:
        return []
    xs = [np.array(x0, dtype=np.float64, copy=True) for x0 in x0s]
    norms: List[List[float]] = [[] for _ in range(n_scenarios)]
    converged = [False] * n_scenarios
    failed = [False] * n_scenarios
    factorizations = [0] * n_scenarios
    iterations = [0] * n_scenarios
    batched: Optional[BatchedSolver] = None

    for _ in range(max_iterations):
        active: List[int] = []
        residuals: List[np.ndarray] = []
        for s in range(n_scenarios):
            if converged[s] or failed[s]:
                continue
            F = np.asarray(residual_fns[s](xs[s]), dtype=np.float64)
            norms[s].append(float(np.linalg.norm(F)))
            if norms[s][-1] <= tol:
                converged[s] = True
                continue
            active.append(s)
            residuals.append(F)
        if not active:
            break
        jacobians = [jacobian_fns[s](xs[s]) for s in active]
        while batched is None and active:
            # Construction factorizes the pattern-defining Jacobian eagerly
            # (outside the batch's per-item isolation), so a scenario whose
            # very first Jacobian is singular must be dropped here — not
            # crash the whole ensemble — and the next scenario tried.
            try:
                batched = BatchedSolver(
                    jacobians[0],
                    method=method,
                    ordering=ordering,
                    options=options,
                    num_threads=num_threads,
                )
            except ValueError:
                s = active.pop(0)
                residuals.pop(0)
                jacobians.pop(0)
                failed[s] = True
                iterations[s] += 1
        if not active:
            continue
        handles = batched.factorize_batch(jacobians)
        for s, F, handle in zip(active, residuals, handles):
            iterations[s] += 1
            if not handle.ok:
                failed[s] = True
                continue
            factorizations[s] += 1
            dx = handle.solve(-F)
            xs[s] = xs[s] + damping * dx

    results: List[NewtonResult] = []
    for s in range(n_scenarios):
        if not converged[s] and not failed[s]:
            # Ran out of iterations: record the final residual like the
            # single-scenario driver does.
            F = np.asarray(residual_fns[s](xs[s]), dtype=np.float64)
            norms[s].append(float(np.linalg.norm(F)))
            converged[s] = bool(norms[s][-1] <= tol)
        results.append(
            NewtonResult(
                x=xs[s],
                iterations=iterations[s],
                converged=converged[s],
                residual_norms=norms[s],
                factorizations=factorizations[s],
            )
        )
    return results
