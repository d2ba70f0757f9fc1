"""Application-level solvers built on the Sympiler-generated kernels.

These drivers model the usage scenarios §1.2 of the paper motivates —
simulations where the sparsity pattern is fixed by the physical system while
numeric values change every step, so the one-time compile cost amortizes:

* :class:`repro.solvers.linear_solver.SparseLinearSolver` — factor once /
  solve many SPD solver (ordering → symbolic → generated numeric code).
* :class:`repro.solvers.batched.BatchedSolver` — the same solver over many
  value sets of its pattern at once, one factor handle per value set.
* :mod:`repro.solvers.cg` — conjugate gradient preconditioned by the
  compiled IC(0) module, whose solve entry applies both triangular sweeps.
* :mod:`repro.solvers.newton` — a Newton–Raphson loop with a fixed-sparsity
  Jacobian (the power-system / circuit-simulation scenario).
"""

from repro.solvers.batched import BatchedSolver, FactorHandle
from repro.solvers.cg import CGResult, preconditioned_conjugate_gradient
from repro.solvers.linear_solver import SparseLinearSolver, backward_factor
from repro.solvers.newton import NewtonResult, newton_raphson_fixed_pattern

__all__ = [
    "SparseLinearSolver",
    "BatchedSolver",
    "FactorHandle",
    "backward_factor",
    "preconditioned_conjugate_gradient",
    "CGResult",
    "newton_raphson_fixed_pattern",
    "NewtonResult",
]
