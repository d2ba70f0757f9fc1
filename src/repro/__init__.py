"""repro — a Python reproduction of Sympiler (Cheshmi et al., SC 2017).

Sympiler is a sparsity-aware code generator for sparse matrix algorithms: it
runs the symbolic analysis of a sparse kernel at compile time and generates
numeric code specialized to one sparsity pattern.  This package reproduces the
full system:

* :mod:`repro.sparse`   — CSC/COO containers, generators, orderings, permutations.
* :mod:`repro.symbolic` — reach-sets in the factor's own CSC pattern,
  elimination trees, fill prediction, supernodes and the symbolic-inspector
  framework.
* :mod:`repro.kernels`  — the FLOP model behind every reported GFLOP/s.
* :mod:`repro.compiler` — the Sympiler core: the inspector-guided
  transformations (VS-Block, VI-Prune), planned as the one domain loop each kernel runs, and code generation (generated C, and
  fixed NumPy reference kernels over the same tables).
* :mod:`repro.baselines` — dense NumPy/SciPy correctness oracles.
* :mod:`repro.solvers`  — factor-once/solve-many driver, the
  :class:`~repro.solvers.batched.BatchedSolver` over many value sets of one
  pattern, preconditioned CG and Newton–Raphson loops
  with a fixed-sparsity Jacobian.
* :mod:`repro.bench`    — the paper-figure reproducer: one experiment table
  and one runner for Table 2, Figs. 6-9 and §4.3, generated C against native
  scipy (the product itself is measured by ``benchmarks/e2e``).
* :mod:`repro.frontend` — the lazy-specializing, scipy-native front end:
  ``repro.solve(A, b)`` with kernel auto-selection and a per-structure
  specialization cache, plus the ``@sympiled`` decorator.
* :mod:`repro.observe`  — unified observability: pipeline spans hold the
  time (zero-cost when disabled), one metrics registry pulls every stats
  surface's counters, and JSON/Chrome-trace/Prometheus exporters read them.
* :mod:`repro.service`  — the serving layer behind one
  :class:`~repro.service.endpoint.SolverEndpoint` surface at three scales:
  the in-process :class:`SolverService`, the pipelined request-id wire
  protocol with :class:`ServiceClient`, and the sharded
  :class:`ShardFleet` (fingerprint routing, warm in-place shard failover).

Quickstart::

    import numpy as np
    import scipy.sparse as sp
    import repro

    A = sp.random_array((500, 500), density=0.01)
    A = (A @ A.T + 500 * sp.eye_array(500)).tocsc()   # any scipy SPD matrix
    x = repro.solve(A, np.ones(500))    # probe + specialize + solve
    x = repro.solve(A, np.arange(500))  # same structure: numeric-only
"""

from repro._version import __version__
from repro.compiler import (
    LDLTFactors,
    LUFactors,
    SympiledCholesky,
    SympiledIC0,
    SympiledLDLT,
    SympiledLU,
    SympiledTriangularSolve,
    Sympiler,
    SympilerOptions,
    kernel_spec,
    registered_kernels,
)
from repro.sparse import (
    CSCMatrix,
    COOMatrix,
    Permutation,
    TripletBuilder,
    banded_spd,
    block_tridiagonal_spd,
    circuit_like_spd,
    fem_stencil_2d,
    laplacian_2d,
    laplacian_3d,
    power_grid_spd,
    random_spd,
    saddle_point_indefinite,
    sparse_rhs,
    unsymmetric_diag_dominant,
)
from repro.solvers import BatchedSolver, SparseLinearSolver, preconditioned_conjugate_gradient

__all__ = [
    "__version__",
    "solve",
    "sympiled",
    "SpecializedSolver",
    "SolverService",
    "PatternHandle",
    "ServiceClient",
    "ShardFleet",
    "SolverEndpoint",
    "Sympiler",
    "SympilerOptions",
    "SympiledCholesky",
    "SympiledTriangularSolve",
    "SympiledLDLT",
    "SympiledLU",
    "SympiledIC0",
    "preconditioned_conjugate_gradient",
    "LDLTFactors",
    "LUFactors",
    "kernel_spec",
    "registered_kernels",
    "SparseLinearSolver",
    "BatchedSolver",
    "CSCMatrix",
    "COOMatrix",
    "TripletBuilder",
    "Permutation",
    "laplacian_2d",
    "laplacian_3d",
    "fem_stencil_2d",
    "banded_spd",
    "block_tridiagonal_spd",
    "random_spd",
    "circuit_like_spd",
    "power_grid_spd",
    "saddle_point_indefinite",
    "unsymmetric_diag_dominant",
    "sparse_rhs",
]

#: PEP 562 lazy re-exports.  The serving layer: importing :mod:`repro` must
#: not drag sockets/servers in, and the service package imports the solver
#: stack (which this module is still initializing at import time).  The
#: front end: ``repro.solve(A, b)`` is the public entry point of the whole
#: stack, resolved on first use for the same initialization-order reason.
_LAZY_SERVICE = {
    "SolverService": "repro.service.session",
    "PatternHandle": "repro.service.session",
    "ServiceClient": "repro.service.client",
    "ShardFleet": "repro.service.fleet",
    "SolverEndpoint": "repro.service.endpoint",
    "solve": "repro.frontend.specialized",
    "sympiled": "repro.frontend.specialized",
    "SpecializedSolver": "repro.frontend.specialized",
}


def __getattr__(name: str):
    module_name = _LAZY_SERVICE.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value
