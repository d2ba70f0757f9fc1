"""The Sympiler core: symbolic-enabled code generation.

This package implements the paper's primary contribution — a domain-specific
code generator that

1. runs a *symbolic inspector* over the input sparsity pattern at compile
   time (:mod:`repro.symbolic`),
2. plans the one domain loop the requested method runs by making the
   decisions of the inspector-guided transformations **VS-Block** and
   **VI-Prune** (:mod:`repro.compiler.plan`): the paper's annotated loop
   nest (Fig. 2) reduced to what the backends read of it, and
3. emits the kernel of that loop through one of two backends — a C backend
   compiled with the system compiler and loaded through ``ctypes``, or fixed
   NumPy reference kernels over the same tables (always available)
   (:mod:`repro.compiler.codegen`).

The user-facing entry point is :class:`repro.compiler.sympiler.Sympiler`, a
generic driver over the kernel table (:mod:`repro.compiler.registry`):
each of the five kernels — triangular solve, Cholesky, LDLᵀ, LU and IC(0) —
is one :class:`~repro.compiler.registry.KernelSpec` row (its ``inspect_*``
function, plan function, artifact class and entry ABI) and is compiled
through the one entry ``Sympiler.compile(kernel, A[, rhs_pattern=])``
(``rhs_pattern`` for the triangular solve only), with compiled artifacts
cached by pattern fingerprint (:mod:`repro.compiler.cache`).  Each has a route that runs it: the
triangular solve and the three direct factorizations behind
:class:`~repro.solvers.linear_solver.SparseLinearSolver`, IC(0) as the
preconditioner of :func:`~repro.solvers.cg.preconditioned_conjugate_gradient`.
"""

from repro.compiler.artifacts import (
    CompileTimings,
    LDLTFactors,
    LUFactors,
    PatternMismatchError,
    SympiledCholesky,
    SympiledIC0,
    SympiledLDLT,
    SympiledLU,
    SympiledTriangularSolve,
)
from repro.compiler.cache import ArtifactCache, CacheStats
from repro.compiler.options import SympilerOptions
from repro.compiler.registry import (
    KernelSpec,
    UnknownKernelError,
    kernel_spec,
    registered_kernels,
)
from repro.compiler.sympiler import Sympiler

__all__ = [
    "Sympiler",
    "SympilerOptions",
    "SympiledTriangularSolve",
    "SympiledCholesky",
    "SympiledLDLT",
    "SympiledLU",
    "SympiledIC0",
    "LDLTFactors",
    "LUFactors",
    "PatternMismatchError",
    "CompileTimings",
    "ArtifactCache",
    "CacheStats",
    "KernelSpec",
    "UnknownKernelError",
    "kernel_spec",
    "registered_kernels",
]
