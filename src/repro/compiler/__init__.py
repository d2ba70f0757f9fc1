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
generic driver over the kernel registry (:mod:`repro.compiler.registry`):
every kernel — triangular solve, Cholesky, LDLᵀ, LU, IC(0), ILU(0) — is
declared once as a
:class:`~repro.compiler.registry.KernelSpec` and compiled through the same
``compile(kernel_name, pattern, options)`` path, with compiled artifacts
cached by pattern fingerprint (:mod:`repro.compiler.cache`).
"""

from repro.compiler.artifacts import (
    CompileTimings,
    LDLTFactors,
    LUFactors,
    PatternMismatchError,
    SympiledCholesky,
    SympiledIC0,
    SympiledILU0,
    SympiledLDLT,
    SympiledLU,
    SympiledTriangularSolve,
)
from repro.compiler.cache import ArtifactCache, CacheStats
from repro.compiler.options import SympilerOptions
from repro.compiler.registry import (
    DuplicateKernelError,
    KernelRegistry,
    KernelSpec,
    UnknownKernelError,
    default_registry,
    kernel_spec,
    register_kernel,
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
    "SympiledILU0",
    "LDLTFactors",
    "LUFactors",
    "PatternMismatchError",
    "CompileTimings",
    "ArtifactCache",
    "CacheStats",
    "KernelSpec",
    "KernelRegistry",
    "DuplicateKernelError",
    "UnknownKernelError",
    "default_registry",
    "register_kernel",
    "kernel_spec",
    "registered_kernels",
]
