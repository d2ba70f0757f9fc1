"""The kernel table: one row per sparse kernel.

The paper's pipeline (symbolic inspection → inspector-guided transformation →
code generation) is the same for every numerical method; what differs per
kernel is *which* inspection runs, *which* plan function picks the domain loop
from it, *what* artifact the user gets back and the *ABI* of the entry point
both backends bind.  A :class:`KernelSpec` row declares exactly those, once,
and the :class:`~repro.compiler.sympiler.Sympiler` driver walks the row
generically.  The rows form one static table, ``_KERNELS``, keyed by name:
adding a kernel means adding a row there plus its code (emitter, reference
kernel, tables, plan function and artifact class), not editing the driver or
a backend.  There is no registration API and no alias; a name that is not in
the table raises :class:`UnknownKernelError`.

The kernels:

====================  ===========================================  ==============================
name                  inspect                                      artifact
====================  ===========================================  ==============================
``triangular-solve``  :func:`inspect_normalized_triangular_solve`  :class:`SympiledTriangularSolve`
``cholesky``          :func:`inspect_cholesky`                     :class:`SympiledCholesky`
``ldlt``              :func:`inspect_cholesky`                     :class:`SympiledLDLT`
``lu``                :func:`inspect_lu`                           :class:`SympiledLU`
``ic0``               :func:`inspect_ic0`                          :class:`SympiledIC0`
====================  ===========================================  ==============================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.compiler.artifacts import (
    SympiledCholesky,
    SympiledIC0,
    SympiledLDLT,
    SympiledLU,
    SympiledTriangularSolve,
)
from repro.compiler.codegen.c_backend import CMethodSpec
from repro.compiler.plan import (
    CompilationContext,
    DomainLoop,
    plan_cholesky,
    plan_incomplete,
    plan_lu,
    plan_triangular_solve,
)
from repro.symbolic.inspector import (
    inspect_cholesky,
    inspect_ic0,
    inspect_lu,
    inspect_normalized_triangular_solve,
)

__all__ = [
    "KernelSpec",
    "UnknownKernelError",
    "kernel_spec",
    "registered_kernels",
]


class UnknownKernelError(ValueError):
    """Raised when no kernel of the table has the requested name."""


@dataclass(frozen=True)
class KernelSpec:
    """One compilable kernel.

    Attributes
    ----------
    name:
        Canonical kernel name; also the ``method`` of the compilation context
        and of the generated module.
    inspect:
        The inspection (:mod:`repro.symbolic.inspector`): the pattern (and,
        for the triangular solve, the normalized RHS pattern) -> the
        inspection result.
    plan:
        The plan function (:mod:`repro.compiler.plan`): the compilation
        context -> the domain loop the kernel runs (``None`` for the
        untransformed triangular solve), recording the decisions on the way.
    artifact_cls:
        The compiled-artifact class the driver instantiates.
    abi:
        The entry point's arrays, failure text, the domain-loop roles it can
        be printed from and whether the module exports a solve entry
        (:class:`~repro.compiler.codegen.c_backend.CMethodSpec`); both
        backends bind it, and the module keeps it as ``module.abi``.
    """

    name: str
    inspect: Callable
    plan: Callable[[CompilationContext], Optional[DomainLoop]]
    artifact_cls: type
    abi: CMethodSpec

    @property
    def factorization(self) -> bool:
        """Whether the kernel factors ``A``: every kernel with a solve entry does.

        A factorization takes no RHS pattern and needs VI-Prune (the numeric
        left-looking factorizations need the predicted factor pattern — the
        paper makes the same observation in the caption of Figure 7).
        """
        return self.abi.solve


_FACTOR_INPUTS = (("Ap", "int64_t"), ("Ai", "int64_t"), ("Ax", "double"))
_ZERO_PIVOT = "matrix is singular (zero pivot) at column {column}"
_LEFT_LOOKING = ("supernodal-cholesky", "simplicial-cholesky")

_SPECS = (
    KernelSpec(
        name="triangular-solve",
        inspect=inspect_normalized_triangular_solve,
        plan=plan_triangular_solve,
        artifact_cls=SympiledTriangularSolve,
        abi=CMethodSpec(
            inputs=(("Lp", "int64_t"), ("Li", "int64_t"), ("Lx", "double"), ("b", "double")),
            outputs=(("x", "n"),),
            loops=("trisolve-segments", "untransformed"),
        ),
    ),
    KernelSpec(
        name="cholesky",
        inspect=inspect_cholesky,
        plan=plan_cholesky,
        artifact_cls=SympiledCholesky,
        abi=CMethodSpec(
            inputs=_FACTOR_INPUTS,
            outputs=(("Lx", "factor_nnz"),),
            loops=_LEFT_LOOKING,
            failure="matrix is not positive definite at column {column}",
            solve=True,
        ),
    ),
    KernelSpec(
        name="ldlt",
        inspect=inspect_cholesky,
        plan=plan_cholesky,
        artifact_cls=SympiledLDLT,
        abi=CMethodSpec(
            inputs=_FACTOR_INPUTS,
            outputs=(("Lx", "factor_nnz"), ("D", "n")),
            loops=_LEFT_LOOKING,
            failure=_ZERO_PIVOT,
            solve=True,
        ),
    ),
    KernelSpec(
        name="lu",
        inspect=inspect_lu,
        plan=plan_lu,
        artifact_cls=SympiledLU,
        abi=CMethodSpec(
            inputs=_FACTOR_INPUTS,
            outputs=(("Lx", "l_nnz"), ("Ux", "u_nnz")),
            loops=("simplicial-lu",),
            failure=_ZERO_PIVOT,
            solve=True,
        ),
    ),
    KernelSpec(
        name="ic0",
        inspect=inspect_ic0,
        plan=plan_incomplete,
        artifact_cls=SympiledIC0,
        abi=CMethodSpec(
            inputs=_FACTOR_INPUTS,
            outputs=(("Lx", "factor_nnz"),),
            loops=("incomplete-cholesky",),
            failure="IC(0) breakdown: non-positive pivot at column {column}",
            solve=True,
        ),
    ),
)

#: Name → spec of every kernel the driver compiles.
_KERNELS: Dict[str, KernelSpec] = {spec.name: spec for spec in _SPECS}


def kernel_spec(name: str) -> KernelSpec:
    """The spec of the kernel called ``name``."""
    spec = _KERNELS.get(name)
    if spec is None:
        raise UnknownKernelError(f"no kernel named {name!r}; available: {sorted(_KERNELS)}")
    return spec


def registered_kernels() -> Tuple[str, ...]:
    """The names of every kernel, sorted."""
    return tuple(sorted(_KERNELS))
