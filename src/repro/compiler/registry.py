"""The kernel table: one declarative spec per sparse kernel.

The paper's pipeline (symbolic inspection → inspector-guided transformation →
code generation) is the same for every numerical method; what differs per
kernel is *which* inspector runs, *which* plan function picks the domain loop
from its inspection and *what* artifact the user gets back.  A
:class:`KernelSpec` declares exactly those ingredients once, and the
:class:`~repro.compiler.sympiler.Sympiler` driver walks the spec generically.
The specs form one static table, ``_KERNELS``, keyed by name: adding a
kernel means adding an entry there (and its emitter and reference kernel), not
editing the driver.  There is no registration API and no alias; a name that is
not in the table raises :class:`UnknownKernelError`.

The kernels:

==================  =============================  ==========================
name                inspector                      artifact
==================  =============================  ==========================
``triangular-solve``  :class:`TriangularSolveInspector`  :class:`SympiledTriangularSolve`
``cholesky``          :class:`CholeskyInspector`         :class:`SympiledCholesky`
``ldlt``              :class:`LDLTInspector`             :class:`SympiledLDLT`
``lu``                :class:`LUInspector`               :class:`SympiledLU`
``ic0``               :class:`IC0Inspector`              :class:`SympiledIC0`
==================  =============================  ==========================
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
from repro.compiler.codegen.runtime import pattern_fingerprint, rhs_fingerprint_extra
from repro.compiler.options import SympilerOptions
from repro.compiler.plan import (
    CompilationContext,
    DomainLoop,
    plan_cholesky,
    plan_incomplete,
    plan_lu,
    plan_triangular_solve,
)
from repro.sparse.csc import CSCMatrix
from repro.symbolic.inspector import (
    CholeskyInspector,
    IC0Inspector,
    LDLTInspector,
    LUInspector,
    TriangularSolveInspector,
    normalize_rhs_pattern,
)

__all__ = [
    "KernelSpec",
    "UnknownKernelError",
    "kernel_spec",
    "registered_kernels",
]


class UnknownKernelError(ValueError):
    """Raised when no kernel of the table has the requested name."""


# --------------------------------------------------------------------------- #
# Default spec hooks
# --------------------------------------------------------------------------- #
def _pattern_only_fingerprint(matrix: CSCMatrix, kernel_args: Dict) -> str:
    """Fingerprint of the matrix pattern alone (factorization kernels)."""
    return pattern_fingerprint(matrix.indptr, matrix.indices)


def _no_normalize_args(matrix: CSCMatrix, kernel_args: Dict) -> Dict:
    return kernel_args


def _trisolve_normalize_args(matrix: CSCMatrix, kernel_args: Dict) -> Dict:
    """Materialize, de-duplicate, sort and range-check the RHS pattern once.

    Delegates to :func:`normalize_rhs_pattern` (shared with the inspector, so
    fingerprint and inspection can never disagree).  The result feeds both
    the cache fingerprint and the inspector, so a one-shot iterable is
    consumed exactly once and invalid indices fail *before* the cache is
    consulted (error behaviour must not depend on cache state).
    """
    rhs = normalize_rhs_pattern(matrix.n, kernel_args.get("rhs_pattern"))
    if rhs is not None:
        kernel_args = dict(kernel_args, rhs_pattern=rhs)
    return kernel_args


def _trisolve_fingerprint(matrix: CSCMatrix, kernel_args: Dict) -> str:
    """Fingerprint of the ``L`` pattern plus the (normalized) RHS pattern.

    ``kernel_args`` has been through :func:`_trisolve_normalize_args`:
    ``rhs_pattern`` is ``None`` (dense) or a sorted unique in-range index
    array; a dense RHS — explicit or implicit — is a constant token.
    """
    extra = rhs_fingerprint_extra(matrix.n, kernel_args.get("rhs_pattern"))
    return pattern_fingerprint(matrix.indptr, matrix.indices, extra=extra)


def _no_inspect_kwargs(options: SympilerOptions, kernel_args: Dict) -> Dict:
    return {}


def _trisolve_inspect_kwargs(options: SympilerOptions, kernel_args: Dict) -> Dict:
    return {"rhs_pattern": kernel_args.get("rhs_pattern")}


# --------------------------------------------------------------------------- #
# KernelSpec
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class KernelSpec:
    """Declarative description of one compilable kernel.

    Attributes
    ----------
    name:
        Canonical kernel name; also the ``method`` of the compilation context
        and of the generated module.
    plan:
        The plan function (:mod:`repro.compiler.plan`): the compilation
        context -> the domain loop the kernel runs (``None`` for the
        untransformed triangular solve), recording the decisions on the way.
    inspector_cls:
        The :class:`~repro.symbolic.inspector.SymbolicInspector` subclass run
        at compile time.
    artifact_cls:
        The compiled-artifact class the driver instantiates.
    requires_vi_prune:
        Whether the kernel cannot be generated without VI-Prune (the numeric
        left-looking factorizations need the predicted factor pattern — the
        paper makes the same observation in the caption of Figure 7).
    kernel_args:
        Names of per-compile keyword arguments accepted by ``compile`` for
        this kernel (e.g. ``rhs_pattern``); anything else is a ``TypeError``.
    normalize_args / fingerprint / inspect_kwargs:
        Hooks canonicalizing the per-compile arguments (run once, before
        anything consumes them) and mapping them to the cache fingerprint and
        the inspector keyword arguments.
    description:
        One-line human-readable summary (shown in docs and error messages).
    """

    name: str
    plan: Callable[[CompilationContext], Optional[DomainLoop]]
    inspector_cls: type
    artifact_cls: type
    requires_vi_prune: bool = False
    kernel_args: Tuple[str, ...] = ()
    normalize_args: Callable[[CSCMatrix, Dict], Dict] = _no_normalize_args
    fingerprint: Callable[[CSCMatrix, Dict], str] = _pattern_only_fingerprint
    inspect_kwargs: Callable[[SympilerOptions, Dict], Dict] = _no_inspect_kwargs
    description: str = ""

    def validate_args(self, kernel_args: Dict) -> None:
        """Reject keyword arguments this kernel does not accept."""
        unknown = sorted(set(kernel_args) - set(self.kernel_args))
        if unknown:
            raise TypeError(
                f"kernel {self.name!r} does not accept argument(s) {unknown}; "
                f"accepted: {sorted(self.kernel_args)}"
            )


# --------------------------------------------------------------------------- #
# The kernels
# --------------------------------------------------------------------------- #
_SPECS = (
    KernelSpec(
        name="triangular-solve",
        plan=plan_triangular_solve,
        inspector_cls=TriangularSolveInspector,
        artifact_cls=SympiledTriangularSolve,
        requires_vi_prune=False,
        kernel_args=("rhs_pattern",),
        normalize_args=_trisolve_normalize_args,
        fingerprint=_trisolve_fingerprint,
        inspect_kwargs=_trisolve_inspect_kwargs,
        description="sparse lower-triangular solve L x = b (Fig. 1)",
    ),
    KernelSpec(
        name="cholesky",
        plan=plan_cholesky,
        inspector_cls=CholeskyInspector,
        artifact_cls=SympiledCholesky,
        requires_vi_prune=True,
        description="left-looking sparse Cholesky A = L L^T (Fig. 4)",
    ),
    KernelSpec(
        name="ldlt",
        plan=plan_cholesky,
        inspector_cls=LDLTInspector,
        artifact_cls=SympiledLDLT,
        requires_vi_prune=True,
        description="left-looking sparse LDL^T for symmetric indefinite A",
    ),
    KernelSpec(
        name="lu",
        plan=plan_lu,
        inspector_cls=LUInspector,
        artifact_cls=SympiledLU,
        requires_vi_prune=True,
        description=(
            "left-looking sparse LU A = L U (partial-pivoting-free, for "
            "diagonally dominant unsymmetric A)"
        ),
    ),
    KernelSpec(
        name="ic0",
        plan=plan_incomplete,
        inspector_cls=IC0Inspector,
        artifact_cls=SympiledIC0,
        requires_vi_prune=True,
        description=(
            "incomplete Cholesky IC(0): A ~= L L^T on the pattern of "
            "tril(A) (no fill; preconditioner for SPD iterative solves)"
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
