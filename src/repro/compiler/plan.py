"""Planning: which domain loop a kernel runs, decided from its inspection.

The paper lowers each method to a loop nest annotated with where VI-Prune and
VS-Block may apply, and the passes rewrite its column loop (§2.1, Fig. 2).
What a backend needs of the result is one loop: its role (which emitter or
reference kernel runs it), the inspection sets it reads and the refinements
applied to it.  So a kernel is planned directly.  One plan function per kernel
family takes the :class:`CompilationContext` and makes the passes' decisions
in the paper's order:

1. VS-Block (§2.3.2), when enabled and the §4.2 participation test passes;
2. VI-Prune (§2.3.1), when enabled (the driver forces it on for the
   factorizations, which need their prune-sets).

The low-level passes (§2.4) plan nothing: loop distribution gave the width-1
supernodes of a supernodal factorization a loop of their own, and the
supernode loop now runs them as one-column panels.

Each one that takes effect is appended to ``context.applied``; the inputs of
each decision go to ``context.decisions``.  The function returns the
:class:`DomainLoop`, or ``None`` for the untransformed triangular solve (the
plain loop over every column, which reads no table).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

import numpy as np

from repro.compiler.codegen import tables
from repro.compiler.options import SympilerOptions
from repro.sparse.csc import CSCMatrix
from repro.symbolic.inspector import (
    CholeskyInspectionResult,
    IC0InspectionResult,
    ILU0InspectionResult,
    LUInspectionResult,
    TriangularInspectionResult,
)
from repro.symbolic.supernodes import SupernodePartition

__all__ = [
    "DomainLoop",
    "CompilationContext",
    "vs_block_participates",
    "plan_triangular_solve",
    "plan_cholesky",
    "plan_lu",
    "plan_incomplete",
]

#: The §4.2 participation test of VS-Block: it takes the loop when the mean
#: width of all supernodes (single columns included) reaches this value and at
#: least one supernode is ``_VS_BLOCK_MIN_SUPERNODE_WIDTH`` wide — the analogue
#: of the paper's hand-tuned 160 on full-scale matrices, sized for the
#: down-scaled suite of :mod:`repro.bench.suite`.
_VS_BLOCK_MIN_AVG_WIDTH = 1.2
#: In a triangular solve, supernodes narrower than this run in the pruned
#: column loop rather than as dense blocks.
_VS_BLOCK_MIN_SUPERNODE_WIDTH = 2

InspectionResult = Union[
    TriangularInspectionResult,
    CholeskyInspectionResult,
    LUInspectionResult,
    IC0InspectionResult,
    ILU0InspectionResult,
]


@dataclass
class DomainLoop:
    """The loop a kernel runs in place of its generic column loop.

    What it iterates over and reads is its ``contract``: the ``(dims, tables)``
    result of the function of :mod:`repro.compiler.codegen.tables` named after
    its ``role``.

    Attributes
    ----------
    role:
        Which loop this is, and so which emitter / reference kernel runs it:
        ``"trisolve-segments"`` (the pruned column runs and supernode blocks
        of a triangular solve, one loop whatever their number),
        ``"simplicial-cholesky"`` and ``"simplicial-lu"`` (the VI-Pruned
        left-looking column loops), ``"supernodal-cholesky"`` (the VS-Block'd
        supernode loop), ``"incomplete-cholesky"`` and ``"incomplete-lu"``
        (the no-fill IC(0) / ILU(0) loops).
    contract:
        The sizes and inspection sets the numeric kernel reads, in block order.
    factor_kind:
        ``"llt"`` / ``"ldlt"`` / ``"lu"`` / ``"ic0"`` / ``"ilu0"``; ``None``
        for the triangular solve.
    """

    role: str
    contract: tables.Contract
    factor_kind: Optional[str] = None


@dataclass
class CompilationContext:
    """Everything planning and code generation consult about one compile.

    Attributes
    ----------
    method:
        The kernel name (``"triangular-solve"``, ``"cholesky"``, ``"ldlt"``,
        ``"lu"``, ``"ic0"``, ``"ilu0"``).
    matrix:
        The input pattern — ``L`` for the triangular solve, ``A`` for the
        factorizations.  Only its structure is read.
    inspection:
        The symbolic-inspection result for this matrix (and RHS pattern).
    options:
        Code-generation options.
    applied:
        Names of the transformations that took effect, in order (reported by
        the compiled artifact and used in tests and benches).
    decisions:
        The inputs of each decision (e.g. why VS-Block stayed out), for
        reporting and ablation studies.
    """

    method: str
    matrix: CSCMatrix
    inspection: InspectionResult
    options: SympilerOptions
    applied: List[str] = field(default_factory=list)
    decisions: Dict[str, object] = field(default_factory=dict)

    def record(self, name: str, **decision) -> None:
        """Record that transformation ``name`` took effect, with optional details."""
        self.applied.append(name)
        if decision:
            self.decisions[name] = decision


def vs_block_participates(
    partition: SupernodePartition,
    *,
    min_supernode_width: int,
    min_avg_width: float,
) -> tuple[bool, dict]:
    """Apply the participation heuristic of §4.2.

    Returns ``(participates, details)`` where ``details`` records the inputs
    of the decision (number/average width of candidate supernodes).
    """
    sizes = partition.sizes()
    wide = sizes[sizes >= min_supernode_width]
    avg_wide = float(wide.mean()) if wide.size else 0.0
    overall_avg = float(sizes.mean()) if sizes.size else 0.0
    participates = wide.size > 0 and overall_avg >= min_avg_width
    details = {
        "n_supernodes": int(sizes.size),
        "n_wide_supernodes": int(wide.size),
        "avg_wide_width": avg_wide,
        "avg_width": overall_avg,
        "min_supernode_width": int(min_supernode_width),
        "min_avg_width": float(min_avg_width),
        "participates": participates,
    }
    return participates, details


def _expect(context: CompilationContext, cls) -> None:
    if not isinstance(context.inspection, cls):
        raise TypeError(f"planning {context.method} needs a {cls.__name__}")


def _vs_block(context: CompilationContext, **extra) -> bool:
    """VS-Block's §4.2 decision, recorded under ``decisions["vs-block"]``; ``False`` when disabled."""
    if not context.options.enable_vs_block:
        return False
    participates, details = vs_block_participates(
        context.inspection.supernodes,
        min_supernode_width=_VS_BLOCK_MIN_SUPERNODE_WIDTH,
        min_avg_width=_VS_BLOCK_MIN_AVG_WIDTH,
    )
    details.update(extra)
    context.decisions["vs-block"] = details
    return participates


def _update_loop(context: CompilationContext, role: str, contract: tables.Contract, factor_kind: str) -> DomainLoop:
    """VI-Prune's left-looking loop: the update loop restricted to the prune-sets in ``contract``."""
    context.record("vi-prune", mode="loop", total_updates=int(contract[1]["prune_ptr"][-1]))
    return DomainLoop(role, contract, factor_kind=factor_kind)


def plan_triangular_solve(context: CompilationContext) -> Optional[DomainLoop]:
    """The segment loop of ``L x = b``: supernode blocks (VS-Block) and column runs over the reach-set (VI-Prune)."""
    _expect(context, TriangularInspectionResult)
    inspection, options = context.inspection, context.options
    blocked = _vs_block(context)
    if blocked:
        context.applied.append("vs-block")
        # VI-Prune restricts the blocks and runs to the reach-set; without it every column is active.
        active = inspection.reach_sorted if options.enable_vi_prune else np.arange(inspection.n, dtype=np.int64)
        contract = tables.trisolve_segments(
            context.matrix, inspection.supernodes, active, _VS_BLOCK_MIN_SUPERNODE_WIDTH
        )
    elif options.enable_vi_prune:
        # One run: the reach-set in the inspector's topological order.
        contract = tables.trisolve_segments(context.matrix, None, inspection.reach, 0)
    else:
        return None
    if options.enable_vi_prune:
        context.record("vi-prune", mode="blocked" if blocked else "loop", reach_size=int(inspection.reach.size))
    return DomainLoop("trisolve-segments", contract)


def plan_cholesky(context: CompilationContext) -> Optional[DomainLoop]:
    """Left-looking LLᵀ / LDLᵀ: the supernode loop (VS-Block), else the column loop over the row patterns of ``L``."""
    _expect(context, CholeskyInspectionResult)
    factor_kind = "ldlt" if context.method == "ldlt" else "llt"
    loop = None
    if _vs_block(context):
        contract = tables.supernodal_cholesky(context.matrix, context.inspection)
        loop = DomainLoop("supernodal-cholesky", contract, factor_kind=factor_kind)
        context.applied.append("vs-block")
    if context.options.enable_vi_prune:
        if loop is not None:
            # The supernode loop's descendant descriptors are the prune-sets.
            context.record("vi-prune", mode="blocked")
        else:
            contract = tables.simplicial_cholesky(context.matrix, context.inspection, factor_kind)
            loop = _update_loop(context, "simplicial-cholesky", contract, factor_kind)
    return loop


def plan_lu(context: CompilationContext) -> Optional[DomainLoop]:
    """Left-looking LU: the column loop over the symbolic ``U`` pattern.

    VS-Block's participation test runs on the column-etree supernode
    candidates and is recorded, but it defers: its dense sub-kernels exploit
    the symmetric trapezoidal panel, and an LU supernode would also carry a
    ``U`` panel (the SuperLU formulation).
    """
    _expect(context, LUInspectionResult)
    _vs_block(context, factor_kind="lu", deferred="supernodal LU not generated (unsymmetric panels)")
    if not context.options.enable_vi_prune:
        return None
    return _update_loop(context, "simplicial-lu", tables.simplicial_lu(context.matrix, context.inspection), "lu")


def plan_incomplete(context: CompilationContext) -> Optional[DomainLoop]:
    """IC(0) / ILU(0): the column loop over the ``A`` pattern, every scatter intersected with it (no fill).

    VS-Block's participation test runs on the elimination-tree supernode
    candidates and is recorded, but it defers: a dense diagonal-block
    factorization would introduce fill inside the block, which the no-fill
    contract forbids.
    """
    ilu = context.method == "ilu0"
    _expect(context, ILU0InspectionResult if ilu else IC0InspectionResult)
    factor_kind = "ilu0" if ilu else "ic0"
    _vs_block(
        context,
        factor_kind=factor_kind,
        deferred="supernodal incomplete factorization would introduce in-block fill",
    )
    if not context.options.enable_vi_prune:
        return None
    role, contract = ("incomplete-lu", tables.incomplete_ilu0) if ilu else ("incomplete-cholesky", tables.incomplete_ic0)
    return _update_loop(context, role, contract(context.matrix, context.inspection), factor_kind)
