"""2-D Variable-Sized Blocking (VS-Block, §2.3.2).

VS-Block converts column-at-a-time sparse code into code over variable-sized
dense blocks (supernodes):

* **Triangular solve** — consecutive columns with identical structure are
  solved as one block: a small dense triangular solve on the diagonal block
  followed by a dense panel update (Figure 3c→3d).  Columns not belonging to
  a participating block stay in pruned column loops.
* **Cholesky** — the column loop becomes a loop over supernodes; each
  supernode is assembled into a dense trapezoidal panel, updated by its
  descendant columns, factored with a dense Cholesky on the diagonal block
  and finished with dense triangular solves on the off-diagonal panel.

The transformation only *participates* when the inspection found supernodes
worth blocking (the paper hand-tunes a participation threshold, §4.2); the
decision and its inputs are recorded in the compilation context so ablation
benchmarks can report them.
"""

from __future__ import annotations

import numpy as np

from repro.compiler.ast import DomainLoop, KernelFunction
from repro.compiler.codegen import tables
from repro.compiler.transforms.base import (
    CompilationContext,
    MethodDispatchTransform,
    place_domain_loop,
)
from repro.symbolic.inspector import (
    CholeskyInspectionResult,
    IC0InspectionResult,
    ILU0InspectionResult,
    LUInspectionResult,
    TriangularInspectionResult,
)
from repro.symbolic.supernodes import SupernodePartition

__all__ = ["VSBlockTransform", "vs_block_participates"]


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


class VSBlockTransform(MethodDispatchTransform):
    """The VS-Block inspector-guided transformation."""

    name = "vs-block"
    handlers = {
        "triangular-solve": "_apply_triangular",
        "cholesky": "_apply_cholesky",
        "ldlt": "_apply_ldlt",
        "lu": "_apply_lu",
        "ic0": "_apply_ic0",
        "ilu0": "_apply_ilu0",
    }

    @staticmethod
    def _participation(context: CompilationContext) -> tuple[bool, dict]:
        """The §4.2 decision for the block-set of ``context.inspection`` under ``context.options``."""
        return vs_block_participates(
            context.inspection.supernodes,
            min_supernode_width=context.options.vs_block_min_supernode_width,
            min_avg_width=context.options.vs_block_min_avg_width,
        )

    # ------------------------------------------------------------------ #
    # Triangular solve
    # ------------------------------------------------------------------ #
    def _apply_triangular(self, kernel: KernelFunction, context: CompilationContext) -> KernelFunction:
        inspection = context.inspection
        if not isinstance(inspection, TriangularInspectionResult):
            raise TypeError("triangular-solve VS-Block needs a triangular inspection")
        participates, details = self._participation(context)
        context.decisions[self.name] = details
        if not participates:
            return kernel
        # Every column is active here; VI-Prune restricts the segments to the reach-set.
        contract = tables.trisolve_segments(
            context.matrix,
            inspection.supernodes,
            np.arange(inspection.n, dtype=np.int64),
            context.options.vs_block_min_supernode_width,
        )
        comment = (
            "VS-Block: supernode blocks solved with dense sub-kernels "
            f"({details['n_wide_supernodes']} blockable supernodes)"
        )
        return self._place(kernel, context, comment, DomainLoop("trisolve-segments", contract), details)

    def _place(self, kernel: KernelFunction, context: CompilationContext, comment: str, loop: DomainLoop, details):
        """Put ``loop`` in place of the annotated column loop and record the pass."""
        if not place_domain_loop(kernel, comment, loop):
            context.decisions[self.name] = {"skipped": "no blockable loop found"}
            return kernel
        context.record(self.name, **details)
        kernel.meta["vs_block"] = True
        return kernel

    # ------------------------------------------------------------------ #
    # Left-looking factorizations (Cholesky and LDL^T)
    # ------------------------------------------------------------------ #
    def _apply_cholesky(self, kernel: KernelFunction, context: CompilationContext) -> KernelFunction:
        return self._apply_left_looking(kernel, context, factor_kind="llt")

    def _apply_ldlt(self, kernel: KernelFunction, context: CompilationContext) -> KernelFunction:
        return self._apply_left_looking(kernel, context, factor_kind="ldlt")

    def _apply_lu(self, kernel: KernelFunction, context: CompilationContext) -> KernelFunction:
        """VS-Block for the unsymmetric left-looking LU.

        The participation heuristic is evaluated on the column-etree
        supernode candidates (and recorded for the ablation benches), but the
        blocked dense sub-kernels of this pass exploit the *symmetric*
        trapezoidal panel structure — an LU supernode would also have to
        carry its per-column ``U`` panel (the SuperLU formulation).  Until a
        pivoted/supernodal LU lands, the pass therefore always defers the
        lowering to VI-Prune's simplicial LU loop; the recorded decision
        makes the deferral visible instead of silent.
        """
        inspection = context.inspection
        if not isinstance(inspection, LUInspectionResult):
            raise TypeError("LU VS-Block needs an LU inspection")
        participates, details = self._participation(context)
        details["factor_kind"] = "lu"
        details["deferred"] = "supernodal LU not generated (unsymmetric panels)"
        context.decisions[self.name] = details
        return kernel

    def _apply_ic0(self, kernel: KernelFunction, context: CompilationContext) -> KernelFunction:
        return self._apply_incomplete(kernel, context, factor_kind="ic0")

    def _apply_ilu0(self, kernel: KernelFunction, context: CompilationContext) -> KernelFunction:
        return self._apply_incomplete(kernel, context, factor_kind="ilu0")

    def _apply_incomplete(
        self, kernel: KernelFunction, context: CompilationContext, *, factor_kind: str
    ) -> KernelFunction:
        """VS-Block for the no-fill incomplete factorizations.

        Like LU, the participation heuristic is evaluated (on the
        elimination-tree supernode candidates of the ``A`` pattern) and
        recorded for the ablation benches, but the lowering is deferred to
        VI-Prune's incomplete loop: a dense diagonal-block factorization
        would *introduce fill inside the block*, which the no-fill contract
        of IC(0)/ILU(0) forbids — any supernodal incomplete variant needs a
        block-sparse drop rule first.  The recorded decision makes the
        deferral visible instead of silent.
        """
        expected_cls = ILU0InspectionResult if factor_kind == "ilu0" else IC0InspectionResult
        inspection = context.inspection
        if not isinstance(inspection, expected_cls):
            raise TypeError(
                f"incomplete VS-Block for {factor_kind!r} needs a "
                f"{expected_cls.__name__}"
            )
        participates, details = self._participation(context)
        details["factor_kind"] = factor_kind
        details["deferred"] = "supernodal incomplete factorization would introduce in-block fill"
        context.decisions[self.name] = details
        return kernel

    def _apply_left_looking(
        self, kernel: KernelFunction, context: CompilationContext, *, factor_kind: str
    ) -> KernelFunction:
        inspection = context.inspection
        if not isinstance(inspection, CholeskyInspectionResult):
            raise TypeError("left-looking VS-Block needs a Cholesky-style inspection")
        partition = inspection.supernodes
        participates, details = self._participation(context)
        context.decisions[self.name] = details
        if not participates:
            return kernel

        comment = f"VS-Block: {partition.n_supernodes} supernodes, average width {partition.average_size():.2f}"
        contract = tables.supernodal_cholesky(context.matrix, inspection, factor_kind)
        return self._place(
            kernel, context, comment, DomainLoop("supernodal-cholesky", contract, factor_kind=factor_kind), details
        )
