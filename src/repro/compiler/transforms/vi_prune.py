"""Variable Iteration-Space Pruning (VI-Prune, §2.3.1).

VI-Prune restricts a loop's iteration space to an inspection set:

* **Triangular solve** — the column loop over ``0..n`` becomes a loop over
  the reach-set computed by the DFS inspector; every use of the original loop
  index is replaced by the corresponding reach-set entry (Figure 3a→3b,
  Figure 1d/1e).
* **Cholesky / LDLᵀ / LU** — the update loop over all columns ``r < j``
  becomes a loop over the row sparsity pattern of row ``j`` of ``L`` (the
  prune-set of Figure 4; for LU, the symbolic ``U`` pattern of column ``j``),
  resolved into positions so the numeric loop performs no pattern look-ups
  (and no transpose of ``A``) at run time.
* **IC(0) / ILU(0)** — the update loop iterates only the ``A``-pattern
  sources of each column and every update's scatter is intersected with the
  destination column's pattern, so the dropped updates never execute and the
  loop runs in place on the gathered factor values.

The pass runs after VS-Block (§4.2).  It places the
:class:`~repro.compiler.ast.DomainLoop` whose contract
:mod:`repro.compiler.codegen.tables` computes; where VS-Block already placed
one, a triangular solve's segments are restricted to the reach-set, and a
supernodal factorization is left alone — its descendant descriptors are the
prune-sets.
"""

from __future__ import annotations

from repro.compiler.ast import DomainLoop, KernelFunction, domain_loop
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

__all__ = ["VIPruneTransform"]


def _expect(inspection, cls, method: str):
    if not isinstance(inspection, cls):
        raise TypeError(f"{method} VI-Prune needs a {cls.__name__}")


class VIPruneTransform(MethodDispatchTransform):
    """The VI-Prune inspector-guided transformation."""

    name = "vi-prune"
    handlers = {
        "triangular-solve": "_apply_triangular",
        "cholesky": "_apply_cholesky",
        "ldlt": "_apply_ldlt",
        "lu": "_apply_lu",
        "ic0": "_apply_ic0",
        "ilu0": "_apply_ilu0",
    }

    def _place(self, kernel: KernelFunction, context: CompilationContext, comment: str, loop: DomainLoop, **record):
        """Put ``loop`` in place of the annotated column loop and record the pass."""
        if not place_domain_loop(kernel, comment, loop):
            context.decisions[self.name] = {"skipped": "no column loop found"}
            return kernel
        context.record(self.name, mode="loop", **record)
        kernel.meta["vi_prune"] = True
        return kernel

    def _apply_triangular(self, kernel: KernelFunction, context: CompilationContext) -> KernelFunction:
        inspection = context.inspection
        _expect(inspection, TriangularInspectionResult, "triangular-solve")
        reach = inspection.reach
        blocked = domain_loop(kernel)
        if blocked is not None:
            # VS-Block's segments, restricted to the reach-set.
            blocked.contract = tables.trisolve_segments(
                context.matrix,
                inspection.supernodes,
                inspection.reach_sorted,
                context.options.vs_block_min_supernode_width,
            )
            context.record(self.name, mode="blocked", reach_size=int(reach.size))
            kernel.meta["vi_prune"] = True
            return kernel
        return self._place(
            kernel,
            context,
            f"VI-Prune: iterate the reach-set ({reach.size} of {inspection.n} columns)",
            DomainLoop("trisolve-segments", tables.trisolve_segments(context.matrix, None, reach, 0)),
            reach_size=int(reach.size),
        )

    # ------------------------------------------------------------------ #
    # Left-looking factorizations (Cholesky, LDL^T and LU)
    # ------------------------------------------------------------------ #
    def _apply_cholesky(self, kernel: KernelFunction, context: CompilationContext) -> KernelFunction:
        return self._apply_left_looking(kernel, context, factor_kind="llt")

    def _apply_ldlt(self, kernel: KernelFunction, context: CompilationContext) -> KernelFunction:
        return self._apply_left_looking(kernel, context, factor_kind="ldlt")

    def _apply_left_looking(
        self, kernel: KernelFunction, context: CompilationContext, *, factor_kind: str
    ) -> KernelFunction:
        _expect(context.inspection, CholeskyInspectionResult, factor_kind)
        if domain_loop(kernel) is not None:
            # VS-Block's supernodal loop: its descendant descriptors are the prune-sets.
            context.record(self.name, mode="blocked")
            kernel.meta["vi_prune"] = True
            return kernel
        contract = tables.simplicial_cholesky(context.matrix, context.inspection, factor_kind)
        loop = DomainLoop("simplicial-cholesky", contract, factor_kind=factor_kind)
        return self._place_update_loop(kernel, context, loop, "the row sparsity pattern of L")

    def _apply_lu(self, kernel: KernelFunction, context: CompilationContext) -> KernelFunction:
        _expect(context.inspection, LUInspectionResult, "lu")
        contract = tables.simplicial_lu(context.matrix, context.inspection)
        loop = DomainLoop("simplicial-lu", contract, factor_kind="lu")
        return self._place_update_loop(kernel, context, loop, "the symbolic U pattern")

    # ------------------------------------------------------------------ #
    # No-fill incomplete factorizations (IC(0) and ILU(0))
    # ------------------------------------------------------------------ #
    def _apply_ic0(self, kernel: KernelFunction, context: CompilationContext) -> KernelFunction:
        _expect(context.inspection, IC0InspectionResult, "ic0")
        contract = tables.incomplete_ic0(context.matrix, context.inspection)
        loop = DomainLoop("incomplete-cholesky", contract, factor_kind="ic0")
        return self._place_update_loop(kernel, context, loop, "the A pattern, scatters intersected with it (no fill)")

    def _apply_ilu0(self, kernel: KernelFunction, context: CompilationContext) -> KernelFunction:
        _expect(context.inspection, ILU0InspectionResult, "ilu0")
        contract = tables.incomplete_ilu0(context.matrix, context.inspection)
        loop = DomainLoop("incomplete-lu", contract, factor_kind="ilu0")
        return self._place_update_loop(kernel, context, loop, "the A pattern, scatters intersected with it (no fill)")

    def _place_update_loop(self, kernel: KernelFunction, context: CompilationContext, loop: DomainLoop, pruned_to: str):
        updates = int(loop.contract[1]["prune_ptr"][-1])
        comment = f"VI-Prune: update loop restricted to {pruned_to} ({updates} updates in total)"
        return self._place(kernel, context, comment, loop, total_updates=updates)
