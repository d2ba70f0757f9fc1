"""Variable Iteration-Space Pruning (VI-Prune, §2.3.1).

VI-Prune restricts a loop's iteration space to an inspection set:

* **Triangular solve** — the column loop over ``0..n`` becomes a loop over
  the reach-set computed by the DFS inspector; every use of the original loop
  index is replaced by the corresponding reach-set entry (Figure 3a→3b,
  Figure 1d/1e).
* **Cholesky / LDLᵀ** — the update loop over all columns ``r < j`` becomes a
  loop over the row sparsity pattern of row ``j`` of ``L`` (the prune-set of
  Figure 4); the transformation materializes those per-column sets, together
  with the factor pattern, into flat descriptor arrays so the numeric loop
  performs no pattern look-ups (and no transpose of ``A``) at run time.  Both
  left-looking factorizations share one implementation, differing only in the
  ``factor_kind`` of the produced domain loop.

When VS-Block has already been applied the pass operates on the blocked
structure instead: participating supernode blocks that contain no reached
column are dropped, and the single-column runs are intersected with the
reach-set.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.compiler.ast import (
    Block,
    Comment,
    ForRange,
    IncompleteFactorLoop,
    KernelFunction,
    PrunedColumnSolveLoop,
    SimplicialCholeskyLoop,
    SupernodalCholeskyLoop,
    SupernodeTriangularBlock,
    walk,
)
from repro.compiler.transforms.base import (
    CompilationContext,
    MethodDispatchTransform,
)
from repro.compiler.transforms.descriptors import (
    ic0_descriptors,
    ilu0_descriptors,
    lu_simplicial_descriptors,
    simplicial_descriptors,
)
from repro.symbolic.inspector import (
    CholeskyInspectionResult,
    IC0InspectionResult,
    ILU0InspectionResult,
    LUInspectionResult,
    TriangularInspectionResult,
)

__all__ = ["VIPruneTransform"]


def _find_prunable_loop(kernel: KernelFunction) -> ForRange | None:
    for node in walk(kernel.body):
        if isinstance(node, ForRange) and node.annotations.get("role") == "column-loop":
            return node
    return None


def _replace_statement(block: Block, old, new_statements: List) -> bool:
    """Replace ``old`` with ``new_statements`` inside ``block`` (recursively)."""
    for i, stmt in enumerate(block.statements):
        if stmt is old:
            block.statements[i : i + 1] = new_statements
            return True
        if isinstance(stmt, Block) and _replace_statement(stmt, old, new_statements):
            return True
        if isinstance(stmt, ForRange) and _replace_statement(stmt.body, old, new_statements):
            return True
    return False


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

    # ------------------------------------------------------------------ #
    # Triangular solve
    # ------------------------------------------------------------------ #
    def _apply_triangular(
        self, kernel: KernelFunction, context: CompilationContext
    ) -> KernelFunction:
        inspection = context.inspection
        if not isinstance(inspection, TriangularInspectionResult):
            raise TypeError("triangular-solve VI-Prune needs a triangular inspection")
        reach = inspection.reach
        reach_sorted = inspection.reach_sorted

        blocked = any(
            isinstance(node, (SupernodeTriangularBlock, PrunedColumnSolveLoop))
            for node in walk(kernel.body)
        )
        if blocked:
            self._prune_blocked_triangular(kernel, reach_sorted)
            context.record(self.name, mode="blocked", reach_size=int(reach.size))
            kernel.meta["vi_prune"] = True
            return kernel

        loop = _find_prunable_loop(kernel)
        if loop is None or not loop.annotations.get("prunable", False):
            context.decisions[self.name] = {"skipped": "no prunable loop found"}
            return kernel
        pruned = PrunedColumnSolveLoop(
            columns=reach,
            constant_name="prune_set",
            role="pruned-column-loop",
            source="reach-set",
        )
        replaced = _replace_statement(kernel.body, loop, [
            Comment(f"VI-Prune: iterate the reach-set ({reach.size} of {inspection.n} columns)"),
            pruned,
        ])
        if not replaced:
            raise RuntimeError("failed to replace the prunable column loop")
        if "prune_set" not in kernel.constants:
            kernel.add_constant("prune_set", reach)
        context.record(self.name, mode="loop", reach_size=int(reach.size))
        kernel.meta["vi_prune"] = True
        return kernel

    @staticmethod
    def _prune_blocked_triangular(kernel: KernelFunction, reach_sorted: np.ndarray) -> None:
        """Filter an already VS-Block'd body down to the reach-set."""
        reach_set = set(int(c) for c in reach_sorted)

        def prune_block(block: Block) -> None:
            new_statements: List = []
            for stmt in block.statements:
                if isinstance(stmt, SupernodeTriangularBlock):
                    cols = range(stmt.c0, stmt.c0 + stmt.width)
                    if any(c in reach_set for c in cols):
                        new_statements.append(stmt)
                elif isinstance(stmt, PrunedColumnSolveLoop):
                    kept = np.asarray(
                        [c for c in stmt.columns if int(c) in reach_set], dtype=np.int64
                    )
                    if kept.size:
                        stmt.columns = kept
                        new_statements.append(stmt)
                elif isinstance(stmt, Block):
                    prune_block(stmt)
                    new_statements.append(stmt)
                else:
                    new_statements.append(stmt)
            block.statements = new_statements

        prune_block(kernel.body)

    # ------------------------------------------------------------------ #
    # Left-looking factorizations (Cholesky and LDL^T)
    # ------------------------------------------------------------------ #
    def _apply_cholesky(
        self, kernel: KernelFunction, context: CompilationContext
    ) -> KernelFunction:
        return self._apply_left_looking(kernel, context, factor_kind="llt")

    def _apply_ldlt(
        self, kernel: KernelFunction, context: CompilationContext
    ) -> KernelFunction:
        return self._apply_left_looking(kernel, context, factor_kind="ldlt")

    def _apply_lu(
        self, kernel: KernelFunction, context: CompilationContext
    ) -> KernelFunction:
        return self._apply_left_looking(kernel, context, factor_kind="lu")

    def _apply_left_looking(
        self,
        kernel: KernelFunction,
        context: CompilationContext,
        *,
        factor_kind: str,
    ) -> KernelFunction:
        """Shared left-looking lowering for the LLᵀ, LDLᵀ and LU kernels.

        The symmetric kinds prune the update loop to the row sparsity pattern
        of ``L``; LU prunes it to the symbolic ``U`` pattern of each column
        (the GP reach-set) and additionally embeds the ``U`` pattern arrays.
        Everything else — replacing the annotated column loop by the
        descriptor-carrying domain statement — is identical.
        """
        lu = factor_kind == "lu"
        inspection = context.inspection
        expected_cls = LUInspectionResult if lu else CholeskyInspectionResult
        if not isinstance(inspection, expected_cls):
            raise TypeError(
                f"left-looking VI-Prune for {factor_kind!r} needs a "
                f"{expected_cls.__name__}"
            )

        # If VS-Block already replaced the column loop with a supernodal loop,
        # the prune-sets are already embedded in its descendant descriptors.
        # (The LU handler of VS-Block never produces one.)
        if any(isinstance(node, SupernodalCholeskyLoop) for node in walk(kernel.body)):
            context.record(self.name, mode="subsumed-by-vs-block")
            kernel.meta["vi_prune"] = True
            return kernel
        if any(isinstance(node, SimplicialCholeskyLoop) for node in walk(kernel.body)):
            context.record(self.name, mode="already-applied")
            return kernel

        loop = _find_prunable_loop(kernel)
        if loop is None:
            context.decisions[self.name] = {"skipped": "no column loop found"}
            return kernel
        if lu:
            desc = lu_simplicial_descriptors(context.matrix, inspection)
            kind_kwargs = {
                "u_indptr": inspection.u_indptr,
                "u_indices": inspection.u_indices,
                "role": "simplicial-lu",
            }
            pruned_to = "the symbolic U pattern"
            extra_constants = (
                ("u_indptr", inspection.u_indptr),
                ("u_indices", inspection.u_indices),
            )
        else:
            desc = simplicial_descriptors(context.matrix, inspection)
            kind_kwargs = {"role": "simplicial-cholesky"}
            pruned_to = "the row sparsity pattern of L"
            extra_constants = ()
        simplicial = SimplicialCholeskyLoop(
            n=inspection.n,
            l_indptr=inspection.l_indptr,
            l_indices=inspection.l_indices,
            prune_ptr=desc.prune_ptr,
            update_pos=desc.update_pos,
            update_end=desc.update_end,
            a_diag_pos=desc.a_diag_pos,
            a_col_end=desc.a_col_end,
            update_col=desc.update_col,
            factor_kind=factor_kind,
            **kind_kwargs,
        )
        replaced = _replace_statement(kernel.body, loop, [
            Comment(
                f"VI-Prune: update loop restricted to {pruned_to} "
                f"({int(desc.prune_ptr[-1])} updates in total)"
            ),
            simplicial,
        ])
        if not replaced:
            raise RuntimeError("failed to replace the left-looking column loop")
        for cname, value in (
            ("l_indptr", inspection.l_indptr),
            ("l_indices", inspection.l_indices),
            *extra_constants,
            ("prune_ptr", desc.prune_ptr),
            ("update_pos", desc.update_pos),
            ("update_end", desc.update_end),
        ):
            if cname not in kernel.constants:
                kernel.add_constant(cname, value)
        context.record(self.name, mode="loop", total_updates=int(desc.prune_ptr[-1]))
        kernel.meta["vi_prune"] = True
        return kernel

    # ------------------------------------------------------------------ #
    # No-fill incomplete factorizations (IC(0) and ILU(0))
    # ------------------------------------------------------------------ #
    def _apply_ic0(
        self, kernel: KernelFunction, context: CompilationContext
    ) -> KernelFunction:
        return self._apply_incomplete(kernel, context, factor_kind="ic0")

    def _apply_ilu0(
        self, kernel: KernelFunction, context: CompilationContext
    ) -> KernelFunction:
        return self._apply_incomplete(kernel, context, factor_kind="ilu0")

    def _apply_incomplete(
        self,
        kernel: KernelFunction,
        context: CompilationContext,
        *,
        factor_kind: str,
    ) -> KernelFunction:
        """Shared lowering of the no-fill incomplete kernels.

        Both prune twice: the update loop iterates only the ``A``-pattern
        sources of each column, and every update's *scatter* is intersected
        with the destination column's ``A`` pattern at compile time (the
        dropped updates of IC(0)/ILU(0) never execute).  The factor pattern
        is the ``A`` pattern, so the loop runs in place on the gathered
        factor values — no dense work vector, no fill computation.
        """
        ilu = factor_kind == "ilu0"
        inspection = context.inspection
        expected_cls = ILU0InspectionResult if ilu else IC0InspectionResult
        if not isinstance(inspection, expected_cls):
            raise TypeError(
                f"incomplete VI-Prune for {factor_kind!r} needs a "
                f"{expected_cls.__name__}"
            )
        if any(isinstance(node, IncompleteFactorLoop) for node in walk(kernel.body)):
            context.record(self.name, mode="already-applied")
            return kernel
        loop = _find_prunable_loop(kernel)
        if loop is None:
            context.decisions[self.name] = {"skipped": "no column loop found"}
            return kernel
        if ilu:
            desc = ilu0_descriptors(context.matrix, inspection)
            kind_kwargs = {
                "u_indptr": inspection.u_indptr,
                "u_indices": inspection.u_indices,
                "a_upper_pos": desc.a_upper_pos,
                "l_gather_dst": desc.l_gather_dst,
                "u_scat_ptr": desc.u_scat_ptr,
                "u_scat_src": desc.u_scat_src,
                "u_scat_dst": desc.u_scat_dst,
                "role": "incomplete-lu",
            }
            extra_constants = (
                ("u_indptr", inspection.u_indptr),
                ("u_scat_ptr", desc.u_scat_ptr),
            )
        else:
            desc = ic0_descriptors(context.matrix, inspection)
            kind_kwargs = {"role": "incomplete-cholesky"}
            extra_constants = ()
        incomplete = IncompleteFactorLoop(
            n=inspection.n,
            l_indptr=inspection.l_indptr,
            l_indices=inspection.l_indices,
            a_lower_pos=desc.a_lower_pos,
            prune_ptr=desc.prune_ptr,
            mult_pos=desc.mult_pos,
            l_scat_ptr=desc.l_scat_ptr,
            l_scat_src=desc.l_scat_src,
            l_scat_dst=desc.l_scat_dst,
            factor_kind=factor_kind,
            **kind_kwargs,
        )
        dropped = int(desc.prune_ptr[-1])
        replaced = _replace_statement(kernel.body, loop, [
            Comment(
                f"VI-Prune: {factor_kind.upper()} update loop pruned to the A "
                f"pattern ({dropped} pattern-intersected updates, no fill)"
            ),
            incomplete,
        ])
        if not replaced:
            raise RuntimeError("failed to replace the incomplete-factor column loop")
        for cname, value in (
            ("l_indptr", inspection.l_indptr),
            ("a_lower_pos", desc.a_lower_pos),
            ("prune_ptr", desc.prune_ptr),
            ("mult_pos", desc.mult_pos),
            ("l_scat_ptr", desc.l_scat_ptr),
            *extra_constants,
        ):
            if cname not in kernel.constants:
                kernel.add_constant(cname, value)
        context.record(self.name, mode="loop", total_updates=dropped)
        kernel.meta["vi_prune"] = True
        return kernel
