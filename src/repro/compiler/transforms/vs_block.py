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

from typing import List

import numpy as np

from repro.compiler.ast import (
    Comment,
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
    supernodal_descriptors,
    triangular_block_descriptor,
)
from repro.compiler.transforms.vi_prune import _find_prunable_loop, _replace_statement
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

    # ------------------------------------------------------------------ #
    # Triangular solve
    # ------------------------------------------------------------------ #
    def _apply_triangular(
        self, kernel: KernelFunction, context: CompilationContext
    ) -> KernelFunction:
        inspection = context.inspection
        if not isinstance(inspection, TriangularInspectionResult):
            raise TypeError("triangular-solve VS-Block needs a triangular inspection")
        options = context.options
        partition = inspection.supernodes
        participates, details = vs_block_participates(
            partition,
            min_supernode_width=options.vs_block_min_supernode_width,
            min_avg_width=options.vs_block_min_avg_width,
        )
        context.decisions[self.name] = details
        if not participates:
            return kernel

        # Active columns: the reach-set if VI-Prune already ran, else all.
        existing_pruned = [
            node for node in walk(kernel.body) if isinstance(node, PrunedColumnSolveLoop)
        ]
        if existing_pruned:
            active_sorted = np.unique(
                np.concatenate([p.columns for p in existing_pruned])
            )
        else:
            active_sorted = np.arange(inspection.n, dtype=np.int64)
        active_mask = np.zeros(inspection.n, dtype=bool)
        active_mask[active_sorted] = True

        segments = self._build_triangular_segments(
            context, partition, active_mask, options.vs_block_min_supernode_width
        )

        # Replace either the original column loop or the VI-Pruned loop(s).
        new_body: List = [
            Comment(
                "VS-Block: supernode blocks solved with dense sub-kernels "
                f"({details['n_wide_supernodes']} blockable supernodes)"
            ),
            *segments,
        ]
        if existing_pruned:
            # Replace the first pruned loop with the blocked segments and drop
            # any further pruned loops (their columns are covered).
            _replace_statement(kernel.body, existing_pruned[0], new_body)
            for extra in existing_pruned[1:]:
                _replace_statement(kernel.body, extra, [])
        else:
            loop = _find_prunable_loop(kernel)
            if loop is None or not loop.annotations.get("blockable", False):
                context.decisions[self.name] = {"skipped": "no blockable loop found"}
                return kernel
            _replace_statement(kernel.body, loop, new_body)

        if "block_set" not in kernel.constants:
            kernel.add_constant("block_set", partition.super_ptr)
        context.record(self.name, **details)
        kernel.meta["vs_block"] = True
        return kernel

    @staticmethod
    def _build_triangular_segments(
        context: CompilationContext,
        partition: SupernodePartition,
        active_mask: np.ndarray,
        min_width: int,
    ) -> List:
        """Segments (blocks and column runs) in ascending column order."""
        L = context.matrix
        segments: List = []
        pending_run: List[int] = []
        run_counter = 0

        def flush_run() -> None:
            nonlocal run_counter, pending_run
            if pending_run:
                segments.append(
                    PrunedColumnSolveLoop(
                        columns=np.asarray(pending_run, dtype=np.int64),
                        constant_name=f"column_run_{run_counter}",
                        role="column-run",
                    )
                )
                run_counter += 1
                pending_run = []

        for s, c0, c1 in partition.iter_supernodes():
            width = c1 - c0
            block_active = bool(active_mask[c0:c1].any())
            if not block_active:
                continue
            if width >= min_width:
                flush_run()
                col_starts, rows_start, rows_end, n_rows = triangular_block_descriptor(L, c0, c1)
                segments.append(
                    SupernodeTriangularBlock(
                        sn_id=s,
                        c0=c0,
                        width=width,
                        n_rows=n_rows,
                        col_starts=col_starts,
                        rows_start=rows_start,
                        rows_end=rows_end,
                        role="supernode-block",
                    )
                )
            else:
                pending_run.extend(int(c) for c in range(c0, c1) if active_mask[c])
        flush_run()
        return segments

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
        options = context.options
        participates, details = vs_block_participates(
            inspection.supernodes,
            min_supernode_width=options.vs_block_min_supernode_width,
            min_avg_width=options.vs_block_min_avg_width,
        )
        details["factor_kind"] = "lu"
        details["deferred"] = "supernodal LU not generated (unsymmetric panels)"
        context.decisions[self.name] = details
        return kernel

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
        options = context.options
        participates, details = vs_block_participates(
            inspection.supernodes,
            min_supernode_width=options.vs_block_min_supernode_width,
            min_avg_width=options.vs_block_min_avg_width,
        )
        details["factor_kind"] = factor_kind
        details["deferred"] = "supernodal incomplete factorization would introduce in-block fill"
        context.decisions[self.name] = details
        return kernel

    def _apply_left_looking(
        self,
        kernel: KernelFunction,
        context: CompilationContext,
        *,
        factor_kind: str,
    ) -> KernelFunction:
        inspection = context.inspection
        if not isinstance(inspection, CholeskyInspectionResult):
            raise TypeError("left-looking VS-Block needs a Cholesky-style inspection")
        options = context.options
        partition = inspection.supernodes
        participates, details = vs_block_participates(
            partition,
            min_supernode_width=options.vs_block_min_supernode_width,
            min_avg_width=options.vs_block_min_avg_width,
        )
        context.decisions[self.name] = details
        if not participates:
            return kernel

        desc = supernodal_descriptors(context.matrix, inspection)
        supernodal = SupernodalCholeskyLoop(
            n=inspection.n,
            l_indptr=inspection.l_indptr,
            l_indices=inspection.l_indices,
            a_diag_pos=desc.a_diag_pos,
            a_col_end=desc.a_col_end,
            sup_start=desc.sup_start,
            sup_end=desc.sup_end,
            desc_ptr=desc.desc_ptr,
            desc_pos=desc.desc_pos,
            desc_end=desc.desc_end,
            desc_mult_end=desc.desc_mult_end,
            desc_col=desc.desc_col,
            factor_kind=factor_kind,
            # Loop distribution is decided by the low-level pass; default to
            # the plain blocked structure here.
            distribute_single_columns=False,
            role="supernodal-cholesky",
        )
        target = None
        for node in walk(kernel.body):
            if isinstance(node, SimplicialCholeskyLoop):
                target = node
                break
        if target is None:
            target = _find_prunable_loop(kernel)
        if target is None:
            context.decisions[self.name] = {"skipped": "no blockable loop found"}
            return kernel
        _replace_statement(kernel.body, target, [
            Comment(
                f"VS-Block: {partition.n_supernodes} supernodes, "
                f"average width {partition.average_size():.2f}"
            ),
            supernodal,
        ])
        for cname, value in (
            ("l_indptr", inspection.l_indptr),
            ("l_indices", inspection.l_indices),
            ("block_set", partition.super_ptr),
            ("desc_ptr", desc.desc_ptr),
            ("desc_pos", desc.desc_pos),
        ):
            if cname not in kernel.constants:
                kernel.add_constant(cname, value)
        context.record(self.name, **details)
        kernel.meta["vs_block"] = True
        return kernel
