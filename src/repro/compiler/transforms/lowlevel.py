"""Enabled conventional low-level transformations (§2.4).

The inspector-guided transformations annotate the code with hints for
conventional transformations; these passes consume the hints:

* :class:`UnrollTransform` — unrolling: the diagonal-block solve of supernodes
  up to ``unroll_max_width`` columns is emitted fully unrolled.
* :class:`LoopDistributeTransform` — loop distribution: width-1 supernodes of
  the supernodal Cholesky loop are split into a separate streamlined loop.
* :class:`SmallKernelTransform` — the BLAS-switch heuristic of §4.2: when the
  average column count of the factor is small, the generated code uses the
  hand-specialized small dense kernels instead of the library (BLAS) calls.

All of these are no-ops when their hint is absent, so they can be run
unconditionally after the inspector-guided passes.
"""

from __future__ import annotations

from repro.compiler.ast import (
    KernelFunction,
    SupernodalCholeskyLoop,
    SupernodeTriangularBlock,
    walk,
)
from repro.compiler.transforms.base import CompilationContext, Transform
from repro.symbolic.inspector import CholeskyInspectionResult

__all__ = [
    "UnrollTransform",
    "LoopDistributeTransform",
    "SmallKernelTransform",
]


class UnrollTransform(Transform):
    """Unroll small diagonal-block solves."""

    name = "unroll"

    def apply(self, kernel: KernelFunction, context: CompilationContext) -> KernelFunction:
        options = context.options
        unrolled = 0
        for node in walk(kernel.body):
            if isinstance(node, SupernodeTriangularBlock) and node.width <= options.unroll_max_width:
                node.unroll = True
                unrolled += 1
        if unrolled:
            context.record(self.name, unrolled_statements=unrolled)
            kernel.meta["unrolled_statements"] = unrolled
        return kernel


class LoopDistributeTransform(Transform):
    """Split width-1 supernodes of the supernodal Cholesky into their own loop."""

    name = "distribute"

    def apply(self, kernel: KernelFunction, context: CompilationContext) -> KernelFunction:
        # Structural pass: acts on any supernodal left-looking loop (LL^T or
        # LDL^T); kernels without one are left untouched.
        changed = 0
        for node in walk(kernel.body):
            if isinstance(node, SupernodalCholeskyLoop) and not node.distribute_single_columns:
                node.distribute_single_columns = True
                changed += 1
        if changed:
            context.record(self.name, distributed_loops=changed)
            kernel.meta["loop_distribution"] = True
        return kernel


class SmallKernelTransform(Transform):
    """Switch between specialized small dense kernels and library BLAS calls."""

    name = "small-kernels"

    def apply(self, kernel: KernelFunction, context: CompilationContext) -> KernelFunction:
        inspection = context.inspection
        if not isinstance(inspection, CholeskyInspectionResult):
            return kernel
        options = context.options
        avg_colcount = inspection.average_column_count
        use_small = avg_colcount < options.blas_switch_avg_colcount
        changed = 0
        for node in walk(kernel.body):
            # Unrolled small kernels exist for LL^T diagonal blocks only; the
            # LDL^T blocks always go through the dense LDL^T micro-kernel.
            if isinstance(node, SupernodalCholeskyLoop) and node.factor_kind == "llt":
                node.use_small_kernels = use_small
                node.small_kernel_max_width = options.small_kernel_max_width
                changed += 1
        if changed:
            context.record(
                self.name,
                average_column_count=float(avg_colcount),
                threshold=float(options.blas_switch_avg_colcount),
                use_small_kernels=use_small,
            )
            kernel.meta["use_small_kernels"] = use_small
        return kernel
