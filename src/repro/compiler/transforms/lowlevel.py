"""Enabled conventional low-level transformations (§2.4).

The inspector-guided transformations annotate the code with hints for
conventional transformations; these passes consume the hints:

* :class:`UnrollTransform` — unrolling: records how many supernode blocks of
  a triangular solve are at most ``unroll_max_width`` columns wide; the C
  emitter prints one unrolled ``switch`` case per width up to that bound.
* :class:`LoopDistributeTransform` — loop distribution: width-1 supernodes of
  the supernodal Cholesky loop are split into a separate streamlined loop.

Both are no-ops when their hint is absent, so they can be run
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

__all__ = [
    "UnrollTransform",
    "LoopDistributeTransform",
]


class UnrollTransform(Transform):
    """Record the supernode blocks narrow enough for an unrolled diagonal solve."""

    name = "unroll"

    def apply(self, kernel: KernelFunction, context: CompilationContext) -> KernelFunction:
        unrolled = sum(
            isinstance(node, SupernodeTriangularBlock) and node.width <= context.options.unroll_max_width
            for node in walk(kernel.body)
        )
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
