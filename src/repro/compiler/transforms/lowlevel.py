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

from repro.compiler.ast import KernelFunction, domain_loop
from repro.compiler.transforms.base import CompilationContext, Transform

__all__ = [
    "UnrollTransform",
    "LoopDistributeTransform",
]


class UnrollTransform(Transform):
    """Record the supernode blocks narrow enough for an unrolled diagonal solve."""

    name = "unroll"

    def apply(self, kernel: KernelFunction, context: CompilationContext) -> KernelFunction:
        loop = domain_loop(kernel)
        if loop is None or loop.role != "trisolve-segments":
            return kernel
        widths = loop.contract[1]["seg"][0::5]
        unrolled = int(((widths > 0) & (widths <= context.options.unroll_max_width)).sum())
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
        loop = domain_loop(kernel)
        if loop is not None and loop.role == "supernodal-cholesky" and not loop.distribute_single_columns:
            loop.distribute_single_columns = True
            context.record(self.name, distributed_loops=1)
            kernel.meta["loop_distribution"] = True
        return kernel
