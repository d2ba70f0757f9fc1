"""Enabled conventional low-level transformations (§2.4).

The inspector-guided transformations annotate the code with hints for
conventional transformations; this pass consumes one:

* :class:`LoopDistributeTransform` — loop distribution: width-1 supernodes of
  the supernodal Cholesky loop are split into a separate streamlined loop.

It is a no-op when its hint is absent, so it can be run unconditionally after
the inspector-guided passes.  (An unrolling pass, one ``switch`` case per
supernode width of the triangular solve, was measured no faster than the
generic block loop and deleted.)
"""

from __future__ import annotations

from repro.compiler.ast import KernelFunction, domain_loop
from repro.compiler.transforms.base import CompilationContext, Transform

__all__ = ["LoopDistributeTransform"]


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
