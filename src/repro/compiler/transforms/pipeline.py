"""Assemble the transformation pipeline from the configured options."""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.compiler.options import SympilerOptions
from repro.compiler.transforms.base import Transform, TransformPipeline
from repro.compiler.transforms.lowlevel import LoopDistributeTransform
from repro.compiler.transforms.vi_prune import VIPruneTransform
from repro.compiler.transforms.vs_block import VSBlockTransform

__all__ = ["build_pipeline"]


def build_pipeline(
    options: SympilerOptions,
    *,
    transforms: Optional[Iterable[str]] = None,
) -> TransformPipeline:
    """Create the pass sequence for the given options.

    The inspector-guided passes run first — VS-Block, then VI-Prune (§4.2),
    each if enabled — followed by the low-level pass when enabled: loop
    distribution, which acts on the supernodal factorization loop only.

    ``transforms`` optionally restricts the inspector-guided passes to the
    ones a kernel's registry spec declares applicable; ``None`` allows all.
    """
    guided = {"vs-block": VSBlockTransform, "vi-prune": VIPruneTransform}
    allowed = None if transforms is None else set(transforms)
    passes: List[Transform] = [
        guided[name]() for name in options.active_transformations() if allowed is None or name in allowed
    ]
    if options.enable_low_level:
        passes.append(LoopDistributeTransform())
    return TransformPipeline(passes)
