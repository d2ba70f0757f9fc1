"""Assemble the transformation pipeline from the configured options."""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.compiler.options import SympilerOptions
from repro.compiler.registration import register_unique
from repro.compiler.transforms.base import Transform, TransformPipeline
from repro.compiler.transforms.lowlevel import LoopDistributeTransform, UnrollTransform
from repro.compiler.transforms.vi_prune import VIPruneTransform
from repro.compiler.transforms.vs_block import VSBlockTransform

__all__ = ["build_pipeline", "register_inspector_guided_transform"]

_INSPECTOR_GUIDED = {
    "vs-block": VSBlockTransform,
    "vi-prune": VIPruneTransform,
}


def register_inspector_guided_transform(name: str, cls: type) -> None:
    """Register an additional inspector-guided pass under ``name``.

    Registering a different class under an existing name raises
    ``ValueError``; re-registering the same class is a no-op.
    """
    register_unique(_INSPECTOR_GUIDED, name, cls, kind="inspector-guided transform")


def build_pipeline(
    options: SympilerOptions,
    *,
    transforms: Optional[Iterable[str]] = None,
) -> TransformPipeline:
    """Create the pass sequence for the given options.

    The inspector-guided passes run first (in the configured order, VS-Block
    before VI-Prune by default, matching §4.2), followed by the low-level
    passes when enabled: unrolling counts the narrow supernode blocks of a
    triangular solve; distribution acts on the supernodal factorization loop
    only.

    ``transforms`` optionally restricts the inspector-guided passes to the
    ones a kernel's registry spec declares applicable; ``None`` allows all.
    """
    allowed = None if transforms is None else set(transforms)
    passes: List[Transform] = []
    for name in options.active_transformations():
        if allowed is not None and name not in allowed:
            continue
        passes.append(_INSPECTOR_GUIDED[name]())
    if options.enable_low_level:
        passes.extend([UnrollTransform(), LoopDistributeTransform()])
    return TransformPipeline(passes)
