"""Inspector-guided and low-level transformations.

The passes in this package rewrite the lowered AST using the inspection sets
produced by the symbolic inspectors:

* :mod:`repro.compiler.transforms.vi_prune` — Variable Iteration-Space
  Pruning (§2.3.1),
* :mod:`repro.compiler.transforms.vs_block` — 2-D Variable-Sized Blocking
  (§2.3.2),
* :mod:`repro.compiler.transforms.lowlevel` — the enabled conventional
  low-level transformations (§2.4): unrolling and loop distribution,
* :mod:`repro.compiler.transforms.pipeline` — assembles the pass sequence
  from :class:`repro.compiler.options.SympilerOptions`.
"""

from repro.compiler.transforms.base import CompilationContext, Transform, TransformPipeline
from repro.compiler.transforms.lowlevel import LoopDistributeTransform, UnrollTransform
from repro.compiler.transforms.pipeline import build_pipeline
from repro.compiler.transforms.vi_prune import VIPruneTransform
from repro.compiler.transforms.vs_block import VSBlockTransform

__all__ = [
    "Transform",
    "TransformPipeline",
    "CompilationContext",
    "VIPruneTransform",
    "VSBlockTransform",
    "UnrollTransform",
    "LoopDistributeTransform",
    "build_pipeline",
]
