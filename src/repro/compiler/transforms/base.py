"""Transformation framework: context, base class and pipeline."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

import numpy as np

from repro.compiler.ast import Block, Comment, DomainLoop, ForRange, KernelFunction
from repro.compiler.options import SympilerOptions
from repro.sparse.csc import CSCMatrix
from repro.symbolic.inspector import (
    CholeskyInspectionResult,
    TriangularInspectionResult,
)

__all__ = [
    "CompilationContext",
    "place_domain_loop",
    "Transform",
    "MethodDispatchTransform",
    "TransformPipeline",
]

InspectionResult = Union[TriangularInspectionResult, CholeskyInspectionResult]


@dataclass
class CompilationContext:
    """Everything a transformation pass may consult.

    Attributes
    ----------
    method:
        The kernel method name (``"triangular-solve"``, ``"cholesky"``,
        ``"ldlt"``, ``"lu"``, ... — any method registered in the kernel
        registry).
    matrix:
        The input matrix pattern — ``L`` for triangular solve, ``A`` for
        Cholesky.  Transforms only read its structure, never its values.
    inspection:
        The symbolic-inspection result for this matrix (and RHS pattern).
    options:
        Code-generation options.
    rhs_pattern:
        Nonzero indices of the RHS (triangular solve only).
    applied:
        Names of the transformations that actually rewrote the kernel, in
        order (reported by the compiled artifact and used in tests/benches).
    decisions:
        Free-form record of threshold decisions (e.g. why VS-Block was
        skipped), used for reporting and ablation studies.
    """

    method: str
    matrix: CSCMatrix
    inspection: InspectionResult
    options: SympilerOptions
    rhs_pattern: Optional[np.ndarray] = None
    applied: List[str] = field(default_factory=list)
    decisions: Dict[str, object] = field(default_factory=dict)

    def record(self, name: str, **decision) -> None:
        """Record that transformation ``name`` ran, with optional details."""
        self.applied.append(name)
        if decision:
            self.decisions[name] = decision


def place_domain_loop(kernel: KernelFunction, comment: str, loop: DomainLoop) -> bool:
    """Put ``loop``, under ``comment``, in place of the lowered column loop; ``False`` when there is none."""

    def replace(block: Block) -> bool:
        for i, stmt in enumerate(block.statements):
            if isinstance(stmt, ForRange) and stmt.annotations.get("role") == "column-loop":
                block.statements[i : i + 1] = [Comment(comment), loop]
                return True
            if isinstance(stmt, Block) and replace(stmt):
                return True
        return False

    return replace(kernel.body)


class Transform(ABC):
    """A single transformation pass over a :class:`KernelFunction`."""

    #: Short name used in reports and in ``CompilationContext.applied``.
    name: str = "abstract"

    @abstractmethod
    def apply(self, kernel: KernelFunction, context: CompilationContext) -> KernelFunction:
        """Rewrite ``kernel`` (in place or by returning a new function)."""

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"{type(self).__name__}()"


class MethodDispatchTransform(Transform):
    """A transform whose behaviour is selected per kernel method.

    Subclasses declare a ``handlers`` table mapping a method name to the name
    of the bound method implementing the pass for it.  New kernels extend a
    transform by adding a ``handlers`` entry (usually pointing at a shared,
    parametrized implementation) instead of growing an ``if/elif`` chain.
    """

    #: method name -> attribute name of the handler implementing the pass.
    handlers: Dict[str, str] = {}

    def apply(self, kernel: KernelFunction, context: CompilationContext) -> KernelFunction:
        handler = self.handlers.get(context.method)
        if handler is None:
            raise ValueError(
                f"{self.name} does not support method {context.method!r}; "
                f"supported: {sorted(self.handlers)}"
            )
        return getattr(self, handler)(kernel, context)


class TransformPipeline:
    """An ordered sequence of transformation passes."""

    def __init__(self, passes: List[Transform]) -> None:
        self.passes = list(passes)

    def run(self, kernel: KernelFunction, context: CompilationContext) -> KernelFunction:
        """Apply every pass in order and return the final kernel."""
        for pass_ in self.passes:
            kernel = pass_.apply(kernel, context)
        return kernel

    def pass_names(self) -> List[str]:
        """Names of the configured passes, in execution order."""
        return [p.name for p in self.passes]

    def __len__(self) -> int:
        return len(self.passes)
