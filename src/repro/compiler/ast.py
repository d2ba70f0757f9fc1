"""Domain-specific AST for sparse kernels.

The code implementing a numerical solver is represented in a domain-specific
AST (§2.1 of the paper).  Lowering produces *generic* loop nests annotated
with the places where inspector-guided transformations may apply (the
analogue of Figure 2a); the VI-Prune and VS-Block passes then replace those
annotated loops with one *domain statement* that carries the inspection sets
it consumes (the analogue of Figures 2b/2c), and the low-level passes refine
it (loop distribution).  The backends read the inspection sets off that
statement: its ``contract``, computed and named once by
:mod:`repro.compiler.codegen.tables`.

Two node families therefore coexist:

* generic expression/statement nodes (:class:`Var`, :class:`ArrayRef`,
  :class:`Assign`, :class:`ForRange`, ...) — enough to express the kernels of
  Figure 1 and to be pretty-printed for inspection, and
* the domain statement (:class:`DomainLoop`) introduced by the
  transformations, carrying the inspection sets the numeric kernels read as
  run-time tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Node",
    "Expr",
    "Var",
    "IntConst",
    "FloatConst",
    "ArrayRef",
    "BinOp",
    "Call",
    "Stmt",
    "Assign",
    "ForRange",
    "If",
    "Block",
    "Comment",
    "KernelFunction",
    "DomainLoop",
    "walk",
    "domain_loop",
    "pretty",
]


# --------------------------------------------------------------------------- #
# Base classes
# --------------------------------------------------------------------------- #
class Node:
    """Base class of every AST node."""

    def children(self) -> Iterable["Node"]:
        """Direct child nodes (used by :func:`walk`)."""
        return ()


class Expr(Node):
    """Base class of expressions."""


class Stmt(Node):
    """Base class of statements.  Every statement carries an annotation dict.

    Annotations are the communication channel between phases: lowering marks
    loops with ``role``/``prunable``/``blockable`` for the inspector-guided
    passes to find.
    """

    def __init__(self, annotations: Optional[Dict[str, object]] = None) -> None:
        self.annotations: Dict[str, object] = dict(annotations or {})

    def annotate(self, **kwargs) -> "Stmt":
        """Add annotations in place and return ``self`` (builder style)."""
        self.annotations.update(kwargs)
        return self


# --------------------------------------------------------------------------- #
# Expressions
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Var(Expr):
    """A scalar variable or array name."""

    name: str


@dataclass(frozen=True)
class IntConst(Expr):
    """An integer literal."""

    value: int


@dataclass(frozen=True)
class FloatConst(Expr):
    """A floating-point literal."""

    value: float


@dataclass(frozen=True)
class ArrayRef(Expr):
    """``array[index]`` with an arbitrary index expression."""

    array: str
    index: Expr

    def children(self) -> Iterable[Node]:
        return (self.index,)


@dataclass(frozen=True)
class BinOp(Expr):
    """A binary operation ``left op right``."""

    op: str
    left: Expr
    right: Expr

    def children(self) -> Iterable[Node]:
        return (self.left, self.right)


@dataclass(frozen=True)
class Call(Expr):
    """A call to a named (runtime or intrinsic) function."""

    func: str
    args: Tuple[Expr, ...]

    def children(self) -> Iterable[Node]:
        return self.args


# --------------------------------------------------------------------------- #
# Generic statements
# --------------------------------------------------------------------------- #
class Assign(Stmt):
    """``target op value`` where ``op`` is one of ``=, +=, -=, *=, /=``."""

    VALID_OPS = ("=", "+=", "-=", "*=", "/=")

    def __init__(self, target: Expr, value: Expr, op: str = "=", **annotations) -> None:
        super().__init__(annotations)
        if op not in self.VALID_OPS:
            raise ValueError(f"invalid assignment operator {op!r}")
        self.target = target
        self.value = value
        self.op = op

    def children(self) -> Iterable[Node]:
        return (self.target, self.value)


class Block(Stmt):
    """A sequence of statements."""

    def __init__(self, statements: Sequence[Stmt] = (), **annotations) -> None:
        super().__init__(annotations)
        self.statements: List[Stmt] = list(statements)

    def append(self, stmt: Stmt) -> None:
        """Append a statement."""
        self.statements.append(stmt)

    def children(self) -> Iterable[Node]:
        return tuple(self.statements)

    def __len__(self) -> int:
        return len(self.statements)


class ForRange(Stmt):
    """``for index in range(start, end): body``."""

    def __init__(self, index: str, start: Expr, end: Expr, body: Block, **annotations) -> None:
        super().__init__(annotations)
        self.index = index
        self.start = start
        self.end = end
        self.body = body

    def children(self) -> Iterable[Node]:
        return (self.start, self.end, self.body)


class If(Stmt):
    """``if condition: body`` (used by the library-style guard of Fig. 1c)."""

    def __init__(self, condition: Expr, body: Block, **annotations) -> None:
        super().__init__(annotations)
        self.condition = condition
        self.body = body

    def children(self) -> Iterable[Node]:
        return (self.condition, self.body)


class Comment(Stmt):
    """A free-form comment emitted verbatim by the backends."""

    def __init__(self, text: str, **annotations) -> None:
        super().__init__(annotations)
        self.text = text


# --------------------------------------------------------------------------- #
# The domain statement placed by the inspector-guided transformations
# --------------------------------------------------------------------------- #
class DomainLoop(Stmt):
    """The loop an inspector-guided transformation put in place of a generic one.

    A transformed kernel has exactly one.  What it iterates over and reads is
    its ``contract``: the ``(dims, tables)`` result of the function of
    :mod:`repro.compiler.codegen.tables` named after its ``role``, computed by
    the transformation that placed the node.  No table is declared here.

    Attributes
    ----------
    role:
        Which loop this is, and so which emitter / reference kernel runs it:
        ``"trisolve-segments"`` (the pruned column runs and supernode blocks
        of a triangular solve, one node whatever their number),
        ``"simplicial-cholesky"`` and ``"simplicial-lu"`` (the VI-Pruned
        left-looking column loops), ``"supernodal-cholesky"`` (the VS-Block'd
        supernode loop), ``"incomplete-cholesky"`` and ``"incomplete-lu"``
        (the no-fill IC(0) / ILU(0) loops).
    factor_kind:
        ``"llt"`` / ``"ldlt"`` / ``"lu"`` / ``"ic0"`` / ``"ilu0"``; ``None``
        for the triangular solve.
    contract:
        The sizes and inspection sets the numeric kernel reads, in block order.
    distribute_single_columns:
        Whether the width-1 supernodes of a supernodal loop run in their own
        streamlined loop (set by the loop-distribution pass).
    """

    def __init__(
        self,
        role: str,
        contract: Tuple[Dict[str, int], Dict[str, np.ndarray]],
        *,
        factor_kind: Optional[str] = None,
        **annotations,
    ) -> None:
        super().__init__(annotations)
        self.role = role
        self.contract = contract
        self.factor_kind = factor_kind
        self.distribute_single_columns = False


# --------------------------------------------------------------------------- #
# Kernel function
# --------------------------------------------------------------------------- #
class KernelFunction(Node):
    """A complete kernel: name, parameters and body.

    What a numeric kernel reads of the pattern is the contract of the
    :class:`DomainLoop` in the body (``artifact.constants`` is its block, see
    :mod:`repro.compiler.codegen.tables`).
    """

    def __init__(
        self,
        name: str,
        params: Sequence[str],
        body: Block,
        *,
        method: str,
        meta: Optional[Dict[str, object]] = None,
    ) -> None:
        self.name = name
        self.params = list(params)
        self.body = body
        self.method = method
        self.meta: Dict[str, object] = dict(meta or {})

    def children(self) -> Iterable[Node]:
        return (self.body,)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"KernelFunction(name={self.name!r}, method={self.method!r}, params={self.params})"


# --------------------------------------------------------------------------- #
# Traversal and pretty-printing
# --------------------------------------------------------------------------- #
def walk(node: Node) -> Iterable[Node]:
    """Yield ``node`` and every descendant in depth-first pre-order."""
    yield node
    for child in node.children():
        yield from walk(child)


def domain_loop(kernel: KernelFunction) -> Optional[DomainLoop]:
    """The :class:`DomainLoop` of a transformed kernel, ``None`` for an untransformed one."""
    return next((node for node in walk(kernel.body) if isinstance(node, DomainLoop)), None)


def _expr_str(e: Expr) -> str:
    if isinstance(e, Var):
        return e.name
    if isinstance(e, IntConst):
        return str(e.value)
    if isinstance(e, FloatConst):
        return repr(e.value)
    if isinstance(e, ArrayRef):
        return f"{e.array}[{_expr_str(e.index)}]"
    if isinstance(e, BinOp):
        return f"({_expr_str(e.left)} {e.op} {_expr_str(e.right)})"
    if isinstance(e, Call):
        args = ", ".join(_expr_str(a) for a in e.args)
        return f"{e.func}({args})"
    raise TypeError(f"unknown expression node {type(e).__name__}")


def _annot_str(stmt: Stmt) -> str:
    if not stmt.annotations:
        return ""
    parts = ", ".join(f"{k}={v!r}" for k, v in sorted(stmt.annotations.items()))
    return f"  # @{parts}"


def _stmt_lines(stmt: Stmt, indent: int) -> List[str]:
    pad = "  " * indent
    if isinstance(stmt, Comment):
        return [f"{pad}# {stmt.text}"]
    if isinstance(stmt, Assign):
        return [f"{pad}{_expr_str(stmt.target)} {stmt.op} {_expr_str(stmt.value)}{_annot_str(stmt)}"]
    if isinstance(stmt, Block):
        lines: List[str] = []
        for s in stmt.statements:
            lines.extend(_stmt_lines(s, indent))
        return lines
    if isinstance(stmt, ForRange):
        header = (
            f"{pad}for {stmt.index} in {_expr_str(stmt.start)} .. {_expr_str(stmt.end)}:"
            f"{_annot_str(stmt)}"
        )
        return [header] + _stmt_lines(stmt.body, indent + 1)
    if isinstance(stmt, If):
        header = f"{pad}if {_expr_str(stmt.condition)}:{_annot_str(stmt)}"
        return [header] + _stmt_lines(stmt.body, indent + 1)
    if isinstance(stmt, DomainLoop):
        details = [f"kind={stmt.factor_kind}"] if stmt.factor_kind else []
        details += [f"{name}={value}" for name, value in stmt.contract[0].items()]
        if stmt.role == "supernodal-cholesky":
            details.append(f"distribute={stmt.distribute_single_columns}")
        return [f"{pad}{' '.join([stmt.role, *details])}{_annot_str(stmt)}"]
    raise TypeError(f"unknown statement node {type(stmt).__name__}")


def pretty(node: Node) -> str:
    """Human-readable rendering of a kernel or statement (for tests/docs)."""
    if isinstance(node, KernelFunction):
        header = f"kernel {node.name}({', '.join(node.params)})  [method={node.method}]"
        return "\n".join([header, *_stmt_lines(node.body, 1)])
    if isinstance(node, Stmt):
        return "\n".join(_stmt_lines(node, 0))
    if isinstance(node, Expr):
        return _expr_str(node)
    raise TypeError(f"unknown node {type(node).__name__}")
