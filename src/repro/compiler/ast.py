"""Domain-specific AST for sparse kernels.

The code implementing a numerical solver is represented in a domain-specific
AST (§2.1 of the paper).  Lowering produces *generic* loop nests annotated
with the places where inspector-guided transformations may apply (the
analogue of Figure 2a); the VI-Prune and VS-Block passes then replace those
annotated loops with *domain statements* that carry the inspection sets they
consume (the analogue of Figures 2b/2c), and the low-level passes refine
them (loop distribution).  The backends read the inspection sets off the final
AST through :mod:`repro.compiler.codegen.tables`.

Two node families therefore coexist:

* generic expression/statement nodes (:class:`Var`, :class:`ArrayRef`,
  :class:`Assign`, :class:`ForRange`, ...) — enough to express the kernels of
  Figure 1 and to be pretty-printed for inspection, and
* domain statements (:class:`PrunedColumnSolveLoop`,
  :class:`SupernodeTriangularBlock`, :class:`SimplicialCholeskyLoop`,
  :class:`SupernodalCholeskyLoop`) introduced
  by the transformations, each carrying the inspection sets the numeric
  kernels read as run-time tables.
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
    "PrunedColumnSolveLoop",
    "SupernodeTriangularBlock",
    "SimplicialCholeskyLoop",
    "SupernodalCholeskyLoop",
    "IncompleteFactorLoop",
    "walk",
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
# Domain statements produced by the inspector-guided transformations
# --------------------------------------------------------------------------- #
class PrunedColumnSolveLoop(Stmt):
    """A triangular-solve column loop restricted to a pruned iteration space.

    Produced by VI-Prune from the annotated column loop: iterates over the
    embedded ``columns`` array (the reach-set or a contiguous run of it) in
    the stored order, performing the standard column solve for each entry.

    Attributes
    ----------
    columns:
        Column indices to visit, in a valid topological order.
    constant_name:
        Name of the set in the IR (``prune_set``, ``column_run_<k>``).
    """

    def __init__(self, columns: np.ndarray, constant_name: str, **annotations) -> None:
        super().__init__(annotations)
        self.columns = np.asarray(columns, dtype=np.int64)
        self.constant_name = constant_name


class SupernodeTriangularBlock(Stmt):
    """One VS-Block'd supernode of a triangular solve.

    The diagonal block is solved densely and the off-diagonal panel applied
    as a dense matrix–vector product.  All positions below are known at
    compile time and refer into ``Lx``/``Li``.

    Attributes
    ----------
    sn_id: supernode index in the partition.
    c0, width: first column and number of columns.
    n_rows: rows of the supernode (width + off-diagonal rows).
    col_starts: position of each column's diagonal entry in ``Lx``.
    rows_start, rows_end: slice of ``Li`` holding the supernode's row pattern
        (the pattern of its first column).
    """

    def __init__(
        self,
        sn_id: int,
        c0: int,
        width: int,
        n_rows: int,
        col_starts: np.ndarray,
        rows_start: int,
        rows_end: int,
        **annotations,
    ) -> None:
        super().__init__(annotations)
        self.sn_id = int(sn_id)
        self.c0 = int(c0)
        self.width = int(width)
        self.n_rows = int(n_rows)
        self.col_starts = np.asarray(col_starts, dtype=np.int64)
        self.rows_start = int(rows_start)
        self.rows_end = int(rows_end)

    @property
    def n_offdiag_rows(self) -> int:
        """Rows strictly below the supernode's diagonal block."""
        return self.n_rows - self.width


class SimplicialCholeskyLoop(Stmt):
    """The VI-Pruned (simplicial) left-looking factorization column loop.

    Shared by the left-looking factorization kernels, distinguished by
    ``factor_kind``: ``"llt"`` emits the square-root column factorization,
    ``"ldlt"`` the unit-diagonal/D-scaled one and ``"lu"`` the unsymmetric
    column split into ``U(:, j)`` and the pivot-scaled ``L(:, j)``.  All
    symbolic information is embedded as constant arrays:

    * ``l_indptr`` / ``l_indices`` — the predicted factor pattern,
    * ``prune_ptr`` / ``update_pos`` / ``update_end`` — for every column
      ``j``, the slice ``prune_ptr[j]:prune_ptr[j+1]`` of ``update_pos`` and
      ``update_end`` lists, for each column ``k`` in the prune-set of ``j``,
      the position of the first applied entry inside column ``k`` of ``L``
      (``L[j, k]`` for the symmetric kernels, the first off-diagonal for LU)
      and the end of column ``k`` (so the numeric loop performs no pattern
      look-ups at all),
    * ``update_col`` — the prune-set column ``k`` of every update slot (the
      LDLᵀ update must scale by ``D[k]``; the LU update reads its multiplier
      ``U[k, j]`` from the work vector at ``k``),
    * ``a_diag_pos`` / ``a_col_end`` — where the gathered part of each column
      of ``A`` starts/ends in its CSC arrays (the lower part for the
      symmetric kernels, the full column for LU),
    * ``u_indptr`` / ``u_indices`` — the predicted ``U`` pattern (rows
      ascending, diagonal last; LU only).
    """

    def __init__(
        self,
        n: int,
        l_indptr: np.ndarray,
        l_indices: np.ndarray,
        prune_ptr: np.ndarray,
        update_pos: np.ndarray,
        update_end: np.ndarray,
        a_diag_pos: np.ndarray,
        a_col_end: np.ndarray,
        *,
        update_col: Optional[np.ndarray] = None,
        u_indptr: Optional[np.ndarray] = None,
        u_indices: Optional[np.ndarray] = None,
        factor_kind: str = "llt",
        **annotations,
    ) -> None:
        super().__init__(annotations)
        if factor_kind not in ("llt", "ldlt", "lu"):
            raise ValueError(f"unknown factor kind {factor_kind!r}")
        self.n = int(n)
        self.l_indptr = np.asarray(l_indptr, dtype=np.int64)
        self.l_indices = np.asarray(l_indices, dtype=np.int64)
        self.prune_ptr = np.asarray(prune_ptr, dtype=np.int64)
        self.update_pos = np.asarray(update_pos, dtype=np.int64)
        self.update_end = np.asarray(update_end, dtype=np.int64)
        self.a_diag_pos = np.asarray(a_diag_pos, dtype=np.int64)
        self.a_col_end = np.asarray(a_col_end, dtype=np.int64)
        self.update_col = (
            None if update_col is None else np.asarray(update_col, dtype=np.int64)
        )
        self.u_indptr = None if u_indptr is None else np.asarray(u_indptr, dtype=np.int64)
        self.u_indices = (
            None if u_indices is None else np.asarray(u_indices, dtype=np.int64)
        )
        self.factor_kind = factor_kind
        if factor_kind == "ldlt" and self.update_col is None:
            raise ValueError("the LDL^T simplicial loop requires update_col")
        if factor_kind == "lu" and (
            self.update_col is None or self.u_indptr is None or self.u_indices is None
        ):
            raise ValueError("the LU simplicial loop requires update_col and the U pattern")

    @property
    def factor_nnz(self) -> int:
        """Nonzeros of the factor(s) being produced (both factors for LU)."""
        nnz = int(self.l_indptr[-1])
        if self.u_indptr is not None:
            nnz += int(self.u_indptr[-1])
        return nnz


class IncompleteFactorLoop(Stmt):
    """The VI-Pruned no-fill incomplete factorization loop (IC(0) / ILU(0)).

    The defining property of the incomplete kernels is that the factor
    pattern *is* the ``A`` pattern — updates landing outside it are dropped.
    VI-Prune therefore prunes each update's scatter to the intersection of
    the source and destination column patterns at compile time, resolving
    every position into the factor value arrays, so the numeric loop performs
    neither pattern look-ups nor dropped work at run time (and needs no dense
    work vector at all — it runs in place on the gathered factor values):

    * ``l_indptr`` / ``l_indices`` — the ``L`` pattern (``tril(A)`` for IC(0);
      strict lower triangle plus explicit unit diagonal for ILU(0)),
    * ``u_indptr`` / ``u_indices`` — the ``U`` pattern (``triu(A)``, diagonal
      last; ILU(0) only),
    * ``a_lower_pos`` — positions in ``Ax`` gathered into ``Lx`` (IC(0): all
      of ``tril(A)``; ILU(0): the strict lower triangle, landing at
      ``l_gather_dst``),
    * ``a_upper_pos`` — positions in ``Ax`` gathered into ``Ux`` (ILU(0)
      only),
    * ``prune_ptr`` — update slice ``prune_ptr[j]:prune_ptr[j+1]`` per
      column, one update per source column ``k`` in ascending order,
    * ``mult_pos`` — per update, the position of the multiplier (``L[j, k]``
      inside ``Lx`` for IC(0), ``U[k, j]`` inside ``Ux`` for ILU(0)),
    * ``l_scat_ptr`` / ``l_scat_src`` / ``l_scat_dst`` — per update, the
      pattern-intersected scatter into ``Lx`` (source positions inside column
      ``k``, destination positions inside column ``j``),
    * ``u_scat_ptr`` / ``u_scat_src`` / ``u_scat_dst`` — the scatter into
      ``Ux`` (sources in ``Lx``, destinations in ``Ux``; ILU(0) only).
    """

    def __init__(
        self,
        n: int,
        l_indptr: np.ndarray,
        l_indices: np.ndarray,
        a_lower_pos: np.ndarray,
        prune_ptr: np.ndarray,
        mult_pos: np.ndarray,
        l_scat_ptr: np.ndarray,
        l_scat_src: np.ndarray,
        l_scat_dst: np.ndarray,
        *,
        u_indptr: Optional[np.ndarray] = None,
        u_indices: Optional[np.ndarray] = None,
        a_upper_pos: Optional[np.ndarray] = None,
        l_gather_dst: Optional[np.ndarray] = None,
        u_scat_ptr: Optional[np.ndarray] = None,
        u_scat_src: Optional[np.ndarray] = None,
        u_scat_dst: Optional[np.ndarray] = None,
        factor_kind: str = "ic0",
        **annotations,
    ) -> None:
        super().__init__(annotations)
        if factor_kind not in ("ic0", "ilu0"):
            raise ValueError(f"unknown factor kind {factor_kind!r}")
        self.n = int(n)
        self.l_indptr = np.asarray(l_indptr, dtype=np.int64)
        self.l_indices = np.asarray(l_indices, dtype=np.int64)
        self.a_lower_pos = np.asarray(a_lower_pos, dtype=np.int64)
        self.prune_ptr = np.asarray(prune_ptr, dtype=np.int64)
        self.mult_pos = np.asarray(mult_pos, dtype=np.int64)
        self.l_scat_ptr = np.asarray(l_scat_ptr, dtype=np.int64)
        self.l_scat_src = np.asarray(l_scat_src, dtype=np.int64)
        self.l_scat_dst = np.asarray(l_scat_dst, dtype=np.int64)
        as_i64 = lambda v: None if v is None else np.asarray(v, dtype=np.int64)  # noqa: E731
        self.u_indptr = as_i64(u_indptr)
        self.u_indices = as_i64(u_indices)
        self.a_upper_pos = as_i64(a_upper_pos)
        self.l_gather_dst = as_i64(l_gather_dst)
        self.u_scat_ptr = as_i64(u_scat_ptr)
        self.u_scat_src = as_i64(u_scat_src)
        self.u_scat_dst = as_i64(u_scat_dst)
        self.factor_kind = factor_kind
        if factor_kind == "ilu0" and any(
            v is None
            for v in (
                self.u_indptr,
                self.u_indices,
                self.a_upper_pos,
                self.l_gather_dst,
                self.u_scat_ptr,
                self.u_scat_src,
                self.u_scat_dst,
            )
        ):
            raise ValueError(
                "the ILU(0) loop requires the U pattern, gather and scatter arrays"
            )

    @property
    def factor_nnz(self) -> int:
        """Nonzeros of the factor(s) being produced (both factors for ILU(0))."""
        nnz = int(self.l_indptr[-1])
        if self.u_indptr is not None:
            nnz += int(self.u_indptr[-1])
        return nnz

    @property
    def total_updates(self) -> int:
        """Number of pattern-restricted column updates."""
        return int(self.prune_ptr[-1])


class SupernodalCholeskyLoop(Stmt):
    """The VS-Block'd supernode factorization loop (LLᵀ or LDLᵀ).

    In addition to the factor pattern and the ``A``-column positions (see
    :class:`SimplicialCholeskyLoop`), the descriptor embeds:

    * ``sup_start`` / ``sup_end`` — column range of every supernode,
    * ``desc_ptr`` / ``desc_pos`` / ``desc_end`` / ``desc_mult_end`` — for
      every supernode, the positions inside ``Lx``/``Li`` of every descendant
      column's update slice and of the sub-slice providing the multipliers,
    * ``desc_col`` — the descendant column index of every descriptor slot
      (the LDLᵀ panel update must scale its multipliers by ``D[k]``),
    * ``distribute_single_columns`` — whether width-1 supernodes are split
      into a separate streamlined (simplicial) loop (loop distribution).
    """

    def __init__(
        self,
        n: int,
        l_indptr: np.ndarray,
        l_indices: np.ndarray,
        a_diag_pos: np.ndarray,
        a_col_end: np.ndarray,
        sup_start: np.ndarray,
        sup_end: np.ndarray,
        desc_ptr: np.ndarray,
        desc_pos: np.ndarray,
        desc_end: np.ndarray,
        desc_mult_end: np.ndarray,
        *,
        desc_col: Optional[np.ndarray] = None,
        factor_kind: str = "llt",
        distribute_single_columns: bool = True,
        **annotations,
    ) -> None:
        super().__init__(annotations)
        if factor_kind not in ("llt", "ldlt"):
            raise ValueError(f"unknown factor kind {factor_kind!r}")
        self.n = int(n)
        self.l_indptr = np.asarray(l_indptr, dtype=np.int64)
        self.l_indices = np.asarray(l_indices, dtype=np.int64)
        self.a_diag_pos = np.asarray(a_diag_pos, dtype=np.int64)
        self.a_col_end = np.asarray(a_col_end, dtype=np.int64)
        self.sup_start = np.asarray(sup_start, dtype=np.int64)
        self.sup_end = np.asarray(sup_end, dtype=np.int64)
        self.desc_ptr = np.asarray(desc_ptr, dtype=np.int64)
        self.desc_pos = np.asarray(desc_pos, dtype=np.int64)
        self.desc_end = np.asarray(desc_end, dtype=np.int64)
        self.desc_mult_end = np.asarray(desc_mult_end, dtype=np.int64)
        self.desc_col = None if desc_col is None else np.asarray(desc_col, dtype=np.int64)
        self.factor_kind = factor_kind
        if factor_kind == "ldlt" and self.desc_col is None:
            raise ValueError("the LDL^T supernodal loop requires desc_col")
        self.distribute_single_columns = bool(distribute_single_columns)

    @property
    def n_supernodes(self) -> int:
        """Number of supernodes in the descriptor."""
        return int(self.sup_start.size)

    @property
    def factor_nnz(self) -> int:
        """Nonzeros of the factor being produced."""
        return int(self.l_indptr[-1])


# --------------------------------------------------------------------------- #
# Kernel function
# --------------------------------------------------------------------------- #
class KernelFunction(Node):
    """A complete kernel: name, parameters, body and the IR's inspection sets.

    ``constants`` maps the names the transformations gave their inspection
    sets to the arrays, for pretty-printing and tests.  What a numeric kernel
    reads is the table block a backend builds from the domain statements
    (``artifact.constants``, see :mod:`repro.compiler.codegen.tables`).
    """

    def __init__(
        self,
        name: str,
        params: Sequence[str],
        body: Block,
        *,
        method: str,
        constants: Optional[Dict[str, np.ndarray]] = None,
        meta: Optional[Dict[str, object]] = None,
    ) -> None:
        self.name = name
        self.params = list(params)
        self.body = body
        self.method = method
        self.constants: Dict[str, np.ndarray] = dict(constants or {})
        self.meta: Dict[str, object] = dict(meta or {})

    def add_constant(self, name: str, value: np.ndarray) -> str:
        """Register an embedded constant array and return its name."""
        if name in self.constants:
            raise ValueError(f"constant {name!r} already registered")
        self.constants[name] = np.asarray(value)
        return name

    def children(self) -> Iterable[Node]:
        return (self.body,)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"KernelFunction(name={self.name!r}, method={self.method!r}, "
            f"params={self.params}, constants={sorted(self.constants)})"
        )


# --------------------------------------------------------------------------- #
# Traversal and pretty-printing
# --------------------------------------------------------------------------- #
def walk(node: Node) -> Iterable[Node]:
    """Yield ``node`` and every descendant in depth-first pre-order."""
    yield node
    for child in node.children():
        yield from walk(child)


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
    if isinstance(stmt, PrunedColumnSolveLoop):
        return [
            f"{pad}pruned-column-solve over {stmt.constant_name} "
            f"({stmt.columns.size} columns){_annot_str(stmt)}"
        ]
    if isinstance(stmt, SupernodeTriangularBlock):
        return [
            f"{pad}supernode-trsolve sn={stmt.sn_id} cols={stmt.c0}..{stmt.c0 + stmt.width} "
            f"rows={stmt.n_rows}{_annot_str(stmt)}"
        ]
    if isinstance(stmt, SimplicialCholeskyLoop):
        return [
            f"{pad}simplicial-cholesky n={stmt.n} nnz(L)={stmt.factor_nnz} "
            f"kind={stmt.factor_kind}{_annot_str(stmt)}"
        ]
    if isinstance(stmt, IncompleteFactorLoop):
        return [
            f"{pad}incomplete-factor n={stmt.n} nnz={stmt.factor_nnz} "
            f"kind={stmt.factor_kind} updates={stmt.total_updates}{_annot_str(stmt)}"
        ]
    if isinstance(stmt, SupernodalCholeskyLoop):
        return [
            f"{pad}supernodal-cholesky n={stmt.n} supernodes={stmt.n_supernodes} "
            f"nnz(L)={stmt.factor_nnz} kind={stmt.factor_kind} "
            f"distribute={stmt.distribute_single_columns}{_annot_str(stmt)}"
        ]
    raise TypeError(f"unknown statement node {type(stmt).__name__}")


def pretty(node: Node) -> str:
    """Human-readable rendering of a kernel or statement (for tests/docs)."""
    if isinstance(node, KernelFunction):
        header = f"kernel {node.name}({', '.join(node.params)})  [method={node.method}]"
        const = [
            f"  const {name}: shape={tuple(np.asarray(v).shape)}"
            for name, v in sorted(node.constants.items())
        ]
        return "\n".join([header, *const, *_stmt_lines(node.body, 1)])
    if isinstance(node, Stmt):
        return "\n".join(_stmt_lines(node, 0))
    if isinstance(node, Expr):
        return _expr_str(node)
    raise TypeError(f"unknown node {type(node).__name__}")
