"""The symbolic-inspector framework.

Section 2.2 of the paper classifies symbolic inspectors by the numerical
method and the transformation they enable: each inspector builds an
*inspection graph* from the sparsity pattern, traverses it with an
*inspection strategy*, and produces an *inspection set* that guides the
inspector-guided transformations (Table 1).

========================  =================  ======================  =====================
Transformation            Method             Inspection graph         Inspection set
========================  =================  ======================  =====================
VI-Prune                  triangular solve   DG_L + SP(rhs)           reach-set
VS-Block                  triangular solve   DG_L                     block-set (supernodes)
VI-Prune                  Cholesky           etree + SP(A)            prune-set (row patterns)
VS-Block                  Cholesky           etree + ColCount(A)      block-set (supernodes)
========================  =================  ======================  =====================

The concrete inspectors below compute all sets needed by both transformations
for each method, record how long symbolic analysis took (this is the
"Sympiler (symbolic)" time in Figures 8 and 9), and return an immutable
result object consumed by :mod:`repro.compiler`.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

# Leaf module with no intra-package imports: safe to pull in from here even
# though the compiler package itself depends on this module.
from repro.sparse.csc import CSCMatrix, group_pointers
from repro.symbolic.etree import elimination_tree, postorder
from repro.symbolic.fill_pattern import factor_structure, lu_pattern
from repro.symbolic.reach import reach_set
from repro.symbolic.supernodes import (
    SupernodePartition,
    cholesky_supernodes,
    triangular_supernodes,
)

__all__ = [
    "SymbolicInspector",
    "TriangularSolveInspector",
    "CholeskyInspector",
    "LDLTInspector",
    "LUInspector",
    "IC0Inspector",
    "TriangularInspectionResult",
    "CholeskyInspectionResult",
    "LUInspectionResult",
    "IC0InspectionResult",
    "normalize_rhs_pattern",
    "above_diagonal",
]


def normalize_rhs_pattern(
    n: int, rhs_pattern: Optional[Sequence[int] | np.ndarray]
) -> Optional[np.ndarray]:
    """Canonical RHS pattern: sorted unique in-range indices, or ``None``.

    ``None`` (a dense RHS) passes through.  The single source of truth for
    RHS normalization — the compile-time cache fingerprint and the symbolic
    inspection both use it, so they can never disagree.
    """
    if rhs_pattern is None:
        return None
    rhs = np.unique(np.asarray(list(rhs_pattern), dtype=np.int64))
    if rhs.size and (rhs[0] < 0 or rhs[-1] >= n):
        raise IndexError("rhs pattern indices out of range")
    return rhs


@dataclass(frozen=True)
class TriangularInspectionResult:
    """Everything the compiler needs to specialize a sparse triangular solve.

    ``reach`` is the VI-Prune reach-set (a DFS of ``DG_L`` from ``SP(rhs)``)
    and ``supernodes`` the VS-Block block-set (node equivalence on ``DG_L``).
    """

    n: int
    rhs_pattern: np.ndarray
    reach: np.ndarray
    reach_sorted: np.ndarray
    supernodes: SupernodePartition
    l_col_counts: np.ndarray
    symbolic_seconds: float

    @property
    def reach_size(self) -> int:
        """Number of columns that participate in the solve."""
        return int(self.reach.size)


@dataclass(frozen=True)
class CholeskyInspectionResult:
    """Everything the compiler needs to specialize a sparse Cholesky.

    ``row_idx[row_ptr[j]:row_ptr[j + 1]]`` is row ``j`` of ``L`` without its
    diagonal, ascending — the VI-Prune prune-set of column ``j`` (an
    up-traversal of the etree from ``SP(A)``).  ``supernodes`` is the
    VS-Block block-set (an up-traversal of the etree with ``ColCount(A)``).
    """

    n: int
    parent: np.ndarray
    post: np.ndarray
    l_indptr: np.ndarray
    l_indices: np.ndarray
    row_ptr: np.ndarray
    row_idx: np.ndarray
    l_col_counts: np.ndarray
    supernodes: SupernodePartition
    symbolic_seconds: float

    @property
    def factor_nnz(self) -> int:
        """Predicted number of nonzeros of ``L`` (diagonal included)."""
        return int(self.l_indptr[-1])

    def l_pattern_matrix(self) -> CSCMatrix:
        """The factor pattern as an all-zero CSC matrix, ready to be filled."""
        return CSCMatrix.from_pattern(self.n, self.n, self.l_indptr, self.l_indices)


@dataclass(frozen=True)
class LUInspectionResult:
    """Everything the compiler needs to specialize a no-pivot sparse LU.

    ``l_indptr``/``l_indices`` describe the unit-lower-triangular ``L`` (rows
    ascending, diagonal first) and ``u_indptr``/``u_indices`` the
    upper-triangular ``U`` (rows ascending, diagonal last), both exact — the
    GP-style reach computes them column by column, which is only possible
    because the kernel does not pivot.  The VI-Prune prune-set of column
    ``j`` (a DFS reach on ``DG_L`` from ``SP(A(:, j))``) is the rows of ``U``
    above its pivot: :func:`above_diagonal` of ``u_indptr`` / ``u_indices``.
    """

    n: int
    l_indptr: np.ndarray
    l_indices: np.ndarray
    u_indptr: np.ndarray
    u_indices: np.ndarray
    symbolic_seconds: float

    @property
    def l_nnz(self) -> int:
        """Predicted number of nonzeros of ``L`` (unit diagonal included)."""
        return int(self.l_indptr[-1])

    @property
    def u_nnz(self) -> int:
        """Predicted number of nonzeros of ``U`` (diagonal included)."""
        return int(self.u_indptr[-1])

    @property
    def factor_nnz(self) -> int:
        """Total stored entries of both factors (``nnz(L) + nnz(U)``)."""
        return self.l_nnz + self.u_nnz

    def l_pattern_matrix(self) -> CSCMatrix:
        """The ``L`` pattern as an all-zero CSC matrix, ready to be filled."""
        return CSCMatrix.from_pattern(self.n, self.n, self.l_indptr, self.l_indices)

    def u_pattern_matrix(self) -> CSCMatrix:
        """The ``U`` pattern as an all-zero CSC matrix, ready to be filled."""
        return CSCMatrix.from_pattern(self.n, self.n, self.u_indptr, self.u_indices)


class SymbolicInspector(ABC):
    """Base class of all symbolic inspectors.

    Subclasses implement :meth:`inspect`, which performs all pattern-only
    analysis for one numerical method and returns a result object containing
    the inspection sets of Table 1 plus the elapsed symbolic time.
    """

    #: Name of the numerical method this inspector serves.
    method: str = "abstract"

    @abstractmethod
    def inspect(self, matrix: CSCMatrix, **kwargs):
        """Run symbolic analysis on ``matrix`` and return a result object."""

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"{type(self).__name__}(method={self.method!r})"


class TriangularSolveInspector(SymbolicInspector):
    """Symbolic inspector for sparse triangular solve ``L x = b``.

    Inspection graph: the dependence graph DG_L (plus the RHS pattern for the
    reach-set).  Strategies: depth-first search for the reach-set (VI-Prune),
    node equivalence for the supernodes (VS-Block).
    """

    method = "triangular-solve"

    def inspect(
        self,
        matrix: CSCMatrix,
        rhs_pattern: Optional[Sequence[int] | np.ndarray] = None,
        **kwargs,
    ) -> TriangularInspectionResult:
        """Inspect a lower-triangular matrix and an optional RHS pattern.

        When ``rhs_pattern`` is omitted the RHS is assumed dense, i.e. the
        reach-set is every column (VI-Prune then degenerates to the original
        loop, as the paper notes for dense right-hand sides).
        """
        if kwargs:
            raise TypeError(f"unexpected arguments: {sorted(kwargs)}")
        if not matrix.is_lower_triangular():
            raise ValueError("triangular-solve inspection requires a lower-triangular L")
        n = matrix.n
        # Every kernel divides by the first stored entry of a column: it must be the diagonal.
        starts = matrix.indptr[:-1]
        stored = starts < matrix.indptr[1:]
        diagonal = np.zeros(n, dtype=bool)
        diagonal[stored] = matrix.indices[starts[stored]] == np.flatnonzero(stored)
        if not diagonal.all():
            raise ValueError(
                f"triangular-solve inspection requires a stored diagonal; column {np.argmin(diagonal)} of L has none"
            )
        start = time.perf_counter()
        rhs = normalize_rhs_pattern(n, rhs_pattern)
        if rhs is None:
            rhs = np.arange(n, dtype=np.int64)
        reach = reach_set(matrix, rhs)
        reach_sorted = np.sort(reach)
        supernodes = triangular_supernodes(matrix)
        col_counts = np.diff(matrix.indptr).astype(np.int64)
        elapsed = time.perf_counter() - start
        return TriangularInspectionResult(
            n=n,
            rhs_pattern=rhs,
            reach=reach,
            reach_sorted=reach_sorted,
            supernodes=supernodes,
            l_col_counts=col_counts,
            symbolic_seconds=elapsed,
        )


class CholeskyInspector(SymbolicInspector):
    """Symbolic inspector for sparse Cholesky factorization ``A = L Lᵀ``.

    Inspection graph: the elimination tree together with the pattern of ``A``.
    Strategies: single-node up-traversals bounded by marked nodes (``ereach``)
    for the per-column prune-sets, and the column-count/etree merging rule for
    the supernode block-set.
    """

    method = "cholesky"

    def inspect(
        self,
        matrix: CSCMatrix,
        **kwargs,
    ) -> CholeskyInspectionResult:
        """Inspect a symmetric positive-definite matrix.

        ``matrix`` may store the full symmetric pattern or only its lower
        triangle.  Only the pattern is read.
        """
        if kwargs:
            raise TypeError(f"unexpected arguments: {sorted(kwargs)}")
        if not matrix.is_square():
            raise ValueError("Cholesky inspection requires a square matrix")
        start = time.perf_counter()
        n = matrix.n
        parent = elimination_tree(matrix)
        post = postorder(parent)
        # Every row's ereach and the column pattern they add up to (equation
        # (1)), from one pass over the rows.
        row_ptr, row_idx, l_indptr, l_indices = factor_structure(matrix, parent)
        col_counts = np.diff(l_indptr)
        supernodes = cholesky_supernodes(col_counts, parent)
        elapsed = time.perf_counter() - start
        return CholeskyInspectionResult(
            n=n,
            parent=parent,
            post=post,
            l_indptr=l_indptr,
            l_indices=l_indices,
            row_ptr=row_ptr,
            row_idx=row_idx,
            l_col_counts=col_counts,
            supernodes=supernodes,
            symbolic_seconds=elapsed,
        )


class LDLTInspector(CholeskyInspector):
    """Symbolic inspector for sparse LDLᵀ factorization ``A = L D Lᵀ``.

    The fill pattern of the unit-diagonal ``L`` is identical to the Cholesky
    factor pattern (the elimination tree ignores numeric signs), so the whole
    inspection — etree, ``ereach`` row patterns, column counts, supernodes —
    is inherited unchanged; only the numeric lowering differs.
    """

    method = "ldlt"


def above_diagonal(u_indptr: np.ndarray, u_indices: np.ndarray):
    """``U`` without the pivot every column stores last, as ``(ptr, idx)``."""
    keep = np.ones(u_indices.size, dtype=bool)
    keep[u_indptr[1:] - 1] = False
    return u_indptr - np.arange(u_indptr.size, dtype=np.int64), u_indices[keep]


class LUInspector(SymbolicInspector):
    """Symbolic inspector for sparse LU ``A = L U`` without pivoting.

    Inspection graph: the dependence DAG of the partially built ``L``.
    Strategy: a GP-style depth-first reach per column for the exact
    ``L``/``U`` patterns (the prune-set of the update loop is the
    above-diagonal ``U`` pattern of each column).  Pivoting-free LU is
    reliable for the diagonally dominant Jacobians of the paper's §1.2
    circuit/power-grid workloads, whose patterns are fixed while values
    change.
    """

    method = "lu"

    def inspect(
        self,
        matrix: CSCMatrix,
        **kwargs,
    ) -> LUInspectionResult:
        """Inspect a square (generally unsymmetric) matrix.

        Only the pattern is read; the matrix should be diagonally dominant
        (or otherwise safely factorizable without pivoting) for the numeric
        kernel this inspection feeds.
        """
        if kwargs:
            raise TypeError(f"unexpected arguments: {sorted(kwargs)}")
        if not matrix.is_square():
            raise ValueError("LU inspection requires a square matrix")
        start = time.perf_counter()
        l_indptr, l_indices, u_indptr, u_indices = lu_pattern(matrix)
        return LUInspectionResult(
            n=matrix.n,
            l_indptr=l_indptr,
            l_indices=l_indices,
            u_indptr=u_indptr,
            u_indices=u_indices,
            symbolic_seconds=time.perf_counter() - start,
        )


@dataclass(frozen=True)
class IC0InspectionResult:
    """Everything the compiler needs to specialize an IC(0) factorization.

    The pattern arrays describe ``tril(A)`` itself: IC(0) allows no fill, so
    no fill computation (no ``ereach`` up-traversals) ever runs.  Row ``j``
    of ``(row_ptr, row_idx)`` holds the columns ``k < j`` with
    ``A[j, k] != 0`` — the update sources of column ``j``, its prune-set read
    straight from ``SP(tril(A))``.
    """

    n: int
    l_indptr: np.ndarray
    l_indices: np.ndarray
    row_ptr: np.ndarray
    row_idx: np.ndarray
    symbolic_seconds: float

    @property
    def factor_nnz(self) -> int:
        """Number of nonzeros of ``L``: those of ``tril(A)``."""
        return int(self.l_indptr[-1])

    def l_pattern_matrix(self) -> CSCMatrix:
        """The factor pattern as an all-zero CSC matrix, ready to be filled."""
        return CSCMatrix.from_pattern(self.n, self.n, self.l_indptr, self.l_indices)


class IC0Inspector(SymbolicInspector):
    """Symbolic inspector for incomplete Cholesky IC(0), ``A ≈ L Lᵀ``.

    The no-fill property makes inspection trivial compared to complete
    Cholesky: the factor pattern is ``tril(A)`` verbatim, so the inspector
    only *reads* the pattern — the per-column row patterns (the update
    sources, which the VI-Prune handler intersects with the ``A`` pattern to
    build the dropped-update-free descriptors) — without any fill
    computation or elimination tree.
    """

    method = "ic0"

    def inspect(
        self,
        matrix: CSCMatrix,
        **kwargs,
    ) -> IC0InspectionResult:
        """Inspect a symmetric positive-definite matrix (pattern only).

        ``matrix`` may store the full symmetric pattern or only its lower
        triangle; every column must hold its diagonal entry (IC(0) pivots on
        it).
        """
        if kwargs:
            raise TypeError(f"unexpected arguments: {sorted(kwargs)}")
        if not matrix.is_square():
            raise ValueError("IC(0) inspection requires a square matrix")
        start = time.perf_counter()
        n = matrix.n
        cols = matrix.col_indices()
        stored = np.bincount(cols[matrix.indices == cols], minlength=n) > 0
        if not stored.all():
            raise ValueError(f"missing diagonal entry in column {int(np.argmin(stored))}")
        lower = matrix.indices >= cols
        # Row j's update sources are the columns of tril(A)'s strict part
        # that hold row j: its transpose, ascending because the sort is stable.
        strict = matrix.indices > cols
        rows_below = matrix.indices[strict]
        return IC0InspectionResult(
            n=n,
            l_indptr=group_pointers(cols[lower], n),
            l_indices=matrix.indices[lower],
            row_ptr=group_pointers(rows_below, n),
            row_idx=cols[strict][np.argsort(rows_below, kind="stable")],
            symbolic_seconds=time.perf_counter() - start,
        )
