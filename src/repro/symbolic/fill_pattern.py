"""Fill-in prediction: row and column patterns of the Cholesky factor.

Two closely related questions are answered here, both purely symbolic:

* ``ereach(A, k, parent)`` — the nonzero pattern of *row* ``k`` of ``L``,
  i.e. the set of columns ``j < k`` with ``L[k, j] != 0``.  This is the
  *prune-set* used by the VI-Prune transformation in the Cholesky update
  phase (Figure 4 and Table 1 of the paper): when factorizing column ``k``
  only those columns contribute updates.
* ``cholesky_pattern(A)`` — the full column pattern of ``L`` including
  fill-in, equation (1) of the paper.  Knowing it ahead of time lets the
  numeric code allocate ``L`` once and never perform dynamic allocation.

Both are computed from the elimination tree by upward traversals bounded by
marked nodes, the standard ``cs_ereach`` technique, giving an overall
``O(|L|)`` symbolic cost.

Everything that visits every row — :func:`factor_structure` and the functions
built on it, and :func:`lu_pattern` — runs in the native helper
(:mod:`repro.symbolic.native`) when it is loaded; the ``*_reference``
functions are the same traversals in Python, kept as the fallback and as the
oracle the native results are tested against (array-equal).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.sparse.csc import CSCMatrix
from repro.sparse.utils import lower_triangle
from repro.symbolic import native
from repro.symbolic.etree import elimination_tree

__all__ = [
    "ereach",
    "factor_structure",
    "split_rows",
    "row_patterns_of_factor",
    "cholesky_pattern",
    "symbolic_factor_nnz",
    "lu_pattern",
]


def _upper_pattern(A: CSCMatrix) -> CSCMatrix:
    """Pattern holding, per column ``k``, the entries ``A[i, k]`` with ``i <= k``.

    ``ereach`` needs the upper triangle of the symmetric matrix.  If only the
    lower triangle is stored, its transpose provides the upper part.
    """
    if A.is_lower_triangular() and A.n > 1:
        return A.transpose()
    return A


def _ereach_stamped(upper: CSCMatrix, k: int, parent: np.ndarray, stamp: np.ndarray) -> np.ndarray:
    """Row ``k``'s pattern; ``stamp[i] == k`` marks the nodes this row has seen.

    A caller visiting every row passes one ``stamp`` (initially all ``-1``)
    to all of them: the row index is its own marker, so nothing is cleared or
    allocated between rows.
    """
    stamp[k] = k
    result: List[int] = []
    for i in upper.col_rows(k):
        i = int(i)
        if i > k:
            continue
        # Walk up the etree from i until a marked node is found: every node
        # on the way is a nonzero of row k of L.
        while stamp[i] != k:
            result.append(i)
            stamp[i] = k
            i = int(parent[i])
            if i == -1:
                break
    result.sort()
    return np.asarray(result, dtype=np.int64)


def ereach(A: CSCMatrix, k: int, parent: np.ndarray, *, _upper: CSCMatrix | None = None) -> np.ndarray:
    """Nonzero pattern of row ``k`` of the Cholesky factor ``L``.

    Returns the column indices ``j < k`` such that ``L[k, j] != 0``, in
    ascending order (ascending order is a topological order of the
    elimination tree because ``parent[j] > j``).

    Parameters
    ----------
    A:
        The SPD matrix (full symmetric or lower-triangular storage).
    k:
        Row index.
    parent:
        Elimination tree of ``A``.
    """
    if not (0 <= k < A.n):
        raise IndexError(f"row {k} out of range")
    upper = _upper if _upper is not None else _upper_pattern(A)
    return _ereach_stamped(upper, k, parent, np.full(A.n, -1, dtype=np.int64))


def split_rows(ptr: np.ndarray, idx: np.ndarray) -> List[np.ndarray]:
    """The rows of a CSR-form pattern as a list of views into ``idx``."""
    return np.split(idx, ptr[1:-1]) if ptr.size > 1 else []


def factor_structure(
    A: CSCMatrix, parent: np.ndarray | None = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Row and column patterns of ``L`` in array form, from one pass over the rows.

    Returns
    -------
    (row_ptr, row_idx, l_indptr, l_indices):
        ``row_idx[row_ptr[k]:row_ptr[k + 1]]`` is ``ereach(A, k)`` — row
        ``k`` of ``L`` without its diagonal, ascending, the prune-set of
        column ``k``'s update phase.  ``(l_indptr, l_indices)`` is the CSC
        structure of ``L``: equation (1) of the paper via row subtrees —
        column ``j`` holds its diagonal, then every ``k`` whose ereach
        includes ``j``, ascending.
    """
    if parent is None:
        parent = elimination_tree(A)
    upper = _upper_pattern(A)
    lib = native.helper()
    if lib is None:
        return factor_structure_reference(upper, parent)
    return lib.factor_pattern(upper.n, upper.indptr, upper.indices, parent)


def _pointers_of(lists) -> np.ndarray:
    """Compressed pointers of a sequence of lists laid end to end."""
    return np.concatenate(([0], np.cumsum([len(each) for each in lists], dtype=np.int64)))


def factor_structure_reference(
    upper: CSCMatrix, parent: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`factor_structure` in Python; ``upper`` stores the upper triangle."""
    n = upper.n
    stamp = np.full(n, -1, dtype=np.int64)
    rows = [_ereach_stamped(upper, k, parent, stamp) for k in range(n)]
    row_ptr = _pointers_of(rows)
    row_idx = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
    col_rows: List[List[int]] = [[j] for j in range(n)]
    for k in range(n):
        for j in rows[k]:
            col_rows[int(j)].append(k)
    l_indptr = _pointers_of(col_rows)
    # Rows were appended in increasing k, so each column is already sorted.
    l_indices = np.asarray([i for rows_j in col_rows for i in rows_j], dtype=np.int64)
    return row_ptr, row_idx, l_indptr, l_indices


def row_patterns_of_factor(A: CSCMatrix, parent: np.ndarray | None = None) -> List[np.ndarray]:
    """Row patterns of ``L`` for every row (list of ascending index arrays).

    Row ``k``'s pattern excludes the diagonal; it is exactly the prune-set of
    the Cholesky update phase for column ``k``.
    """
    row_ptr, row_idx, _, _ = factor_structure(A, parent)
    return split_rows(row_ptr, row_idx)


def cholesky_pattern(
    A: CSCMatrix, parent: np.ndarray | None = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Column pattern of the Cholesky factor ``L`` (with fill-in).

    Implements equation (1) of the paper via row subtrees: row ``k`` of ``L``
    has nonzeros in the columns ``ereach(A, k)``, therefore column ``j``
    contains row ``k`` for every ``k`` whose ereach includes ``j``, plus the
    diagonal entry ``(j, j)``.

    Returns
    -------
    (indptr, indices):
        CSC structure arrays of the lower-triangular factor with sorted rows
        per column.
    """
    return factor_structure(A, parent)[2:]


def symbolic_factor_nnz(A: CSCMatrix, parent: np.ndarray | None = None) -> int:
    """Number of nonzeros of ``L`` (diagonal included), without forming it."""
    indptr, _ = cholesky_pattern(A, parent)
    return int(indptr[-1])


def lu_pattern(A: CSCMatrix) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Exact column patterns of ``A = L U`` without pivoting (GP symbolic).

    Left-looking LU computes column ``j`` by solving ``L x = A(:, j)`` with
    the ``L`` built so far, so the pattern of ``x`` is the *reach* of the
    pattern of ``A(:, j)`` in the dependence graph of the partial ``L`` — the
    Gilbert–Peierls symbolic step.  Without pivoting the row order is fixed,
    which makes the whole symbolic factorization computable up front, one
    depth-first reach per column; entries above the diagonal land in ``U``
    and the rest in ``L``.

    Returns
    -------
    (l_indptr, l_indices, u_indptr, u_indices):
        CSC structure arrays of the unit-lower-triangular ``L`` (rows
        ascending, so the diagonal is the first entry of every column) and of
        the upper-triangular ``U`` (rows ascending, so the diagonal is the
        last entry of every column).  Both factors store their diagonal
        explicitly; structurally missing diagonals are added (a numerically
        zero pivot is a run-time error of the numeric kernel, not a symbolic
        one).
    """
    if not A.is_square():
        raise ValueError("the LU pattern requires a square matrix")
    lib = native.helper()
    if lib is None:
        return lu_pattern_reference(A)
    return lib.lu_pattern(A.n, A.indptr, A.indices)


def lu_pattern_reference(
    A: CSCMatrix,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`lu_pattern` in Python: one depth-first reach per column."""
    n = A.n
    l_cols: List[np.ndarray] = []  # off-diagonal rows (> j) of L column j
    u_cols: List[np.ndarray] = []  # above-diagonal rows (< j) of U column j
    marked = np.full(n, -1, dtype=np.int64)  # column currently marking a node
    stack = np.empty(n, dtype=np.int64)
    for j in range(n):
        reached: List[int] = []
        marked[j] = j  # the diagonal is always structural
        for i0 in A.col_rows(j):
            # Depth-first reach in the DAG of the already-built L columns:
            # a node k < j forwards to the off-diagonal rows of L(:, k).
            # Nodes are marked when pushed, so each is stacked at most once
            # per column and the fixed-size stack cannot overflow.
            i0 = int(i0)
            if marked[i0] == j:
                continue
            marked[i0] = j
            reached.append(i0)
            top = 0
            stack[0] = i0
            while top >= 0:
                i = int(stack[top])
                top -= 1
                if i < j:
                    for r in l_cols[i]:
                        r = int(r)
                        if marked[r] != j:
                            marked[r] = j
                            reached.append(r)
                            top += 1
                            stack[top] = r
        reached_arr = np.asarray(sorted(reached), dtype=np.int64)
        u_cols.append(reached_arr[reached_arr < j])
        l_cols.append(reached_arr[reached_arr > j])
    l_indptr = np.zeros(n + 1, dtype=np.int64)
    u_indptr = np.zeros(n + 1, dtype=np.int64)
    for j in range(n):
        l_indptr[j + 1] = l_indptr[j] + 1 + l_cols[j].size  # + unit diagonal
        u_indptr[j + 1] = u_indptr[j] + u_cols[j].size + 1  # + pivot
    l_indices = np.empty(int(l_indptr[-1]), dtype=np.int64)
    u_indices = np.empty(int(u_indptr[-1]), dtype=np.int64)
    for j in range(n):
        l_indices[l_indptr[j]] = j
        l_indices[l_indptr[j] + 1 : l_indptr[j + 1]] = l_cols[j]
        u_indices[u_indptr[j] : u_indptr[j + 1] - 1] = u_cols[j]
        u_indices[u_indptr[j + 1] - 1] = j
    return l_indptr, l_indices, u_indptr, u_indices


def fill_in_count(A: CSCMatrix, parent: np.ndarray | None = None) -> int:
    """Number of fill-in entries: ``nnz(L) - nnz(tril(A))``."""
    nnz_l = symbolic_factor_nnz(A, parent)
    nnz_tril = lower_triangle(A).nnz
    return nnz_l - nnz_tril
