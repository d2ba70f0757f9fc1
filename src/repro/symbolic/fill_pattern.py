"""Fill-in prediction: row and column patterns of the Cholesky and LU factors.

Two closely related questions are answered here, both purely symbolic:

* the nonzero pattern of every *row* ``k`` of ``L`` — the set of columns
  ``j < k`` with ``L[k, j] != 0``, ``ereach(A, k)``.  This is the
  *prune-set* used by the VI-Prune transformation in the Cholesky update
  phase (Figure 4 and Table 1 of the paper): when factorizing column ``k``
  only those columns contribute updates.
* the full column pattern of ``L`` including fill-in, equation (1) of the
  paper.  Knowing it ahead of time lets the numeric code allocate ``L`` once
  and never perform dynamic allocation.

:func:`factor_structure` answers both from the elimination tree by upward
traversals bounded by marked nodes, the standard ``cs_ereach`` technique,
giving an overall ``O(|L|)`` symbolic cost; :func:`lu_pattern` is the
Gilbert–Peierls symbolic LU.  Both run in the native helper
(:mod:`repro.symbolic.native`).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.sparse.csc import CSCMatrix
from repro.symbolic import native
from repro.symbolic.etree import elimination_tree

__all__ = [
    "factor_structure",
    "lu_pattern",
]


def _upper_pattern(A: CSCMatrix) -> CSCMatrix:
    """Pattern holding, per column ``k``, the entries ``A[i, k]`` with ``i <= k``.

    The row patterns need the upper triangle of the symmetric matrix.  If only the
    lower triangle is stored, its transpose provides the upper part.
    """
    if A.is_lower_triangular() and A.n > 1:
        return A.transpose()
    return A


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
    return native.helper().factor_pattern(upper.n, upper.indptr, upper.indices, parent)


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
    return native.helper().lu_pattern(A.n, A.indptr, A.indices)
