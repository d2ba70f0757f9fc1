"""Row and column counts of the Cholesky factor.

Column counts (``colcount[j] = nnz(L[:, j])`` including the diagonal) and row
counts, computed without forming ``L``.  The supernode detection rule compares
adjacent column counts (§4.2 of the paper).
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csc import CSCMatrix
from repro.symbolic import native
from repro.symbolic.etree import elimination_tree
from repro.symbolic.fill_pattern import _ereach_stamped, _upper_pattern

__all__ = [
    "column_counts_of_factor",
    "row_counts_of_factor",
]


def _factor_counts(A: CSCMatrix, parent: np.ndarray | None):
    """``(row counts, column counts)`` of ``L``, diagonal included, ``L`` never formed."""
    if parent is None:
        parent = elimination_tree(A)
    upper = _upper_pattern(A)
    n = upper.n
    lib = native.helper()
    if lib is not None:
        row_ptr, l_indptr = lib.factor_counts(n, upper.indptr, upper.indices, parent)
        return np.diff(row_ptr) + 1, np.diff(l_indptr)
    stamp = np.full(n, -1, dtype=np.int64)
    row_counts = np.empty(n, dtype=np.int64)
    col_counts = np.ones(n, dtype=np.int64)  # the diagonal of every column
    for k in range(n):
        reach = _ereach_stamped(upper, k, parent, stamp)
        row_counts[k] = reach.size + 1
        col_counts[reach] += 1
    return row_counts, col_counts


def column_counts_of_factor(A: CSCMatrix, parent: np.ndarray | None = None) -> np.ndarray:
    """``nnz`` per column of ``L`` (diagonal included), without forming ``L``.

    Uses the row-subtree characterization: row ``k`` contributes one entry to
    every column in ``ereach(A, k)``, and every column has its diagonal.
    """
    return _factor_counts(A, parent)[1]


def row_counts_of_factor(A: CSCMatrix, parent: np.ndarray | None = None) -> np.ndarray:
    """``nnz`` per row of ``L`` (diagonal included)."""
    return _factor_counts(A, parent)[0]
