"""Column counts of the Cholesky factor.

Column counts (``colcount[j] = nnz(L[:, j])`` including the diagonal),
computed without forming ``L``.  The supernode detection rule compares
adjacent column counts (§4.2 of the paper).
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csc import CSCMatrix
from repro.symbolic import native
from repro.symbolic.etree import elimination_tree
from repro.symbolic.fill_pattern import _ereach_stamped, _upper_pattern

__all__ = ["column_counts_of_factor"]


def column_counts_of_factor(A: CSCMatrix, parent: np.ndarray | None = None) -> np.ndarray:
    """``nnz`` per column of ``L`` (diagonal included), without forming ``L``.

    Uses the row-subtree characterization: row ``k`` contributes one entry to
    every column in ``ereach(A, k)``, and every column has its diagonal.
    """
    if parent is None:
        parent = elimination_tree(A)
    upper = _upper_pattern(A)
    n = upper.n
    lib = native.helper()
    if lib is not None:
        return np.diff(lib.factor_counts(n, upper.indptr, upper.indices, parent)[1])
    stamp = np.full(n, -1, dtype=np.int64)
    col_counts = np.ones(n, dtype=np.int64)  # the diagonal of every column
    for k in range(n):
        col_counts[_ereach_stamped(upper, k, parent, stamp)] += 1
    return col_counts
