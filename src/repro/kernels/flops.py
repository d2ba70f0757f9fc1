"""FLOP counting.

Figures 6 and 7 of the paper report performance in floating-point operations
per second.  Since every compared variant performs (essentially) the same
useful arithmetic for a given pattern, GFLOP/s is simply a pattern-dependent
constant divided by the measured time — which is how the harness computes it.
The conventions used here are stated explicitly so the numbers are
reproducible:

* Triangular solve over a reach-set ``R``:
  ``Σ_{j∈R} [1 division + 2·(nnz(L[:,j]) − 1) multiply/subtract]``.
* Cholesky with column counts ``c_j = nnz(L[:,j])`` (diagonal included):
  ``Σ_j [1 sqrt + (c_j − 1) divisions + (c_j − 1)·c_j multiply/subtract]``
  (the rank-1 update of the trailing submatrix touches ``(c_j−1)c_j/2``
  entries, each a multiply and a subtract).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.sparse.csc import CSCMatrix

__all__ = ["triangular_solve_flops", "cholesky_flops"]


def triangular_solve_flops(
    L: CSCMatrix, reach: Optional[Sequence[int] | np.ndarray] = None
) -> int:
    """FLOPs of a sparse triangular solve restricted to ``reach``.

    With ``reach=None`` the count covers all columns (dense RHS).
    """
    counts = np.diff(L.indptr).astype(np.int64)
    if reach is None:
        selected = counts
    else:
        reach = np.asarray(reach, dtype=np.int64)
        selected = counts[reach]
    return int(np.sum(1 + 2 * (selected - 1)))


def cholesky_flops(l_col_counts: np.ndarray | CSCMatrix) -> int:
    """FLOPs of a sparse Cholesky given the factor's column counts.

    Accepts either the column-count vector of ``L`` or the factor itself.
    """
    if isinstance(l_col_counts, CSCMatrix):
        counts = np.diff(l_col_counts.indptr).astype(np.int64)
    else:
        counts = np.asarray(l_col_counts, dtype=np.int64)
    below = counts - 1
    return int(np.sum(1 + below + below * counts))
