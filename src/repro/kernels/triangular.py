"""Sparse triangular solve: the four variants of Figure 1.

All variants solve ``L x = b`` for a lower-triangular CSC matrix ``L`` with a
full stored diagonal and a (possibly sparse) dense-storage right-hand side
``b``.  They differ only in which columns they visit and how:

* :func:`trisolve_naive` — Figure 1(b): every column, unconditionally.
* :func:`trisolve_library` — Figure 1(c): every column, skipping the work
  when ``x[j]`` is numerically zero (the Eigen strategy).
* :func:`trisolve_decoupled` — Figure 1(d): only the columns in a
  pre-computed reach-set (symbolic analysis fully decoupled).
* :func:`trisolve_supernodal` — the VS-Block reference: whole supernodes are
  solved with dense sub-kernels; combined with a reach-set it processes only
  supernodes that contain reached columns.

Inner column updates use NumPy fancy indexing in every variant so the
comparison across variants isolates the *algorithmic* differences (iteration
pruning and blocking), exactly what the paper's figures measure.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.kernels.dense import dense_lower_solve, small_lower_solve
from repro.sparse.csc import CSCMatrix
from repro.symbolic.supernodes import SupernodePartition

__all__ = [
    "trisolve_naive",
    "trisolve_library",
    "trisolve_decoupled",
    "trisolve_supernodal",
]


def _check_inputs(L: CSCMatrix, b: np.ndarray) -> np.ndarray:
    if not L.is_square():
        raise ValueError("triangular solve requires a square matrix")
    if not L.is_lower_triangular():
        raise ValueError("L must be lower triangular")
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (L.n,):
        raise ValueError(f"b must have shape ({L.n},), got {b.shape}")
    return b


def _column_diag_first(L: CSCMatrix, j: int) -> None:
    rows = L.col_rows(j)
    if rows.size == 0 or rows[0] != j:
        raise ValueError(f"column {j} of L is missing its diagonal entry")


def trisolve_naive(L: CSCMatrix, b: np.ndarray) -> np.ndarray:
    """Figure 1(b): forward substitution over every column.

    An interpreted reference: as a timing baseline it is comparable with
    python-backend generated code only.
    """
    b = _check_inputs(L, b)
    x = b.copy()
    indptr, indices, data = L.indptr, L.indices, L.data
    for j in range(L.n):
        _column_diag_first(L, j)
        start, end = indptr[j], indptr[j + 1]
        xj = x[j] / data[start]
        x[j] = xj
        if end > start + 1:
            x[indices[start + 1 : end]] -= data[start + 1 : end] * xj
    return x


def trisolve_library(L: CSCMatrix, b: np.ndarray) -> np.ndarray:
    """Figure 1(c): like the naive solve but skips columns where ``x[j] == 0``.

    This is the strategy used by general libraries such as Eigen: the full
    column loop still runs (an ``O(n)`` scan), but the numeric work of a
    column is elided when its solution component is zero.
    """
    b = _check_inputs(L, b)
    x = b.copy()
    indptr, indices, data = L.indptr, L.indices, L.data
    for j in range(L.n):
        if x[j] != 0.0:
            _column_diag_first(L, j)
            start, end = indptr[j], indptr[j + 1]
            xj = x[j] / data[start]
            x[j] = xj
            if end > start + 1:
                x[indices[start + 1 : end]] -= data[start + 1 : end] * xj
    return x


def trisolve_decoupled(
    L: CSCMatrix, b: np.ndarray, reach: Sequence[int] | np.ndarray
) -> np.ndarray:
    """Figure 1(d): iterate only over the pre-computed reach-set.

    ``reach`` must be a valid topological order of the reached columns (as
    produced by :func:`repro.symbolic.reach.reach_set` or its sorted variant);
    the numeric loop contains no symbolic work at all.
    """
    b = _check_inputs(L, b)
    x = b.copy()
    indptr, indices, data = L.indptr, L.indices, L.data
    reach = np.asarray(reach, dtype=np.int64)
    for j in reach:
        _column_diag_first(L, int(j))
        start, end = indptr[j], indptr[j + 1]
        xj = x[j] / data[start]
        x[j] = xj
        if end > start + 1:
            x[indices[start + 1 : end]] -= data[start + 1 : end] * xj
    return x


def trisolve_supernodal(
    L: CSCMatrix,
    b: np.ndarray,
    supernodes: SupernodePartition,
    reach_sorted: Optional[np.ndarray] = None,
) -> np.ndarray:
    """VS-Block reference: solve whole supernodes with dense sub-kernels.

    For each participating supernode the diagonal block is solved densely and
    the off-diagonal panel applied as a dense matrix–vector product.  When a
    sorted reach-set is supplied, supernodes containing no reached column are
    skipped entirely; columns of a participating supernode that are outside
    the reach-set hold zeros, so processing the full block is numerically
    equivalent (this matches Sympiler's "supernodes with a full diagonal
    block" design, §4.2).
    """
    b = _check_inputs(L, b)
    if supernodes.n_columns != L.n:
        raise ValueError("supernode partition does not match the matrix order")
    x = b.copy()
    indptr, indices, data = L.indptr, L.indices, L.data

    if reach_sorted is None:
        active = np.ones(supernodes.n_supernodes, dtype=bool)
    else:
        reach_sorted = np.asarray(reach_sorted, dtype=np.int64)
        active = np.zeros(supernodes.n_supernodes, dtype=bool)
        active[supernodes.col_to_super[reach_sorted]] = True

    for s, c0, c1 in supernodes.iter_supernodes():
        if not active[s]:
            continue
        w = c1 - c0
        _column_diag_first(L, c0)
        rows = indices[indptr[c0] : indptr[c0 + 1]]
        n_rows = rows.size
        if w == 1:
            start, end = indptr[c0], indptr[c0 + 1]
            xj = x[c0] / data[start]
            x[c0] = xj
            if end > start + 1:
                x[indices[start + 1 : end]] -= data[start + 1 : end] * xj
            continue
        # Gather the supernode into a dense trapezoidal panel.
        diag_block = np.zeros((w, w), dtype=np.float64)
        panel = np.zeros((n_rows - w, w), dtype=np.float64)
        for jj in range(w):
            vals = data[indptr[c0 + jj] : indptr[c0 + jj + 1]]
            diag_block[jj:, jj] = vals[: w - jj]
            panel[:, jj] = vals[w - jj :]
        rhs = x[c0:c1].copy()
        sol = small_lower_solve(diag_block, rhs) if w <= 3 else dense_lower_solve(diag_block, rhs)
        x[c0:c1] = sol
        if n_rows > w:
            x[rows[w:]] -= panel @ sol
    return x
