"""Sparse Cholesky factorization kernels.

Two reference implementations of ``A = L Lᵀ`` on CSC storage:

* :func:`cholesky_left_looking` — the paper's Figure 4 algorithm with the
  symbolic phase fully decoupled: the caller supplies a
  :class:`~repro.symbolic.inspector.CholeskyInspectionResult` whose row
  patterns (prune-sets) and factor pattern are used verbatim, so the numeric
  loop touches only numeric arrays.
* :func:`cholesky_supernodal` — the decoupled supernodal (VS-Block) variant:
  columns are processed one supernode at a time with dense panel updates,
  dense block Cholesky and dense triangular solves.

Both variants produce the factor on the same predicted pattern, so results can
be compared entry-for-entry.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.kernels.dense import (
    NotPositiveDefiniteError,
    dense_cholesky,
    dense_solve_transposed_right,
    small_cholesky,
)
from repro.sparse.csc import CSCMatrix
from repro.symbolic.inspector import CholeskyInspectionResult, CholeskyInspector

__all__ = [
    "cholesky_left_looking",
    "cholesky_supernodal",
    "NotPositiveDefiniteError",
]


def _lower_column(A: CSCMatrix, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows and values of column ``j`` of ``A`` at/below the diagonal."""
    rows = A.col_rows(j)
    vals = A.col_values(j)
    mask = rows >= j
    return rows[mask], vals[mask]


def _require_spd_input(A: CSCMatrix) -> None:
    if not A.is_square():
        raise ValueError("Cholesky requires a square matrix")


# --------------------------------------------------------------------------- #
# Left-looking simplicial (decoupled) — Figure 4 of the paper
# --------------------------------------------------------------------------- #
def cholesky_left_looking(
    A: CSCMatrix, inspection: Optional[CholeskyInspectionResult] = None
) -> CSCMatrix:
    """Left-looking simplicial Cholesky with decoupled symbolic analysis.

    Parameters
    ----------
    A:
        SPD matrix (full symmetric or lower-triangular storage).
    inspection:
        A pre-computed symbolic inspection.  When omitted, the inspector is
        run here (and its cost is *not* part of the numeric phase, mirroring
        the decoupling the paper advocates).
    """
    _require_spd_input(A)
    if inspection is None:
        inspection = CholeskyInspector().inspect(A)
    n = A.n
    l_indptr = inspection.l_indptr
    l_indices = inspection.l_indices
    l_data = np.zeros(int(l_indptr[-1]), dtype=np.float64)
    row_patterns = inspection.row_patterns

    f = np.zeros(n, dtype=np.float64)
    for j in range(n):
        # f = A(j:n, j)
        rows_a, vals_a = _lower_column(A, j)
        f[rows_a] = vals_a
        # Update phase: subtract contributions of every column in the
        # prune-set (columns k < j with L[j, k] != 0).
        for k in row_patterns[j]:
            k = int(k)
            start, end = l_indptr[k], l_indptr[k + 1]
            rows_k = l_indices[start:end]
            # Position of row j inside column k (always present by definition
            # of the prune-set).
            pos = start + int(np.searchsorted(rows_k, j))
            ljk = l_data[pos]
            seg = slice(pos, end)
            f[l_indices[seg]] -= l_data[seg] * ljk
        # Column factorization phase.
        start, end = l_indptr[j], l_indptr[j + 1]
        rows_j = l_indices[start:end]
        d = f[j]
        if not d > 0.0:
            raise NotPositiveDefiniteError(f"non-positive pivot at column {j}")
        ljj = math.sqrt(d)
        l_data[start] = ljj
        if end > start + 1:
            l_data[start + 1 : end] = f[rows_j[1:]] / ljj
        # Clear the work vector for the next column.
        f[rows_j] = 0.0
    return CSCMatrix(n, n, l_indptr, l_indices, l_data, check=False)


# --------------------------------------------------------------------------- #
# Left-looking supernodal (decoupled, VS-Block reference)
# --------------------------------------------------------------------------- #
def cholesky_supernodal(
    A: CSCMatrix,
    inspection: Optional[CholeskyInspectionResult] = None,
    *,
    small_block_limit: int = 3,
) -> CSCMatrix:
    """Supernodal left-looking Cholesky with decoupled symbolic analysis.

    Columns are processed one supernode at a time: the supernode's columns are
    gathered into a dense trapezoidal panel, updates from descendant columns
    are applied as dense rank-1 panel updates, the diagonal block is factored
    with a dense Cholesky (hand-unrolled below ``small_block_limit``) and the
    off-diagonal panel finished with a dense triangular solve.
    """
    _require_spd_input(A)
    if inspection is None:
        inspection = CholeskyInspector().inspect(A)
    n = A.n
    l_indptr = inspection.l_indptr
    l_indices = inspection.l_indices
    l_data = np.zeros(int(l_indptr[-1]), dtype=np.float64)
    row_patterns = inspection.row_patterns
    supernodes = inspection.supernodes

    rowmap = np.full(n, -1, dtype=np.int64)
    for s, c0, c1 in supernodes.iter_supernodes():
        w = c1 - c0
        rows = l_indices[l_indptr[c0] : l_indptr[c0 + 1]]
        n_rows = rows.size
        rowmap[rows] = np.arange(n_rows, dtype=np.int64)
        panel = np.zeros((n_rows, w), dtype=np.float64)
        # Scatter A's columns of this supernode into the panel.
        for jj in range(w):
            c = c0 + jj
            rows_a, vals_a = _lower_column(A, c)
            panel[rowmap[rows_a], jj] = vals_a
        # Update phase: every column k < c0 that appears in the prune-set of
        # some column of the supernode contributes a rank-1 panel update.
        updating: set[int] = set()
        for jj in range(w):
            for k in row_patterns[c0 + jj]:
                k = int(k)
                if k < c0:
                    updating.add(k)
        for k in sorted(updating):
            start, end = l_indptr[k], l_indptr[k + 1]
            rows_k = l_indices[start:end]
            vals_k = l_data[start:end]
            lo = int(np.searchsorted(rows_k, c0))
            rows_ge = rows_k[lo:]
            vals_ge = vals_k[lo:]
            # Multipliers: the entries of column k in the supernode's rows.
            in_block = rows_ge < c1
            multipliers = np.zeros(w, dtype=np.float64)
            multipliers[rows_ge[in_block] - c0] = vals_ge[in_block]
            panel[rowmap[rows_ge], :] -= np.outer(vals_ge, multipliers)
        # Factorize the diagonal block and finish the off-diagonal panel.
        diag_block = panel[:w, :w]
        try:
            l_diag = (
                small_cholesky(diag_block)
                if w <= small_block_limit
                else dense_cholesky(diag_block)
            )
        except NotPositiveDefiniteError as exc:
            raise NotPositiveDefiniteError(
                f"supernode starting at column {c0}: {exc}"
            ) from exc
        if n_rows > w:
            off_diag = dense_solve_transposed_right(l_diag, panel[w:, :])
        else:
            off_diag = np.zeros((0, w), dtype=np.float64)
        # Scatter back into the compressed factor.
        for jj in range(w):
            c = c0 + jj
            start = l_indptr[c]
            width_part = w - jj
            l_data[start : start + width_part] = l_diag[jj:, jj]
            l_data[start + width_part : l_indptr[c + 1]] = off_diag[:, jj]
        rowmap[rows] = -1
    return CSCMatrix(n, n, l_indptr, l_indices, l_data, check=False)
