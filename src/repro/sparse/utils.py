"""Structural helpers shared by the sparse, symbolic and kernel layers."""

from __future__ import annotations

import numpy as np

from repro.sparse.csc import CSCMatrix

__all__ = [
    "lower_triangle",
    "upper_triangle",
    "symmetrize_pattern",
    "is_symmetric_pattern",
    "residual_norm",
    "dense_lower_from_csc",
    "pattern_of",
    "column_counts",
    "require_finite_values",
]


def require_finite_values(A: CSCMatrix, values=None) -> None:
    """Raise ``ValueError`` naming the first non-finite entry of ``values``.

    ``values`` are nonzeros in the storage order of ``A``'s pattern
    (``A.data`` when omitted).  No kernel of this package pivots, so a NaN or
    an infinity would otherwise come back as a NaN answer instead of an error.
    """
    values = A.data if values is None else np.asarray(values)
    finite = np.isfinite(values)
    if finite.all():
        return
    k = int(np.argmin(finite))
    col = int(np.searchsorted(A.indptr, k, side="right")) - 1
    raise ValueError(f"matrix value {values[k]} at A[{int(A.indices[k])}, {col}] (stored entry {k}) is not finite")


def lower_triangle(A: CSCMatrix, *, strict: bool = False, keep_diagonal: bool = True) -> CSCMatrix:
    """Extract the lower triangle of ``A`` as a new CSC matrix.

    Parameters
    ----------
    strict:
        When true, drop the diagonal as well (keep only ``i > j``).
    keep_diagonal:
        Ignored when ``strict`` is true; otherwise controls whether diagonal
        entries are retained.
    """
    keep_diag = keep_diagonal and not strict
    new_indptr = np.zeros(A.n_cols + 1, dtype=np.int64)
    keep_masks = []
    for j in range(A.n_cols):
        rows = A.col_rows(j)
        if keep_diag:
            mask = rows >= j
        else:
            mask = rows > j
        keep_masks.append(mask)
        new_indptr[j + 1] = new_indptr[j] + int(mask.sum())
    keep = (
        np.concatenate(keep_masks)
        if keep_masks
        else np.zeros(0, dtype=bool)
    )
    return CSCMatrix(
        A.n_rows, A.n_cols, new_indptr, A.indices[keep], A.data[keep], check=False
    )


def upper_triangle(A: CSCMatrix, *, strict: bool = False, keep_diagonal: bool = True) -> CSCMatrix:
    """Extract the upper triangle of ``A`` as a new CSC matrix."""
    keep_diag = keep_diagonal and not strict
    new_indptr = np.zeros(A.n_cols + 1, dtype=np.int64)
    keep_masks = []
    for j in range(A.n_cols):
        rows = A.col_rows(j)
        if keep_diag:
            mask = rows <= j
        else:
            mask = rows < j
        keep_masks.append(mask)
        new_indptr[j + 1] = new_indptr[j] + int(mask.sum())
    keep = (
        np.concatenate(keep_masks)
        if keep_masks
        else np.zeros(0, dtype=bool)
    )
    return CSCMatrix(
        A.n_rows, A.n_cols, new_indptr, A.indices[keep], A.data[keep], check=False
    )


def symmetrize_pattern(A: CSCMatrix) -> CSCMatrix:
    """Return a matrix with the structurally symmetric pattern ``A + Aᵀ``.

    Values are ``A + Aᵀ`` with the diagonal counted once (the value layer is
    irrelevant for the symbolic routines that consume this, but keeping it
    well defined makes the function reusable numerically).
    """
    out = A.add(A.transpose())
    # The diagonal was added twice; subtract one copy.
    cols = out.col_indices()
    on_diagonal = out.indices == cols
    out.data[on_diagonal] -= A.diagonal()[cols[on_diagonal]]
    return out


def is_symmetric_pattern(A: CSCMatrix) -> bool:
    """True when the nonzero pattern of ``A`` equals that of ``Aᵀ``."""
    if not A.is_square():
        return False
    At = A.transpose()
    return A.pattern_equal(
        CSCMatrix(A.n_rows, A.n_cols, At.indptr, At.indices, At.data, check=False)
    )


def is_numerically_symmetric(A: CSCMatrix, *, rtol: float = 1e-12, atol: float = 1e-12) -> bool:
    """True when ``A`` equals ``Aᵀ`` numerically."""
    if not A.is_square():
        return False
    return np.allclose(A.to_dense(), A.to_dense().T, rtol=rtol, atol=atol)


def residual_norm(A: CSCMatrix, x: np.ndarray, b: np.ndarray) -> float:
    """Relative residual ``||A x - b|| / max(||b||, 1)`` in the 2-norm."""
    r = A.matvec(np.asarray(x, dtype=np.float64)) - np.asarray(b, dtype=np.float64)
    denom = max(float(np.linalg.norm(b)), 1.0)
    return float(np.linalg.norm(r)) / denom


def dense_lower_from_csc(L: CSCMatrix) -> np.ndarray:
    """Dense lower-triangular copy of a CSC factor (upper part zeroed)."""
    dense = L.to_dense()
    return np.tril(dense)


def pattern_of(A: CSCMatrix) -> CSCMatrix:
    """Return a copy of ``A`` whose values are all 1.0 (structure only)."""
    out = A.copy()
    out.data[:] = 1.0
    return out


def column_counts(A: CSCMatrix) -> np.ndarray:
    """Number of stored entries per column, as an ``int64`` vector."""
    return np.diff(A.indptr).astype(np.int64)
