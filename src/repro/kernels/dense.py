"""Dense micro-kernels used by supernodal sparse code.

The VS-Block transformation turns a sparse kernel into a sequence of dense
sub-kernels on variable-sized blocks: a dense Cholesky on the supernode's
diagonal block, dense triangular solves for its off-diagonal panel and dense
rank updates between panels (§2.3.2 of the paper).

Two regimes are covered, mirroring §4.2's discussion:

* NumPy/BLAS-backed routines for blocks large enough that library calls pay
  off (:func:`dense_cholesky`, :func:`dense_lower_solve`, ...), and
* a specialized unrolled kernel for tiny blocks (:func:`small_cholesky`),
  the analogue of Sympiler generating its own code for small dense
  sub-kernels instead of calling BLAS.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "dense_cholesky",
    "dense_ldlt",
    "dense_lower_solve",
    "dense_solve_transposed_right",
    "small_cholesky",
    "SMALL_KERNEL_LIMIT",
    "NotPositiveDefiniteError",
    "SingularMatrixError",
]

#: Largest block order for which the hand-unrolled kernels are available.
SMALL_KERNEL_LIMIT = 3


class NotPositiveDefiniteError(ValueError):
    """Raised when a (block) pivot is not strictly positive."""


class SingularMatrixError(ValueError):
    """Raised when an LDLᵀ pivot is exactly zero (matrix not factorizable)."""


def dense_cholesky(A: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor of a dense SPD matrix.

    A plain right-looking factorization with NumPy-vectorized updates; raises
    :class:`NotPositiveDefiniteError` if a pivot is non-positive.
    """
    A = np.array(A, dtype=np.float64, copy=True)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("dense_cholesky expects a square matrix")
    n = A.shape[0]
    for k in range(n):
        pivot = A[k, k]
        if not pivot > 0.0:
            raise NotPositiveDefiniteError(
                f"non-positive pivot {pivot!r} at column {k}"
            )
        pivot = math.sqrt(pivot)
        A[k, k] = pivot
        if k + 1 < n:
            A[k + 1 :, k] /= pivot
            # Symmetric rank-1 update of the trailing submatrix (lower part).
            A[k + 1 :, k + 1 :] -= np.outer(A[k + 1 :, k], A[k + 1 :, k])
    return np.tril(A)


def dense_ldlt(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LDLᵀ factorization of a dense symmetric matrix (no pivoting).

    Returns ``(L, d)`` with ``L`` unit lower triangular and ``d`` the diagonal
    of ``D``, so ``A = L @ diag(d) @ L.T``.  Pivots may be negative (symmetric
    indefinite input) but must be nonzero; a zero pivot raises
    :class:`SingularMatrixError`.
    """
    A = np.array(A, dtype=np.float64, copy=True)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("dense_ldlt expects a square matrix")
    n = A.shape[0]
    d = np.empty(n, dtype=np.float64)
    for k in range(n):
        pivot = A[k, k]
        if pivot == 0.0:
            raise SingularMatrixError(f"zero pivot at column {k}")
        d[k] = pivot
        A[k, k] = 1.0
        if k + 1 < n:
            A[k + 1 :, k] /= pivot
            # Trailing update: A[i, j] -= l_ik * d_k * l_jk (lower part).
            A[k + 1 :, k + 1 :] -= np.outer(A[k + 1 :, k], A[k + 1 :, k]) * pivot
    return np.tril(A), d


def dense_lower_solve(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve ``L X = B`` for a dense lower-triangular ``L``.

    ``B`` may be a vector or a matrix of right-hand sides; the result has the
    same shape as ``B``.
    """
    L = np.asarray(L, dtype=np.float64)
    B = np.array(B, dtype=np.float64, copy=True)
    n = L.shape[0]
    if L.shape != (n, n):
        raise ValueError("L must be square")
    if B.shape[0] != n:
        raise ValueError("dimension mismatch between L and B")
    for k in range(n):
        B[k] = B[k] / L[k, k]
        if k + 1 < n:
            B[k + 1 :] -= np.multiply.outer(L[k + 1 :, k], B[k]) if B.ndim > 1 else L[k + 1 :, k] * B[k]
    return B


def dense_solve_transposed_right(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve ``X Lᵀ = B`` for ``X``, with ``L`` dense lower triangular.

    This is the panel operation of supernodal Cholesky: the off-diagonal rows
    of the assembled panel are multiplied by ``L⁻ᵀ`` of the diagonal block.
    Equivalent to solving ``L Xᵀ = Bᵀ`` by forward substitution.
    """
    L = np.asarray(L, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    squeeze = False
    if B.ndim == 1:
        B = B[np.newaxis, :]
        squeeze = True
    X = dense_lower_solve(L, B.T.copy()).T
    return X[0] if squeeze else X


# --------------------------------------------------------------------------- #
# Specialized unrolled kernels for tiny blocks
# --------------------------------------------------------------------------- #
def _chol_1(a: np.ndarray) -> np.ndarray:
    if not a[0, 0] > 0.0:
        raise NotPositiveDefiniteError("non-positive 1x1 pivot")
    return np.array([[math.sqrt(a[0, 0])]])


def _chol_2(a: np.ndarray) -> np.ndarray:
    l00 = math.sqrt(a[0, 0])
    l10 = a[1, 0] / l00
    d = a[1, 1] - l10 * l10
    if not d > 0.0:
        raise NotPositiveDefiniteError("non-positive 2x2 trailing pivot")
    return np.array([[l00, 0.0], [l10, math.sqrt(d)]])


def _chol_3(a: np.ndarray) -> np.ndarray:
    l00 = math.sqrt(a[0, 0])
    l10 = a[1, 0] / l00
    l20 = a[2, 0] / l00
    d1 = a[1, 1] - l10 * l10
    if not d1 > 0.0:
        raise NotPositiveDefiniteError("non-positive 3x3 pivot (1)")
    l11 = math.sqrt(d1)
    l21 = (a[2, 1] - l20 * l10) / l11
    d2 = a[2, 2] - l20 * l20 - l21 * l21
    if not d2 > 0.0:
        raise NotPositiveDefiniteError("non-positive 3x3 pivot (2)")
    return np.array([[l00, 0.0, 0.0], [l10, l11, 0.0], [l20, l21, math.sqrt(d2)]])


_SMALL_CHOL = {1: _chol_1, 2: _chol_2, 3: _chol_3}


def small_cholesky(A: np.ndarray) -> np.ndarray:
    """Unrolled Cholesky for blocks of order 1–3.

    Verifies the unrolled path stays available for the block orders where the
    paper notes BLAS overheads dominate; larger blocks fall back to
    :func:`dense_cholesky`.
    """
    A = np.asarray(A, dtype=np.float64)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("small_cholesky expects a square matrix")
    if not has_small_kernel(n):
        return dense_cholesky(A)
    return _SMALL_CHOL[n](A)


def has_small_kernel(n: int) -> bool:
    """True when an unrolled kernel exists for blocks of order ``n``."""
    return 1 <= n <= SMALL_KERNEL_LIMIT
