"""Dense oracles of the factorizations, written apart from the code under test.

Each runs on a dense copy of the matrix, without pivoting.  :func:`ldlt` and
:func:`lu` are the complete factorizations, for numeric checks.  :func:`ic0`
restricts every update to the stored entries of ``A``.  It runs
left-looking, with sources in ascending order, which is the operation order
of the python backend's kernel, so the two agree to the bit.
:func:`lower_triangle` is scipy's ``tril`` on a CSC matrix;
:func:`on_pattern` reads a dense factor at the stored entries of a CSC one;
:func:`solve_with` solves with compiled factors by scipy's triangular solves,
and :func:`reference_solve` an SPD system by the dense Cholesky factor.
"""

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve_triangular

from repro.baselines.scipy_reference import reference_cholesky
from repro.sparse.csc import CSCMatrix
from repro.symbolic.inspector import inspect_cholesky


def lower_triangle(A):
    """The stored entries of ``A`` on and below the diagonal, by scipy's ``tril``."""
    return CSCMatrix.from_scipy(sp.tril(A.to_scipy(), format="csc"))


def on_pattern(dense, M):
    """The entries of ``dense`` at the stored positions of ``M``, in ``M.data`` order."""
    return dense[M.indices, np.repeat(np.arange(M.n), np.diff(M.indptr))]


def reference_solve(A, b):
    """``x`` with ``A x = b`` for an SPD ``A``, by :func:`reference_cholesky` and scipy's dense triangular solves."""
    L = reference_cholesky(A)
    y = scipy.linalg.solve_triangular(L, np.asarray(b, dtype=np.float64), lower=True)
    return scipy.linalg.solve_triangular(L.T, y, lower=False)


def solve_with(factors, b):
    """``x`` with ``L diag(d) Lᵀ x = b`` (LDLᵀ factors) or ``L U x = b`` (LU factors), by scipy's triangular solves."""
    L = factors.L.to_scipy().tocsr()
    y = spsolve_triangular(L, b, lower=True)
    if hasattr(factors, "d"):
        return spsolve_triangular(L.T.tocsr(), y / factors.d, lower=False)
    return spsolve_triangular(factors.U.to_scipy().tocsr(), y, lower=False)


def cholesky_factor(A):
    """NumPy's Cholesky factor of ``A`` as a CSC matrix on the inspector's pattern of ``L``."""
    L = inspect_cholesky(A).l_pattern_matrix()
    return L.with_values(on_pattern(reference_cholesky(A), L))


def ldlt(A):
    """``(L, d)`` with ``A = L diag(d) Lᵀ`` and ``L`` unit lower triangular; reads ``tril(A)``."""
    M = np.tril(A.to_dense())
    n = M.shape[0]
    L, d = np.eye(n), np.empty(n)
    for k in range(n):
        d[k] = M[k, k]
        L[k + 1 :, k] = M[k + 1 :, k] / d[k]
        M[k + 1 :, k + 1 :] -= np.outer(L[k + 1 :, k], M[k + 1 :, k])
    return L, d


def lu(A):
    """``(L, U)`` with ``A = L U``, ``L`` unit lower and ``U`` upper triangular."""
    U = A.to_dense()
    L = np.eye(U.shape[0])
    for k in range(U.shape[0]):
        L[k + 1 :, k] = U[k + 1 :, k] / U[k, k]
        U[k + 1 :, :] -= np.outer(L[k + 1 :, k], U[k, :])
        U[k + 1 :, k] = 0.0
    return L, np.triu(U)


def _dense_and_mask(A):
    mask = np.zeros((A.n, A.n), dtype=bool)
    mask[A.indices, np.repeat(np.arange(A.n), np.diff(A.indptr))] = True
    return A.to_dense(), mask


def ic0(A):
    """IC(0) of ``A``: the dense lower factor, nonzero only on the pattern of ``tril(A)``."""
    L, mask = _dense_and_mask(A)
    L, mask = np.tril(L), np.tril(mask)
    for j in range(A.n):
        for k in np.flatnonzero(mask[j, :j]):
            rows = j + np.flatnonzero(mask[j:, j] & mask[j:, k])
            L[rows, j] -= L[rows, k] * L[j, k]
        if not L[j, j] > 0.0:
            raise ValueError(f"non-positive pivot at column {j}")
        L[j, j] = np.sqrt(L[j, j])
        L[j + 1 :, j] /= L[j, j]
    return L
