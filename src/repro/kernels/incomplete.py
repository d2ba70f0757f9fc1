"""Incomplete factorization reference kernels (IC(0) and ILU(0)).

The no-fill incomplete factorizations are the classic preconditioners of
iterative sparse solvers — exactly the workload §4.3 of the paper argues for:
a fixed pattern, hundreds of triangular-solve applications, so a one-time
symbolic/codegen cost is negligible.  Both kernels share the defining
property that makes them *trivially* specializable: the factor pattern **is**
the ``A`` pattern, so the symbolic phase reads the pattern instead of
computing fill.

* :func:`ic0_left_looking` — incomplete Cholesky, ``A ≈ L Lᵀ`` with
  ``pattern(L) = pattern(tril(A))``; exact on the pattern of ``A``
  (``(L Lᵀ)_{ij} = A_{ij}`` for every stored entry with ``i ≥ j``).
* :func:`ilu0_left_looking` — incomplete LU without pivoting,
  ``A ≈ L U`` with ``L`` unit lower triangular on ``tril(A)`` (explicit unit
  diagonal) and ``U`` upper triangular on ``triu(A)``; exact on the pattern
  of ``A``.

These left-looking formulations apply each column's updates in ascending
source order — the same per-entry operation sequence as the
Sympiler-generated kernels, so they agree **bitwise** with the compiled
``ic0`` / ``ilu0`` on both backends (asserted by the test-suite): they are
the oracles of the compiled preconditioners.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.kernels.lu import LUFactors
from repro.sparse.csc import CSCMatrix
from repro.symbolic.inspector import (
    IC0InspectionResult,
    IC0Inspector,
    ILU0InspectionResult,
    ILU0Inspector,
)

__all__ = ["ic0_left_looking", "ilu0_left_looking"]


def ic0_left_looking(
    A: CSCMatrix, inspection: Optional[IC0InspectionResult] = None
) -> CSCMatrix:
    """Left-looking IC(0): Cholesky restricted to the pattern of ``tril(A)``.

    Column ``j`` receives the update of every earlier column ``k`` with
    ``A[j, k] != 0``, restricted to the rows present in *both* column
    patterns (the dropped updates of IC(0)); the column is then scaled by the
    square root of its pivot.  Raises ``ValueError`` on a non-positive pivot
    (IC(0) existence is guaranteed for H-matrices, not for every SPD input).
    """
    if not A.is_square():
        raise ValueError("IC(0) requires a square matrix")
    if inspection is None:
        inspection = IC0Inspector().inspect(A)
    n = inspection.n
    l_indptr, l_indices = inspection.l_indptr, inspection.l_indices
    # Gather tril(A) values into the factor slots.
    l_data = np.empty(int(l_indptr[-1]), dtype=np.float64)
    for j in range(n):
        rows = A.col_rows(j)
        lo = int(np.searchsorted(rows, j))
        l_data[l_indptr[j] : l_indptr[j + 1]] = A.col_values(j)[lo:]
    for j in range(n):
        rows_j = l_indices[l_indptr[j] : l_indptr[j + 1]]
        for k in inspection.row_patterns[j]:
            k = int(k)
            k0, k1 = int(l_indptr[k]), int(l_indptr[k + 1])
            rows_k = l_indices[k0:k1]
            off = int(np.searchsorted(rows_k, j))
            ljk = l_data[k0 + off]
            common, ia, ib = np.intersect1d(
                rows_k[off:], rows_j, assume_unique=True, return_indices=True
            )
            l_data[l_indptr[j] + ib] -= l_data[k0 + off + ia] * ljk
        lp0, lp1 = int(l_indptr[j]), int(l_indptr[j + 1])
        d = l_data[lp0]
        if not d > 0.0:
            raise ValueError(f"IC(0) breakdown: non-positive pivot at column {j}")
        ljj = np.sqrt(d)
        l_data[lp0] = ljj
        l_data[lp0 + 1 : lp1] /= ljj
    return CSCMatrix(n, n, l_indptr.copy(), l_indices.copy(), l_data, check=False)


def ilu0_left_looking(
    A: CSCMatrix, inspection: Optional[ILU0InspectionResult] = None
) -> LUFactors:
    """Left-looking ILU(0): LU restricted to the pattern of ``A``, no pivoting.

    Column ``j`` receives the update of every earlier column ``k`` with
    ``A[k, j] != 0`` (the above-diagonal ``U`` pattern, finalized in place
    before use), restricted to the rows present in both patterns; the lower
    part is then scaled by the pivot ``U[j, j]``.  ``L`` stores an explicit
    unit diagonal so the generated triangular-solve kernels apply unchanged.
    """
    if not A.is_square():
        raise ValueError("ILU(0) requires a square matrix")
    if inspection is None:
        inspection = ILU0Inspector().inspect(A)
    n = inspection.n
    l_indptr, l_indices = inspection.l_indptr, inspection.l_indices
    u_indptr, u_indices = inspection.u_indptr, inspection.u_indices
    l_data = np.zeros(int(l_indptr[-1]), dtype=np.float64)
    u_data = np.empty(int(u_indptr[-1]), dtype=np.float64)
    for j in range(n):
        rows = A.col_rows(j)
        vals = A.col_values(j)
        split = int(np.searchsorted(rows, j))
        u_data[u_indptr[j] : u_indptr[j + 1]] = vals[: split + 1]
        l_data[l_indptr[j] + 1 : l_indptr[j + 1]] = vals[split + 1 :]
    for j in range(n):
        u0, u1 = int(u_indptr[j]), int(u_indptr[j + 1])
        rows_u = u_indices[u0:u1]
        lj0, lj1 = int(l_indptr[j]), int(l_indptr[j + 1])
        rows_lj = l_indices[lj0 + 1 : lj1]
        for t_local, k in enumerate(rows_u[:-1]):
            k = int(k)
            ukj = u_data[u0 + t_local]
            k0, k1 = int(l_indptr[k]), int(l_indptr[k + 1])
            rows_k = l_indices[k0 + 1 : k1]
            off_u = int(np.searchsorted(rows_u, k + 1))
            common, ia, ib = np.intersect1d(
                rows_k, rows_u[off_u:], assume_unique=True, return_indices=True
            )
            u_data[u0 + off_u + ib] -= l_data[k0 + 1 + ia] * ukj
            common, ia, ib = np.intersect1d(
                rows_k, rows_lj, assume_unique=True, return_indices=True
            )
            l_data[lj0 + 1 + ib] -= l_data[k0 + 1 + ia] * ukj
        piv = u_data[u1 - 1]
        if piv == 0.0:
            raise ValueError(f"ILU(0) breakdown: zero pivot at column {j}")
        l_data[lj0] = 1.0
        l_data[lj0 + 1 : lj1] /= piv
    L = CSCMatrix(n, n, l_indptr.copy(), l_indices.copy(), l_data, check=False)
    U = CSCMatrix(n, n, u_indptr.copy(), u_indices.copy(), u_data, check=False)
    return LUFactors(L=L, U=U)
