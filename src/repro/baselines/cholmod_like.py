"""CHOLMOD-style baseline: supernodal left-looking Cholesky.

CHOLMOD performs a symbolic analysis once (etree, column counts, supernodes,
factor allocation) and a supernodal numeric factorization that assembles
dense panels and calls BLAS on them.  Compared with Sympiler-generated code,
the numeric phase here

* is a *generic* driver: supernode boundaries, panel row maps and descendant
  lists are looked up through indirection at run time rather than being baked
  into the code,
* always calls the library dense kernels (NumPy/BLAS) regardless of block
  size — the paper notes BLAS does poorly on the small blocks produced by
  matrices with small supernodes, and
* recomputes the per-supernode descendant sets and forms the transpose of
  ``A`` inside the numeric phase (the residual coupled symbolic work the
  paper describes for both libraries).

Node amalgamation is not implemented, matching the paper's CHOLMOD
configuration (§4.1).

This is an interpreted model of the library's *structure*, not the library:
its timings are comparable with python-backend generated code only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.kernels.cholesky import NotPositiveDefiniteError
from repro.kernels.dense import dense_cholesky, dense_solve_transposed_right
from repro.sparse.csc import CSCMatrix
from repro.symbolic.etree import elimination_tree
from repro.symbolic.fill_pattern import cholesky_pattern
from repro.symbolic.supernodes import SupernodePartition, cholesky_supernodes

__all__ = [
    "CholmodLikeSymbolic",
    "CholmodLikeFactorization",
    "cholmod_like_symbolic",
    "cholmod_like_numeric",
    "cholmod_like_factorize",
]


@dataclass(frozen=True)
class CholmodLikeSymbolic:
    """Result of CHOLMOD's analyze phase (reusable across value changes)."""

    n: int
    parent: np.ndarray
    l_indptr: np.ndarray
    l_indices: np.ndarray
    col_counts: np.ndarray
    supernodes: SupernodePartition
    seconds: float

    @property
    def factor_nnz(self) -> int:
        """Predicted nonzeros of the factor."""
        return int(self.l_indptr[-1])


@dataclass(frozen=True)
class CholmodLikeFactorization:
    """A completed factorization: the factor plus phase timings."""

    L: CSCMatrix
    symbolic: CholmodLikeSymbolic
    numeric_seconds: float


def cholmod_like_symbolic(A: CSCMatrix) -> CholmodLikeSymbolic:
    """Analyze phase: etree, column counts, factor pattern and supernodes."""
    if not A.is_square():
        raise ValueError("Cholesky requires a square matrix")
    start = time.perf_counter()
    parent = elimination_tree(A)
    l_indptr, l_indices = cholesky_pattern(A, parent)
    col_counts = np.diff(l_indptr).astype(np.int64)
    supernodes = cholesky_supernodes(col_counts, parent)
    elapsed = time.perf_counter() - start
    return CholmodLikeSymbolic(
        n=A.n,
        parent=parent,
        l_indptr=l_indptr,
        l_indices=l_indices,
        col_counts=col_counts,
        supernodes=supernodes,
        seconds=elapsed,
    )


def cholmod_like_numeric(A: CSCMatrix, symbolic: CholmodLikeSymbolic) -> CSCMatrix:
    """Numeric phase: generic supernodal left-looking factorization."""
    n = symbolic.n
    if A.n != n:
        raise ValueError("matrix order does not match the symbolic analysis")
    l_indptr = symbolic.l_indptr
    l_indices = symbolic.l_indices
    l_data = np.zeros(int(l_indptr[-1]), dtype=np.float64)
    parent = symbolic.parent
    supernodes = symbolic.supernodes

    # Residual coupled symbolic work kept in the numeric phase on purpose:
    # the transpose of A (to reach its upper triangle) ...
    upper = A.transpose()
    # ... and the per-column row patterns, recomputed with etree walks.
    mark = np.full(n, -1, dtype=np.int64)
    pattern_buffer = np.empty(n, dtype=np.int64)

    def row_pattern(j: int) -> np.ndarray:
        mark[j] = j
        length = 0
        for i in upper.col_rows(j):
            i = int(i)
            if i >= j:
                continue
            while mark[i] != j:
                pattern_buffer[length] = i
                length += 1
                mark[i] = j
                i = int(parent[i])
                if i == -1:
                    break
        return np.sort(pattern_buffer[:length])

    rowmap = np.full(n, -1, dtype=np.int64)
    for s, c0, c1 in supernodes.iter_supernodes():
        w = c1 - c0
        rows = l_indices[l_indptr[c0] : l_indptr[c0 + 1]]
        n_rows = rows.size
        rowmap[rows] = np.arange(n_rows, dtype=np.int64)
        panel = np.zeros((n_rows, w), dtype=np.float64)
        updating: set[int] = set()
        for jj in range(w):
            c = c0 + jj
            rows_a = A.col_rows(c)
            vals_a = A.col_values(c)
            sel = rows_a >= c
            panel[rowmap[rows_a[sel]], jj] = vals_a[sel]
            for k in row_pattern(c):
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
            in_block = rows_ge < c1
            multipliers = np.zeros(w, dtype=np.float64)
            multipliers[rows_ge[in_block] - c0] = vals_ge[in_block]
            panel[rowmap[rows_ge], :] -= np.outer(vals_ge, multipliers)
        diag_block = panel[:w, :w]
        try:
            # Always the library (BLAS-backed) dense kernels, any block size.
            l_diag = dense_cholesky(diag_block)
        except NotPositiveDefiniteError as exc:
            raise NotPositiveDefiniteError(
                f"supernode starting at column {c0}: {exc}"
            ) from exc
        if n_rows > w:
            off_diag = dense_solve_transposed_right(l_diag, panel[w:, :])
        else:
            off_diag = np.zeros((0, w), dtype=np.float64)
        for jj in range(w):
            c = c0 + jj
            start = l_indptr[c]
            width_part = w - jj
            l_data[start : start + width_part] = l_diag[jj:, jj]
            l_data[start + width_part : l_indptr[c + 1]] = off_diag[:, jj]
        rowmap[rows] = -1
    return CSCMatrix(n, n, l_indptr, l_indices, l_data, check=False)


def cholmod_like_factorize(A: CSCMatrix) -> CholmodLikeFactorization:
    """Run both phases and record their wall-clock times."""
    symbolic = cholmod_like_symbolic(A)
    start = time.perf_counter()
    L = cholmod_like_numeric(A, symbolic)
    numeric_seconds = time.perf_counter() - start
    return CholmodLikeFactorization(L=L, symbolic=symbolic, numeric_seconds=numeric_seconds)
