"""Eigen-style baseline: simplicial left-looking Cholesky and triangular solve.

Eigen's ``SimplicialLLT`` splits work into an ``analyzePattern`` step (run
once per sparsity pattern) and a ``factorize`` step (run per value set).  The
paper's key observation (§4.2) is that even with this split the *numeric*
phase is not fully decoupled: for every column it still

* transposes ``A`` to reach the upper-triangular entries, and
* re-derives the row sparsity pattern of ``L`` by walking the elimination
  tree with a mark array (the "reach function"),

neither of which depends on the numeric values.  This module reproduces that
structure faithfully so the benchmark isolates exactly the overhead Sympiler
removes.  The triangular solve is the Figure 1(c) variant: a full column scan
with an ``x[j] != 0`` guard, no symbolic pre-pass.

This is an interpreted model of the library's *structure*, not the library:
its timings are comparable with python-backend generated code only.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from repro.kernels.cholesky import NotPositiveDefiniteError
from repro.kernels.triangular import trisolve_library
from repro.sparse.csc import CSCMatrix
from repro.symbolic.etree import elimination_tree
from repro.symbolic.fill_pattern import cholesky_pattern

__all__ = [
    "EigenLikeSymbolic",
    "EigenLikeFactorization",
    "eigen_like_symbolic",
    "eigen_like_numeric",
    "eigen_like_factorize",
    "eigen_like_trisolve",
]


@dataclass(frozen=True)
class EigenLikeSymbolic:
    """Result of the analyze-pattern phase (reusable across value changes)."""

    n: int
    parent: np.ndarray
    l_indptr: np.ndarray
    l_indices: np.ndarray
    seconds: float

    @property
    def factor_nnz(self) -> int:
        """Predicted nonzeros of the factor."""
        return int(self.l_indptr[-1])


@dataclass(frozen=True)
class EigenLikeFactorization:
    """A completed factorization: the factor plus phase timings."""

    L: CSCMatrix
    symbolic: EigenLikeSymbolic
    numeric_seconds: float


def eigen_like_symbolic(A: CSCMatrix) -> EigenLikeSymbolic:
    """Analyze-pattern phase: elimination tree and factor pattern."""
    if not A.is_square():
        raise ValueError("Cholesky requires a square matrix")
    start = time.perf_counter()
    parent = elimination_tree(A)
    l_indptr, l_indices = cholesky_pattern(A, parent)
    elapsed = time.perf_counter() - start
    return EigenLikeSymbolic(
        n=A.n, parent=parent, l_indptr=l_indptr, l_indices=l_indices, seconds=elapsed
    )


def eigen_like_numeric(A: CSCMatrix, symbolic: EigenLikeSymbolic) -> CSCMatrix:
    """Numeric phase of the simplicial left-looking factorization.

    Deliberately keeps the per-column symbolic work inside the loop:
    the transpose of ``A`` is formed here and the row pattern of each column
    is rebuilt by walking the elimination tree with a mark array.
    """
    n = symbolic.n
    if A.n != n:
        raise ValueError("matrix order does not match the symbolic analysis")
    l_indptr = symbolic.l_indptr
    l_indices = symbolic.l_indices
    l_data = np.zeros(int(l_indptr[-1]), dtype=np.float64)
    parent = symbolic.parent

    # Part of the coupled symbolic work: the numeric phase needs the upper
    # triangle of A (A is stored lower/full), so the transpose is formed here.
    upper = A.transpose()

    f = np.zeros(n, dtype=np.float64)
    mark = np.full(n, -1, dtype=np.int64)
    pattern_buffer = np.empty(n, dtype=np.int64)
    for j in range(n):
        # --- coupled symbolic work: rebuild the row pattern of row j ------ #
        mark[j] = j
        pattern_len = 0
        rows_u = upper.col_rows(j)
        for i in rows_u:
            i = int(i)
            if i >= j:
                continue
            while mark[i] != j:
                pattern_buffer[pattern_len] = i
                pattern_len += 1
                mark[i] = j
                i = int(parent[i])
                if i == -1:
                    break
        prune_set = np.sort(pattern_buffer[:pattern_len])
        # --- numeric work -------------------------------------------------- #
        rows_a = A.col_rows(j)
        vals_a = A.col_values(j)
        sel = rows_a >= j
        f[rows_a[sel]] = vals_a[sel]
        for k in prune_set:
            k = int(k)
            start, end = l_indptr[k], l_indptr[k + 1]
            rows_k = l_indices[start:end]
            pos = start + int(np.searchsorted(rows_k, j))
            ljk = l_data[pos]
            seg = slice(pos, end)
            f[l_indices[seg]] -= l_data[seg] * ljk
        start, end = l_indptr[j], l_indptr[j + 1]
        rows_j = l_indices[start:end]
        d = f[j]
        if not d > 0.0:
            raise NotPositiveDefiniteError(f"non-positive pivot at column {j}")
        ljj = math.sqrt(d)
        l_data[start] = ljj
        if end > start + 1:
            l_data[start + 1 : end] = f[rows_j[1:]] / ljj
        f[rows_j] = 0.0
    return CSCMatrix(n, n, l_indptr, l_indices, l_data, check=False)


def eigen_like_factorize(A: CSCMatrix) -> EigenLikeFactorization:
    """Run both phases and record their wall-clock times."""
    symbolic = eigen_like_symbolic(A)
    start = time.perf_counter()
    L = eigen_like_numeric(A, symbolic)
    numeric_seconds = time.perf_counter() - start
    return EigenLikeFactorization(L=L, symbolic=symbolic, numeric_seconds=numeric_seconds)


def eigen_like_trisolve(L: CSCMatrix, b: np.ndarray) -> np.ndarray:
    """Eigen's sparse triangular solve: Figure 1(c), no symbolic pre-pass."""
    return trisolve_library(L, b)
