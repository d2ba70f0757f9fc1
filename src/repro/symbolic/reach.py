"""Reach-set computation on the dependence graph (Gilbert & Peierls).

For a lower-triangular system ``L x = b`` with a sparse right-hand side, the
nonzero pattern of ``x`` is ``Reach_L(β)`` — the set of vertices reachable in
DG_L from ``β = {i | b_i != 0}`` (neglecting numerical cancellation).  The
symbolic inspector for triangular solve computes this set once per sparsity
pattern; the VI-Prune transformation then restricts the solve loop to it.

The returned order is a *topological* order of the induced subgraph: every
column appears before all columns that depend on it, so a solver may process
the reach set front-to-back.  This mirrors the classic ``cs_reach`` /
``cs_dfs`` routines of CSparse, implemented iteratively to avoid Python
recursion limits on long dependency chains.

The search runs in the native helper (:mod:`repro.symbolic.native`), which
visits the sources in the order given and every column's edges in storage
order, so the topological order returned is deterministic.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.sparse.csc import CSCMatrix
from repro.symbolic import native

__all__ = ["reach_set", "reach_set_sorted", "reach_set_from_arrays"]


def _as_source_indices(n: int, b_pattern: Iterable[int] | np.ndarray) -> np.ndarray:
    sources = np.asarray(list(b_pattern), dtype=np.int64)
    if sources.size and (sources.min() < 0 or sources.max() >= n):
        raise IndexError("right-hand-side indices out of range")
    return sources


def reach_set_from_arrays(
    n: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    b_pattern: Sequence[int] | np.ndarray,
) -> np.ndarray:
    """Reach set over raw CSC arrays of a lower-triangular matrix.

    Parameters
    ----------
    n:
        Matrix order.
    indptr, indices:
        CSC structure of ``L`` (values are irrelevant).
    b_pattern:
        Indices of the nonzero entries of the right-hand side.

    Returns
    -------
    numpy.ndarray
        Reached column indices in topological (dependency-first) order.
    """
    return native.helper().reach(n, indptr, indices, _as_source_indices(n, b_pattern))


def reach_set(L: CSCMatrix, b_pattern: Sequence[int] | np.ndarray) -> np.ndarray:
    """Reach set of ``b_pattern`` in DG_L, in topological order.

    ``L`` must be lower triangular; only its pattern is used.
    """
    if not L.is_square():
        raise ValueError("reach sets are defined for square matrices")
    if not L.is_lower_triangular():
        raise ValueError("reach_set expects a lower-triangular matrix")
    return reach_set_from_arrays(L.n, L.indptr, L.indices, b_pattern)


def reach_set_sorted(L: CSCMatrix, b_pattern: Sequence[int] | np.ndarray) -> np.ndarray:
    """Reach set in ascending column order.

    For a lower-triangular matrix ascending column order is itself a valid
    topological order (every edge goes from a lower column to a higher one),
    so this is interchangeable with :func:`reach_set` for executing a solve,
    and more convenient for grouping the reach set into supernode blocks.
    """
    return np.sort(reach_set(L, b_pattern))
