"""Elimination trees.

The elimination tree (etree) of an SPD matrix ``A`` is the central symbolic
structure for sparse Cholesky (§3.2 of the paper): ``parent[j] = min{i > j :
L[i, j] != 0}``.  It is a spanning forest of the filled graph ``G⁺(A)`` and
drives fill-in prediction, row-pattern computation (``ereach``) and supernode
detection.

``elimination_tree`` and ``postorder`` run in the native helper
(:mod:`repro.symbolic.native`).  The tree is the classical Liu algorithm with
path compression (identical in spirit to CSparse's ``cs_etree``), running in
effectively ``O(|A| α(n))`` time.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csc import CSCMatrix
from repro.symbolic import native

__all__ = [
    "elimination_tree",
    "postorder",
    "child_counts",
]


def elimination_tree(A: CSCMatrix) -> np.ndarray:
    """Compute the elimination tree of a symmetric matrix.

    Parameters
    ----------
    A:
        A square matrix whose *symmetric* pattern defines the tree.  Either
        the full symmetric pattern or the upper triangle must be stored; if
        the matrix is detected to be lower-triangular-only it is transposed
        internally (the etree needs the entries ``A[i, k]`` with ``i < k`` of
        every column ``k``).

    Returns
    -------
    numpy.ndarray
        ``parent`` array of length ``n`` with ``-1`` marking roots.
    """
    if not A.is_square():
        raise ValueError("the elimination tree requires a square matrix")
    work = A.transpose() if A.is_lower_triangular() and A.n > 0 else A
    return native.helper().etree(work.n, work.indptr, work.indices)


def child_counts(parent: np.ndarray) -> np.ndarray:
    """Number of children of every node in the forest."""
    parent = np.asarray(parent, dtype=np.int64)
    return np.bincount(parent[parent >= 0], minlength=parent.size).astype(np.int64)


def postorder(parent: np.ndarray) -> np.ndarray:
    """Depth-first postorder of the elimination forest.

    Children are visited in increasing order, and roots in increasing order,
    which makes the postorder deterministic.  The returned array maps
    ``position → node``.
    """
    return native.helper().postorder(parent)
