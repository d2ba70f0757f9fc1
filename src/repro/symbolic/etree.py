"""Elimination trees.

The elimination tree (etree) of an SPD matrix ``A`` is the central symbolic
structure for sparse Cholesky (§3.2 of the paper): ``parent[j] = min{i > j :
L[i, j] != 0}``.  It is a spanning forest of the filled graph ``G⁺(A)`` and
drives fill-in prediction, row-pattern computation (``ereach``) and supernode
detection.

The construction below is the classical Liu algorithm with path compression
(identical in spirit to CSparse's ``cs_etree``), running in effectively
``O(|A| α(n))`` time.

``elimination_tree`` and ``postorder`` run in the native helper
(:mod:`repro.symbolic.native`) when it is loaded; the ``*_reference``
functions are the same algorithms in Python — the fallback, and the oracle
the native results are tested against (array-equal).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.sparse.csc import CSCMatrix
from repro.symbolic import native

__all__ = [
    "elimination_tree",
    "postorder",
    "first_children",
    "child_counts",
    "tree_depths",
    "EliminationTree",
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
    lib = native.helper()
    if lib is None:
        return elimination_tree_reference(work)
    return lib.etree(work.n, work.indptr, work.indices)


def elimination_tree_reference(work: CSCMatrix) -> np.ndarray:
    """:func:`elimination_tree` in Python.

    ``work`` stores the upper triangle by columns (or the full symmetric
    pattern): entries below the diagonal are skipped, not transposed.
    """
    n = work.n
    parent = np.full(n, -1, dtype=np.int64)
    ancestor = np.full(n, -1, dtype=np.int64)
    indptr, indices = work.indptr, work.indices
    for k in range(n):
        for p in range(indptr[k], indptr[k + 1]):
            i = indices[p]
            # Traverse from i toward the root, compressing paths to k.
            while i != -1 and i < k:
                inext = ancestor[i]
                ancestor[i] = k
                if inext == -1:
                    parent[i] = k
                i = inext
    return parent


def child_counts(parent: np.ndarray) -> np.ndarray:
    """Number of children of every node in the forest."""
    parent = np.asarray(parent, dtype=np.int64)
    return np.bincount(parent[parent >= 0], minlength=parent.size).astype(np.int64)


def first_children(parent: np.ndarray) -> List[List[int]]:
    """Children lists of every node, in increasing child order."""
    parent = np.asarray(parent, dtype=np.int64)
    children: List[List[int]] = [[] for _ in range(parent.size)]
    for j, p in enumerate(parent):
        if p >= 0:
            children[p].append(j)
    return children


def postorder(parent: np.ndarray) -> np.ndarray:
    """Depth-first postorder of the elimination forest.

    Children are visited in increasing order, and roots in increasing order,
    which makes the postorder deterministic.  The returned array maps
    ``position → node``.
    """
    lib = native.helper()
    if lib is None:
        return postorder_reference(parent)
    return lib.postorder(parent)


def postorder_reference(parent: np.ndarray) -> np.ndarray:
    """:func:`postorder` in Python."""
    parent = np.asarray(parent, dtype=np.int64)
    n = parent.size
    children = first_children(parent)
    order = np.empty(n, dtype=np.int64)
    k = 0
    for root in range(n):
        if parent[root] != -1:
            continue
        # Iterative postorder over the subtree rooted at `root`.
        stack = [(root, 0)]
        while stack:
            node, child_idx = stack.pop()
            if child_idx < len(children[node]):
                stack.append((node, child_idx + 1))
                stack.append((children[node][child_idx], 0))
            else:
                order[k] = node
                k += 1
    if k != n:
        raise ValueError("parent array does not describe a forest (cycle detected)")
    return order


def tree_depths(parent: np.ndarray) -> np.ndarray:
    """Depth of every node (roots have depth 0)."""
    parent = np.asarray(parent, dtype=np.int64)
    n = parent.size
    depth = np.full(n, -1, dtype=np.int64)
    for j in range(n):
        # Walk to the nearest node with a known depth, then unwind.
        path = []
        v = j
        while v != -1 and depth[v] == -1:
            path.append(v)
            v = parent[v]
        base = depth[v] if v != -1 else -1
        for node in reversed(path):
            base += 1
            depth[node] = base
    return depth


@dataclass(frozen=True)
class EliminationTree:
    """The elimination tree plus commonly used derived structure."""

    parent: np.ndarray
    post: np.ndarray = field(repr=False)
    children: List[List[int]] = field(repr=False)

    @classmethod
    def from_matrix(cls, A: CSCMatrix) -> "EliminationTree":
        """Build the tree, its postorder and children lists from ``A``."""
        parent = elimination_tree(A)
        return cls(parent=parent, post=postorder(parent), children=first_children(parent))

    @property
    def n(self) -> int:
        """Number of nodes."""
        return int(self.parent.size)

    def roots(self) -> np.ndarray:
        """Indices of the forest roots."""
        return np.nonzero(self.parent == -1)[0].astype(np.int64)

    def n_children(self, j: int) -> int:
        """Number of children of node ``j``."""
        return len(self.children[j])

    def path_to_root(self, j: int) -> np.ndarray:
        """Nodes on the path from ``j`` (inclusive) to its root (inclusive)."""
        path = []
        v = int(j)
        while v != -1:
            path.append(v)
            v = int(self.parent[v])
        return np.asarray(path, dtype=np.int64)

    def depths(self) -> np.ndarray:
        """Depth of every node."""
        return tree_depths(self.parent)
