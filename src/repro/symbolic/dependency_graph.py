"""The dependence graph DG_L of a lower-triangular matrix.

Following Gilbert & Peierls (and Figure 1 of the paper), the dependence graph
of a lower-triangular matrix ``L`` has one vertex per column and a directed
edge ``(j, i)`` for every off-diagonal nonzero ``L[i, j] != 0``.  An edge
``j → i`` records that the solution component ``x_i`` depends on ``x_j`` in a
forward substitution, so any valid execution order must place ``j`` before
``i``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.sparse.csc import CSCMatrix, group_pointers

__all__ = ["DependencyGraph"]


class DependencyGraph:
    """Directed column-dependency graph of a lower-triangular CSC matrix.

    Vertex ``j``'s out-edges are ``indices[indptr[j]:indptr[j + 1]]``.
    """

    __slots__ = ("n", "indptr", "indices")

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray) -> None:
        self.n = int(n)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)

    @classmethod
    def from_lower_triangular(cls, L: CSCMatrix) -> "DependencyGraph":
        """Build DG_L from a lower-triangular matrix.

        Edges are the strictly-lower off-diagonal entries of each column; the
        diagonal is ignored.  Raises if ``L`` has entries above the diagonal.
        """
        if not L.is_square():
            raise ValueError("the dependence graph requires a square matrix")
        if not L.is_lower_triangular():
            raise ValueError("DG_L is defined for lower-triangular matrices")
        cols = np.repeat(np.arange(L.n, dtype=np.int64), np.diff(L.indptr))
        below = L.indices > cols
        return cls(L.n, group_pointers(cols[below], L.n), L.indices[below])

    # ------------------------------------------------------------------ #
    @property
    def n_edges(self) -> int:
        """Number of directed edges."""
        return int(self.indptr[-1])

    def out_neighbors(self, j: int) -> np.ndarray:
        """Vertices ``i`` with an edge ``j → i`` (i.e. ``L[i, j] != 0``, i>j)."""
        if not (0 <= j < self.n):
            raise IndexError(f"vertex {j} out of range [0, {self.n})")
        return self.indices[self.indptr[j] : self.indptr[j + 1]]

    def out_degree(self, j: int) -> int:
        """Number of out-edges of vertex ``j``."""
        return int(self.indptr[j + 1] - self.indptr[j])

    def reachable_from(self, sources: Iterable[int]) -> np.ndarray:
        """All vertices reachable from ``sources`` (sources included), sorted."""
        visited = np.zeros(self.n, dtype=bool)
        stack = [int(s) for s in sources]
        for s in stack:
            if not (0 <= s < self.n):
                raise IndexError(f"source vertex {s} out of range")
        while stack:
            v = stack.pop()
            if visited[v]:
                continue
            visited[v] = True
            for w in self.out_neighbors(v):
                if not visited[w]:
                    stack.append(int(w))
        return np.nonzero(visited)[0].astype(np.int64)

    def is_valid_topological_order(self, order: Sequence[int]) -> bool:
        """True when ``order`` places every vertex before its out-neighbours.

        Only the vertices present in ``order`` are considered; an edge whose
        endpoint is absent from ``order`` is ignored (this matches how a
        pruned reach-set is used: unreached columns never execute).
        """
        position = {int(v): k for k, v in enumerate(order)}
        if len(position) != len(order):
            return False  # duplicates
        for j in position:
            for i in self.out_neighbors(j):
                i = int(i)
                if i in position and position[i] <= position[j]:
                    return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"DependencyGraph(n={self.n}, edges={self.n_edges})"
