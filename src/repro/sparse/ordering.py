"""Fill-reducing orderings.

Sparse direct solvers permute the matrix symmetrically with a fill-reducing
ordering before factorization.  The paper relies on the library-default
orderings (AMD in CHOLMOD/Eigen); this reproduction provides a plain
minimum-degree ordering and reverse Cuthill–McKee.  Both operate on the
*pattern* of ``A + Aᵀ`` only, as orderings are purely symbolic.

Minimum degree runs in the native symbolic helper
(:mod:`repro.symbolic.native`), on a quotient graph.
"""

from __future__ import annotations

from collections import deque
from typing import List, Set

import numpy as np

from repro.sparse.csc import CSCMatrix
from repro.sparse.permutation import Permutation
from repro.sparse.utils import symmetrize_pattern

__all__ = [
    "natural_ordering",
    "minimum_degree_ordering",
    "reverse_cuthill_mckee",
    "ordering_by_name",
]


def _adjacency_sets(A: CSCMatrix) -> List[Set[int]]:
    """Adjacency sets (excluding self loops) of the symmetrized pattern."""
    S = symmetrize_pattern(A)
    adj: List[Set[int]] = []
    for j in range(S.n_cols):
        rows = S.col_rows(j)
        adj.append({int(i) for i in rows if i != j})
    return adj


def natural_ordering(A: CSCMatrix) -> Permutation:
    """The identity ordering (no reordering)."""
    if not A.is_square():
        raise ValueError("orderings are defined for square matrices")
    return Permutation.identity(A.n_rows)


def minimum_degree_ordering(A: CSCMatrix) -> Permutation:
    """An exact minimum-degree ordering.

    At each step the vertex of minimum current degree in the elimination graph
    is eliminated and its neighbourhood is turned into a clique.  Degrees are
    exact, not AMD's approximation, and ties are broken by the smallest vertex
    index, so the ordering is reproducible.
    """
    if not A.is_square():
        raise ValueError("orderings are defined for square matrices")
    if A.n_rows == 0:
        return Permutation.identity(0)
    # Deferred: repro.symbolic imports this package.
    from repro.symbolic import native

    S = symmetrize_pattern(A)
    return Permutation(native.helper().minimum_degree(S.n, S.indptr, S.indices))


def reverse_cuthill_mckee(A: CSCMatrix) -> Permutation:
    """Reverse Cuthill–McKee: a bandwidth-reducing BFS ordering.

    Components are visited starting from a pseudo-peripheral vertex (the
    lowest-degree vertex of each component); within a BFS level neighbours are
    visited in increasing-degree order, and the final ordering is reversed.
    """
    if not A.is_square():
        raise ValueError("orderings are defined for square matrices")
    n = A.n_rows
    if n == 0:
        return Permutation.identity(0)
    adj = _adjacency_sets(A)
    degree = np.array([len(s) for s in adj], dtype=np.int64)
    visited = np.zeros(n, dtype=bool)
    order: List[int] = []
    # Process vertices grouped by connected component.
    for start in np.argsort(degree, kind="stable"):
        start = int(start)
        if visited[start]:
            continue
        queue = deque([start])
        visited[start] = True
        while queue:
            v = queue.popleft()
            order.append(v)
            nbrs = sorted((u for u in adj[v] if not visited[u]), key=lambda u: (degree[u], u))
            for u in nbrs:
                visited[u] = True
                queue.append(u)
    order.reverse()
    return Permutation(np.asarray(order, dtype=np.int64))


_ORDERINGS = {
    "natural": natural_ordering,
    "mindeg": minimum_degree_ordering,
    "rcm": reverse_cuthill_mckee,
}


def ordering_by_name(name: str):
    """Look up an ordering function by its short name: ``natural``, ``mindeg`` or ``rcm``."""
    key = name.lower()
    if key not in _ORDERINGS:
        raise ValueError(f"unknown ordering {name!r}; available: {sorted(_ORDERINGS)}")
    return _ORDERINGS[key]
