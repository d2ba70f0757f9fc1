"""Supernode detection.

A *supernode* is a maximal range of consecutive columns whose below-diagonal
nonzero structure is identical, so the block they form can be treated as a
dense trapezoid.  The VS-Block transformation (§2.3.2) converts column-wise
sparse code into dense sub-kernels over these variable-sized blocks.

Two detectors are provided, matching Table 1 of the paper:

* :func:`triangular_supernodes` — node-equivalence on the dependence graph of
  an already-formed lower-triangular matrix ``L`` (used for triangular solve).
* :func:`cholesky_supernodes` — the etree/column-count rule used for Cholesky,
  which needs only the *predicted* factor structure, i.e. it runs before any
  numeric factorization: columns ``j-1`` and ``j`` merge when
  ``colcount[j] == colcount[j-1] - 1`` and ``j-1`` is the only child of ``j``
  in the elimination tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from repro.sparse.csc import CSCMatrix
from repro.symbolic.etree import child_counts

__all__ = [
    "SupernodePartition",
    "triangular_supernodes",
    "cholesky_supernodes",
    "supernodes_from_boundaries",
]


@dataclass(frozen=True)
class SupernodePartition:
    """A partition of the columns ``0..n-1`` into consecutive supernodes.

    Attributes
    ----------
    super_ptr:
        ``int64`` array of length ``n_supernodes + 1``; supernode ``s`` spans
        columns ``super_ptr[s]`` (inclusive) to ``super_ptr[s+1]`` (exclusive).
    col_to_super:
        ``int64`` array of length ``n`` mapping each column to its supernode.
    """

    super_ptr: np.ndarray
    col_to_super: np.ndarray

    def __post_init__(self) -> None:
        sp = np.asarray(self.super_ptr, dtype=np.int64)
        cs = np.asarray(self.col_to_super, dtype=np.int64)
        if sp.size < 1 or sp[0] != 0:
            raise ValueError("super_ptr must start at 0")
        if np.any(np.diff(sp) <= 0):
            raise ValueError("supernodes must be non-empty and consecutive")
        if sp[-1] != cs.size:
            raise ValueError("super_ptr must end at the number of columns")
        object.__setattr__(self, "super_ptr", sp)
        object.__setattr__(self, "col_to_super", cs)

    # ------------------------------------------------------------------ #
    @property
    def n_columns(self) -> int:
        """Total number of columns partitioned."""
        return int(self.col_to_super.size)

    @property
    def n_supernodes(self) -> int:
        """Number of supernodes."""
        return int(self.super_ptr.size - 1)

    def columns(self, s: int) -> Tuple[int, int]:
        """Half-open column range ``(start, end)`` of supernode ``s``."""
        if not (0 <= s < self.n_supernodes):
            raise IndexError(f"supernode {s} out of range")
        return int(self.super_ptr[s]), int(self.super_ptr[s + 1])

    def width(self, s: int) -> int:
        """Number of columns in supernode ``s``."""
        start, end = self.columns(s)
        return end - start

    def sizes(self) -> np.ndarray:
        """Widths of all supernodes."""
        return np.diff(self.super_ptr)

    def average_size(self) -> float:
        """Mean supernode width — the VS-Block participation heuristic input."""
        sizes = self.sizes()
        return float(sizes.mean()) if sizes.size else 0.0

    def max_size(self) -> int:
        """Largest supernode width."""
        sizes = self.sizes()
        return int(sizes.max()) if sizes.size else 0

    def supernode_of(self, j: int) -> int:
        """Supernode containing column ``j``."""
        return int(self.col_to_super[j])

    def iter_supernodes(self) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(s, start_col, end_col)`` for every supernode."""
        for s in range(self.n_supernodes):
            start, end = self.columns(s)
            yield s, start, end

    def is_trivial(self) -> bool:
        """True when every supernode is a single column."""
        return self.n_supernodes == self.n_columns


def supernodes_from_boundaries(boundaries: List[int] | np.ndarray, n: int) -> SupernodePartition:
    """Build a partition from a list of supernode start columns.

    ``boundaries`` must start with 0 and be strictly increasing; ``n`` is the
    total column count (appended as the final sentinel).
    """
    super_ptr = np.append(np.asarray(boundaries, dtype=np.int64), int(n))
    if super_ptr.size < 2 or super_ptr[0] != 0:
        raise ValueError("boundaries must start with column 0")
    col_to_super = np.repeat(np.arange(super_ptr.size - 1, dtype=np.int64), np.diff(super_ptr))
    return SupernodePartition(super_ptr=super_ptr, col_to_super=col_to_super)


def triangular_supernodes(L: CSCMatrix) -> SupernodePartition:
    """Node-equivalence supernodes of a lower-triangular matrix.

    Column ``j`` joins the supernode of ``j-1`` when the out-edges of the two
    dependence-graph nodes reach the same destinations, i.e. when the row
    pattern of column ``j-1`` below its diagonal equals the full row pattern
    of column ``j`` (diagonal included).
    """
    if not L.is_square():
        raise ValueError("supernode detection requires a square matrix")
    if not L.is_lower_triangular():
        raise ValueError("triangular_supernodes expects a lower-triangular matrix")
    n = L.n
    if n == 0:
        return SupernodePartition(
            super_ptr=np.zeros(1, dtype=np.int64), col_to_super=np.zeros(0, dtype=np.int64)
        )
    # Column j joins column j-1 when the rows of j-1 below its diagonal are
    # the rows of j.  Compare the sizes first, then the candidates' entries,
    # all candidates at once: `offsets` runs over each candidate's entries.
    counts = np.diff(L.indptr)
    cols = L.col_indices()
    has_diagonal = np.bincount(cols[L.indices == cols], minlength=n)
    below_start = L.indptr[:-1] + has_diagonal
    candidates = np.flatnonzero((counts - has_diagonal)[:-1] == counts[1:]) + 1
    lengths = counts[candidates]
    first = np.cumsum(lengths) - lengths
    offsets = np.arange(int(lengths.sum()), dtype=np.int64) - np.repeat(first, lengths)
    differ = (
        L.indices[np.repeat(below_start[candidates - 1], lengths) + offsets]
        != L.indices[np.repeat(L.indptr[candidates], lengths) + offsets]
    )
    mismatched = np.zeros(candidates.size, dtype=bool)
    filled = lengths > 0
    if differ.size:
        mismatched[filled] = np.add.reduceat(differ.astype(np.int64), first[filled]) > 0
    starts_supernode = np.ones(n, dtype=bool)
    starts_supernode[candidates[~mismatched]] = False
    return supernodes_from_boundaries(np.flatnonzero(starts_supernode), n)


def cholesky_supernodes(col_counts: np.ndarray, parent: np.ndarray) -> SupernodePartition:
    """Supernodes of the (not yet formed) Cholesky factor.

    Implements the merging rule of §3.2: adjacent columns ``j-1`` and ``j``
    belong to the same supernode when the nonzero count of column ``j-1``
    excluding its diagonal equals that of column ``j`` and ``j-1`` is the only
    child of ``j`` in the elimination tree.

    Parameters
    ----------
    col_counts:
        Column counts of ``L`` (diagonal included).
    parent:
        Elimination tree of the matrix being factorized.
    """
    col_counts = np.asarray(col_counts, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    n = col_counts.size
    if parent.size != n:
        raise ValueError("col_counts and parent must have the same length")
    if n == 0:
        return SupernodePartition(
            super_ptr=np.zeros(1, dtype=np.int64), col_to_super=np.zeros(0, dtype=np.int64)
        )
    merges = np.zeros(n, dtype=bool)
    merges[1:] = (
        (col_counts[1:] == col_counts[:-1] - 1)
        & (parent[:-1] == np.arange(1, n))
        & (child_counts(parent)[1:] == 1)
    )
    return supernodes_from_boundaries(np.flatnonzero(~merges), n)
