"""Permutations and symmetric permutation of sparse matrices.

Fill-reducing orderings (see :mod:`repro.sparse.ordering`) produce a
:class:`Permutation` which is applied symmetrically to an SPD matrix before
factorization: ``B = P A Pᵀ``.  Its ``perm`` / ``inv`` arrays convert
right-hand sides and solutions between the original and permuted orderings.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.coo import COOMatrix
from repro.sparse.csc import CSCMatrix

__all__ = ["Permutation"]


class Permutation:
    """A permutation of ``n`` items.

    The convention is the "new ← old" map used by CSparse: ``perm[k]`` is the
    *original* index that ends up in position ``k`` after permuting, so that
    for a vector ``x``, ``(P x)[k] = x[perm[k]]``.
    """

    __slots__ = ("perm", "inv")

    def __init__(self, perm: np.ndarray) -> None:
        perm = np.asarray(perm, dtype=np.int64)
        if perm.ndim != 1:
            raise ValueError("a permutation must be a 1-D integer array")
        n = perm.size
        seen = np.zeros(n, dtype=bool)
        if n and (perm.min() < 0 or perm.max() >= n):
            raise ValueError("permutation entries out of range")
        seen[perm] = True
        if not np.all(seen):
            raise ValueError("permutation is not a bijection")
        self.perm = perm
        inv = np.empty(n, dtype=np.int64)
        inv[perm] = np.arange(n, dtype=np.int64)
        self.inv = inv

    # ------------------------------------------------------------------ #
    @classmethod
    def identity(cls, n: int) -> "Permutation":
        """The identity permutation on ``n`` items."""
        return cls(np.arange(n, dtype=np.int64))

    @property
    def n(self) -> int:
        """Number of permuted items."""
        return int(self.perm.size)

    # ------------------------------------------------------------------ #
    # Matrix application
    # ------------------------------------------------------------------ #
    def symmetric_permute(self, A: CSCMatrix) -> CSCMatrix:
        """Return ``P A Pᵀ`` for a square matrix ``A``."""
        if not A.is_square():
            raise ValueError("symmetric permutation requires a square matrix")
        if A.n_rows != self.n:
            raise ValueError("matrix order does not match the permutation size")
        coo = A.to_coo()
        new_rows = self.inv[coo.rows]
        new_cols = self.inv[coo.cols]
        return COOMatrix(A.n_rows, A.n_cols, new_rows, new_cols, coo.data).to_csc()

    def inverse(self) -> "Permutation":
        """Return the inverse permutation."""
        return Permutation(self.inv.copy())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return np.array_equal(self.perm, other.perm)

    def __hash__(self) -> int:  # pragma: no cover - rarely used
        return hash(self.perm.tobytes())

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Permutation(n={self.n})"
