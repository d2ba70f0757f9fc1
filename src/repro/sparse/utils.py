"""Structural helpers shared by the sparse, symbolic and kernel layers."""

from __future__ import annotations

import numpy as np

from repro.sparse.csc import CSCMatrix, require_real

__all__ = [
    "symmetrize_pattern",
    "require_finite_values",
    "require_real",
]


def require_finite_values(A: CSCMatrix, values=None) -> None:
    """Raise ``ValueError`` naming the first non-finite entry of ``values``.

    ``values`` are nonzeros in the storage order of ``A``'s pattern
    (``A.data`` when omitted).  No kernel of this package pivots, so a NaN or
    an infinity would otherwise come back as a NaN answer instead of an error.
    """
    values = A.data if values is None else np.asarray(values)
    finite = np.isfinite(values)
    if finite.all():
        return
    k = int(np.argmin(finite))
    col = int(np.searchsorted(A.indptr, k, side="right")) - 1
    raise ValueError(f"matrix value {values[k]} at A[{int(A.indices[k])}, {col}] (stored entry {k}) is not finite")


def symmetrize_pattern(A: CSCMatrix) -> CSCMatrix:
    """Return a matrix with the structurally symmetric pattern ``A + Aᵀ``.

    Values are ``A + Aᵀ`` with the diagonal counted once (the value layer is
    irrelevant for the symbolic routines that consume this, but keeping it
    well defined makes the function reusable numerically).
    """
    out = A.add(A.transpose())
    # The diagonal was added twice; subtract one copy.
    cols = out.col_indices()
    on_diagonal = out.indices == cols
    out.data[on_diagonal] -= A.diagonal()[cols[on_diagonal]]
    return out
