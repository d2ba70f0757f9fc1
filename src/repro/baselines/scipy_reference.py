"""Independent correctness oracles based on NumPy/SciPy dense routines.

These are deliberately *not* built on any of this repository's sparse code so
they can serve as ground truth in the test-suite: a densified
``numpy.linalg.cholesky`` and ``scipy.linalg.solve_triangular``.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from repro.sparse.csc import CSCMatrix

__all__ = ["reference_cholesky", "reference_trisolve"]


def _full_symmetric_dense(A: CSCMatrix) -> np.ndarray:
    """Dense symmetric matrix from full-symmetric or lower-only storage."""
    dense = A.to_dense()
    if A.is_lower_triangular() and A.n > 1:
        # Mirror the strictly-lower part into the upper triangle.
        dense = dense + np.tril(dense, -1).T
    else:
        # Full storage: enforce exact numerical symmetry.
        dense = (dense + dense.T) / 2.0
    return dense


def reference_cholesky(A: CSCMatrix) -> np.ndarray:
    """Dense lower Cholesky factor of ``A`` via ``numpy.linalg.cholesky``."""
    return np.linalg.cholesky(_full_symmetric_dense(A))


def reference_trisolve(L: CSCMatrix, b: np.ndarray) -> np.ndarray:
    """Dense forward substitution via ``scipy.linalg.solve_triangular``."""
    return scipy.linalg.solve_triangular(L.to_dense(), np.asarray(b, dtype=np.float64), lower=True)
