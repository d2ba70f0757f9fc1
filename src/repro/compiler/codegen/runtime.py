"""Runtime support for generated Python code.

The Python backend emits source that refers to a tiny runtime namespace named
``_rt`` providing the dense micro-kernels (the analogue of linking generated C
against BLAS or against Sympiler's own specialized kernels).  The namespace is
deliberately minimal and read-only so that generated code stays auditable:
everything else the generated code touches is either a NumPy primitive or an
embedded constant.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import types

import numpy as np

from repro.kernels.dense import (
    dense_cholesky,
    dense_ldlt,
    dense_lower_solve,
    dense_solve_transposed_right,
    small_cholesky,
    small_lower_solve,
)

__all__ = [
    "runtime_namespace",
    "pattern_fingerprint",
    "rhs_fingerprint_extra",
    "generated_code_dir",
]


def runtime_namespace() -> types.SimpleNamespace:
    """The ``_rt`` namespace injected into generated Python modules."""
    return types.SimpleNamespace(
        dense_cholesky=dense_cholesky,
        dense_ldlt=dense_ldlt,
        dense_lower_solve=dense_lower_solve,
        dense_solve_transposed_right=dense_solve_transposed_right,
        small_cholesky=small_cholesky,
        small_lower_solve=small_lower_solve,
    )


def pattern_fingerprint(*arrays: np.ndarray, extra: str = "") -> str:
    """A short stable fingerprint of one or more integer pattern arrays.

    Used to name cached artifacts and to verify at solve/factorize time that
    the numeric inputs carry the same sparsity pattern the code was generated
    for.
    """
    digest = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        digest.update(str(arr.dtype).encode())
        digest.update(str(arr.shape).encode())
        digest.update(arr.data)
    if extra:
        digest.update(extra.encode())
    return digest.hexdigest()[:16]


def rhs_fingerprint_extra(n: int, rhs: "np.ndarray | None") -> str:
    """Fingerprint suffix encoding a (normalized) RHS pattern.

    ``rhs`` must be ``None`` (dense) or sorted unique in-range indices, as the
    triangular inspector produces.  A dense RHS — explicit or implicit — maps
    to the constant token ``"dense"`` rather than an O(n) index listing, so
    fingerprinting stays cheap on the factor-once/solve-many hot path.  Used
    by both the registry's cache fingerprint and the compiled artifact's
    ``verify_pattern``, which therefore always agree.
    """
    if rhs is None or rhs.size == n:
        return "dense"
    return ",".join(str(int(i)) for i in rhs)


def generated_code_dir() -> str:
    """Directory where generated sources / shared objects are cached.

    Controlled by the ``REPRO_SYMPILER_CACHE`` environment variable; defaults
    to a per-user directory under the system temp dir.  The directory is
    created on first use.
    """
    root = os.environ.get(
        "REPRO_SYMPILER_CACHE",
        os.path.join(tempfile.gettempdir(), f"repro-sympiler-{os.getuid()}"),
    )
    os.makedirs(root, exist_ok=True)
    return root
