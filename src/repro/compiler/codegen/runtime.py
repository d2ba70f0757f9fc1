"""What both backends share at run time: fingerprints and the cache directory."""

from __future__ import annotations

import hashlib
import os
import tempfile

import numpy as np

__all__ = [
    "pattern_fingerprint",
    "rhs_fingerprint_extra",
    "generated_code_dir",
]


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
