"""Matrix ingest: accept anything matrix-shaped, produce one ``CSCMatrix``.

Every point where a sparsity pattern enters the system — the front end's
:func:`repro.frontend.solve`, :class:`~repro.solvers.linear_solver.SparseLinearSolver`,
:meth:`~repro.solvers.batched.BatchedSolver.factorize_batch`,
:meth:`~repro.service.session.SolverService.register_pattern` and the wire
client — funnels through :func:`ingest`, which converts **once** to the CSC
container the whole compiled-kernel stack is built on and fingerprints the
structure for the lazy-specialization cache.

Accepted forms
--------------
* :class:`~repro.sparse.csc.CSCMatrix` — returned *as-is* (the same object,
  zero copies), so existing explicit-API callers are bitwise unaffected;
* any ``scipy.sparse`` matrix/array (csc, csr, coo, …) — duck-typed on
  ``tocsc()``, so SciPy is only required when such an object is passed;
* :class:`~repro.sparse.coo.COOMatrix` — converted with duplicate summing;
* COO triplets ``(rows, cols, values)`` or ``(rows, cols, values, shape)``
  (shape inferred square from the largest index when omitted);
* scipy-style triplets ``(values, (rows, cols))``;
* a dense 2-D ``numpy.ndarray`` (or nested sequence).

This module deliberately imports only the sparse containers and the
fingerprint helper, so every layer (including the serving wire client) can
ingest without pulling in the solver or service stacks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compiler.codegen.runtime import pattern_fingerprint
from repro.observe.trace import span
from repro.sparse.coo import COOMatrix
from repro.sparse.csc import CSCMatrix

__all__ = ["IngestedMatrix", "ingest", "as_csc", "structure_fingerprint"]


@dataclass(frozen=True)
class IngestedMatrix:
    """The result of one ingest: the CSC matrix plus cache-key metadata.

    ``dtype`` records the *source* value dtype (before the stack's float64
    coercion) — it participates in the specialization cache key so a float32
    workload that later upgrades to float64 re-probes instead of silently
    reusing a fingerprint computed from coarser values.  ``source_format``
    is a short tag (``"csc"``, ``"scipy"``, ``"coo"``, ``"triplets"``,
    ``"dense"``) used by stats and error messages.
    """

    csc: CSCMatrix
    dtype: str
    source_format: str

    @property
    def fingerprint(self) -> str:
        """Structural fingerprint of the ingested pattern."""
        return structure_fingerprint(self.csc)


def structure_fingerprint(A: CSCMatrix) -> str:
    """A stable hash of the sparsity structure (shape + indptr + indices).

    Values never participate: two matrices with the same pattern and
    different numerics share one fingerprint — the key property the
    specialization cache amortizes over.
    """
    return pattern_fingerprint(
        A.indptr, A.indices, extra=f"shape={A.n_rows}x{A.n_cols}"
    )


def _is_scipy_sparse(obj) -> bool:
    """Duck-typed scipy.sparse check (no import of scipy required)."""
    return hasattr(obj, "tocsc") and hasattr(obj, "shape") and not isinstance(obj, CSCMatrix)


def _from_triplets(obj) -> IngestedMatrix:
    """Ingest ``(rows, cols, values[, shape])`` or ``(values, (rows, cols))``."""
    if len(obj) == 2 and isinstance(obj[1], tuple) and len(obj[1]) == 2:
        values, (rows, cols) = obj
        shape = None
    elif len(obj) in (3, 4):
        rows, cols, values = obj[0], obj[1], obj[2]
        shape = obj[3] if len(obj) == 4 else None
    else:
        raise TypeError(
            "triplet input must be (rows, cols, values[, shape]) or "
            "(values, (rows, cols))"
        )
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    raw_values = np.asarray(values)
    if shape is None:
        n = int(max(rows.max(initial=-1), cols.max(initial=-1))) + 1
        shape = (n, n)
    coo = COOMatrix(
        int(shape[0]), int(shape[1]), rows, cols, raw_values.astype(np.float64)
    )
    return IngestedMatrix(
        csc=coo.to_csc(), dtype=str(raw_values.dtype), source_format="triplets"
    )


def ingest(A) -> IngestedMatrix:
    """Convert any accepted matrix form to CSC, once, with key metadata.

    See the module docstring for the accepted forms.  A ``CSCMatrix`` input
    is passed through untouched (identical object) so the explicit API's
    behaviour — and its bits — are unchanged by the front end existing.
    """
    if isinstance(A, CSCMatrix):
        # Identity passthrough: no conversion happens, so no span either.
        return IngestedMatrix(csc=A, dtype=str(A.data.dtype), source_format="csc")
    with span("ingest", source=type(A).__name__):
        if isinstance(A, COOMatrix):
            return IngestedMatrix(
                csc=A.to_csc(), dtype=str(A.data.dtype), source_format="coo"
            )
        if _is_scipy_sparse(A):
            dtype = str(getattr(A, "dtype", np.float64))
            return IngestedMatrix(
                csc=CSCMatrix.from_scipy(A), dtype=dtype, source_format="scipy"
            )
        if isinstance(A, tuple):
            return _from_triplets(A)
        arr = np.asarray(A)
        if arr.ndim == 2:
            return IngestedMatrix(
                csc=CSCMatrix.from_dense(arr.astype(np.float64)),
                dtype=str(arr.dtype),
                source_format="dense",
            )
    raise TypeError(
        f"cannot ingest a matrix from {type(A).__name__!r}: expected a "
        "CSCMatrix, a scipy.sparse matrix, a COOMatrix, COO triplets "
        "(rows, cols, values[, shape]) / (values, (rows, cols)), or a dense "
        "2-D array"
    )


def as_csc(A) -> CSCMatrix:
    """Shorthand: :func:`ingest` and keep only the CSC matrix."""
    return ingest(A).csc
