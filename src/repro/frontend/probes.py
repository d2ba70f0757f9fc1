"""Cheap structural probes that auto-select a kernel for ``repro.solve``.

The probes answer, in ``O(nnz)`` work (one transpose, a few array
comparisons — never a factorization, never ``to_dense``):

* is the *pattern* symmetric?
* are the *values* symmetric (``A == Aᵀ`` up to a tight tolerance)?
* is the diagonal fully stored and strictly positive (the SPD heuristic —
  necessary for SPD, not sufficient; the front end backs it with a
  try-Cholesky-fall-back-to-LDLᵀ escape at specialization time)?

and :func:`probe_structure` folds the answers into one of the three direct
routes, whatever the size of the system:

==================================  =============================
structure                           route
==================================  =============================
SPD heuristic                       ``cholesky`` (LDLᵀ escape)
symmetric, diagonal not positive    ``ldlt``
unsymmetric                         ``lu``
==================================  =============================

An explicit ``method=`` always wins over the probes — the misdetection
escape hatch (``repro.solve(A, b, method="ldlt")``) and the only way to the
IC(0)-preconditioned CG route (``method="pcg"``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.observe.trace import span
from repro.sparse.csc import CSCMatrix

__all__ = ["ProbeReport", "probe_structure", "AUTO_METHODS"]

#: The routes the front end serves: the three :func:`probe_structure` chooses
#: among, in probe order, then ``pcg``, which runs only when asked for.
AUTO_METHODS = ("cholesky", "ldlt", "lu", "pcg")

#: Relative tolerance of the value-symmetry probe.  Assembled-but-roundoff
#: symmetric matrices (FEM stiffness sums accumulated in different orders)
#: must still probe symmetric; genuinely unsymmetric physics (convection
#: Jacobians) differ at O(1), many orders above this.
_SYMMETRY_RTOL = 1e-12


@dataclass(frozen=True)
class ProbeReport:
    """Structural facts about one matrix, plus the method they select."""

    n: int
    nnz: int
    density: float
    square: bool
    symmetric_pattern: bool
    symmetric_values: bool
    positive_diagonal: bool
    #: The auto-selected kernel route (one of :data:`AUTO_METHODS`).
    method: str
    #: Human-readable selection rationale (surfaced in errors and stats).
    reason: str


def probe_structure(A: CSCMatrix) -> ProbeReport:
    """Probe ``A`` and select a kernel route; see the module docstring.

    Raises ``ValueError`` for non-square input — no registered kernel can
    serve it, and a clear message beats a downstream shape error.
    """
    if not A.is_square():
        raise ValueError(
            f"cannot auto-select a solver for a non-square {A.shape} matrix"
        )
    with span("probe", n=A.n):
        return _probe_square(A)


def _probe_square(A: CSCMatrix) -> ProbeReport:
    n = A.n
    nnz = A.nnz
    At = A.transpose()
    symmetric_pattern = A.pattern_equal(At)
    if symmetric_pattern:
        # Same pattern, both column-sorted: the value arrays align entry for
        # entry, so value symmetry is one vector comparison.
        symmetric_values = bool(
            np.array_equal(A.data, At.data)
            or np.allclose(A.data, At.data, rtol=_SYMMETRY_RTOL, atol=0.0)
        )
    else:
        symmetric_values = False
    # A missing diagonal entry reads 0.0, so this also asks that every one is stored.
    positive_diagonal = bool(np.all(A.diagonal() > 0.0))

    if symmetric_values and positive_diagonal:
        method = "cholesky"
        reason = (
            "symmetric values with a strictly positive diagonal: SPD "
            "heuristic selects Cholesky (LDL^T escape on breakdown)"
        )
    elif symmetric_values:
        method = "ldlt"
        reason = (
            "symmetric values but the diagonal is not strictly positive: "
            "symmetric-indefinite LDL^T"
        )
    else:
        method = "lu"
        reason = (
            "unsymmetric values"
            if symmetric_pattern
            else "unsymmetric pattern"
        ) + ": no-pivot LU (requires diagonal dominance)"
    return ProbeReport(
        n=n,
        nnz=nnz,
        density=A.density(),
        square=True,
        symmetric_pattern=symmetric_pattern,
        symmetric_values=symmetric_values,
        positive_diagonal=positive_diagonal,
        method=method,
        reason=reason,
    )
