"""Correctness accounting: every operation is attempted, verified, counted."""

from __future__ import annotations

from typing import List, Optional

import numpy as np

#: An answer whose relative residual exceeds this is a failed operation.
RESIDUAL_LIMIT = 1e-9
#: Allowed norm-wise distance from the ``splu`` solution of the same system.
CROSS_CHECK_RTOL = 1e-8


class Checker:
    """Counts operations attempted and failed; keeps the worst residual.

    The references are independent of the program under test: the residual
    uses scipy's SpMV on the scipy matrix the benchmark generated, and the
    cross-check uses a ``scipy.sparse.linalg.splu`` solution.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.max_rel_residual = 0.0
        self.notes: List[str] = []

    def _fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(note)

    def answer(self, what: str, A, x, b, x_ref: Optional[np.ndarray] = None) -> bool:
        """Verify one solution of ``A x = b``; returns whether it passed."""
        self.attempted += 1
        x = np.asarray(x)
        if x.shape != b.shape or not np.isfinite(x).all():
            self._fail(f"{what}: answer has the wrong shape or is not finite")
            return False
        residual = float(np.linalg.norm(A @ x - b) / np.linalg.norm(b))
        self.max_rel_residual = max(self.max_rel_residual, residual)
        if not residual <= RESIDUAL_LIMIT:
            self._fail(f"{what}: relative residual {residual:.3e} over {RESIDUAL_LIMIT:g}")
            return False
        if x_ref is not None:
            distance = float(np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref))
            if not distance <= CROSS_CHECK_RTOL:
                self._fail(f"{what}: {distance:.3e} away from the splu solution")
                return False
        return True

    def raised(self, what: str, exc: BaseException) -> None:
        """An operation that raised, timed out or was rejected."""
        self.attempted += 1
        self._fail(f"{what}: {type(exc).__name__}: {exc}")

    def expect(self, what: str, ok: bool) -> None:
        """An invariant of the run (route taken, zero recompiles, ...)."""
        self.attempted += 1
        if not ok:
            self._fail(what)

    def merge(self, other: dict) -> None:
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        self.max_rel_residual = max(self.max_rel_residual, other["max_rel_residual"])
        self.notes.extend(other["notes"])

    def as_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "max_rel_residual": self.max_rel_residual,
            "notes": self.notes,
        }
