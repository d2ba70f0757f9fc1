"""Many value sets of one pattern at once: :class:`BatchedSolver`.

Wraps :class:`~repro.solvers.linear_solver.SparseLinearSolver` — one
ordering, one compiled factorization and its solve entry — and turns it into
a multi-scenario engine:

* :meth:`BatchedSolver.factorize_batch` factorizes many value sets sharing
  the solver's pattern concurrently (parameter sweeps, ensemble solves) and
  returns one :class:`FactorHandle` per item,
* :meth:`FactorHandle.solve` solves against any handle's factors with the
  shared solve entry,
* :meth:`BatchedSolver.solve_many` solves many right-hand sides against the
  solver's current factorization.

Items are mapped by :func:`~repro.solvers.linear_solver.map_items`: on a
thread pool for a C factorization at more than one thread, in a loop
otherwise.  Per-item error isolation carries through: a singular/indefinite
scenario produces a failed handle (its error preserved verbatim) while the
remaining scenarios complete, and results always come back in input order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.compiler.codegen.c_backend import resolve_num_threads
from repro.compiler.options import SympilerOptions
from repro.solvers.linear_solver import SparseLinearSolver, map_items
from repro.sparse.csc import CSCMatrix
from repro.sparse.utils import require_finite_values, require_real

__all__ = ["BatchedSolver", "FactorHandle"]


@dataclass
class FactorHandle:
    """One batch item's factorization: either factors or a preserved error.

    Factor assembly (CSC wrapping) is lazy — computed on first :meth:`solve`
    — so batch throughput measurements see only the numeric kernel cost, and
    unused handles cost nothing beyond their raw output arrays.
    """

    index: int
    _solver: SparseLinearSolver = field(repr=False)
    _raw: Optional[object] = field(default=None, repr=False)
    error: Optional[Exception] = None
    _factors: Optional[object] = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        """True when this item factorized successfully."""
        return self.error is None

    def _require_ok(self) -> None:
        if self.error is not None:
            raise RuntimeError(
                f"batch item {self.index} failed to factorize"
            ) from self.error

    @property
    def factors(self):
        """The assembled factor object (``L``, ``(L, d)`` or ``(L, U)``)."""
        self._require_ok()
        if self._factors is None:
            self._factors = self._solver._factorization.assemble_factors(self._raw)
        return self._factors

    @property
    def L(self) -> CSCMatrix:
        """The (unit) lower-triangular factor of this item."""
        factors = self.factors
        return getattr(factors, "L", factors)

    @property
    def d(self) -> Optional[np.ndarray]:
        """The LDLᵀ pivot vector (``None`` for the other methods)."""
        return getattr(self.factors, "d", None)

    @property
    def U(self) -> Optional[CSCMatrix]:
        """The upper-triangular LU factor (``None`` for symmetric methods)."""
        return getattr(self.factors, "U", None)

    def solve(self, b: np.ndarray, *, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Solve this scenario's system ``A_i x = b``.

        One call of the factorization's solve entry, bound to this handle's
        factors per call (:meth:`SparseLinearSolver.solve_with_factors`).
        ``out`` optionally receives the solution in place.
        """
        self._require_ok()
        return self._solver.solve_with_factors(b, L=self.L, d=self.d, U=self.U, out=out)


class BatchedSolver:
    """Factor-once / solve-many, over many value sets at once.

    Parameters mirror :class:`SparseLinearSolver` (the wrapped solver is
    exposed as :attr:`solver`); ``num_threads`` additionally sizes the
    numeric thread pool: the argument, then ``REPRO_NUM_THREADS``, then 1,
    resolved once into :attr:`num_threads`.

    Examples
    --------
    >>> from repro.sparse import laplacian_2d
    >>> import numpy as np
    >>> A = laplacian_2d(8)
    >>> batched = BatchedSolver(A)
    >>> scenarios = [A.with_values(A.data * s) for s in (1.0, 2.0, 4.0)]
    >>> handles = batched.factorize_batch(scenarios)
    >>> xs = [h.solve(np.ones(A.n)) for h in handles]
    >>> all(np.isfinite(x).all() for x in xs)
    True
    """

    def __init__(
        self,
        A: CSCMatrix,
        *,
        method: str = "cholesky",
        ordering: str = "mindeg",
        options: Optional[SympilerOptions] = None,
        num_threads: Optional[int] = None,
    ) -> None:
        self.solver = SparseLinearSolver(
            A, method=method, ordering=ordering, options=options
        )
        self.num_threads = resolve_num_threads(num_threads)

    # ------------------------------------------------------------------ #
    @property
    def A(self) -> CSCMatrix:
        """The pattern-defining input matrix."""
        return self.solver.A

    @property
    def method(self) -> str:
        """The factorization kernel name."""
        return self.solver.method

    # ------------------------------------------------------------------ #
    def _batch_values(
        self,
        scenarios: Union[Sequence[CSCMatrix], np.ndarray],
        *,
        permuted_values: bool = False,
    ) -> List[np.ndarray]:
        """Per-item value arrays on the solver's *permuted* pattern.

        Accepts same-pattern matrices (permuted internally via the solver's
        precomputed gather) or — only with an explicit ``permuted_values=True``
        — a ``(batch, nnz)`` array already in permuted-pattern order.  The
        flag is mandatory for raw arrays because a shape check cannot tell
        permuted from unpermuted values, and interpreting unpermuted data in
        permuted positions would silently factorize a scrambled matrix.

        Scenario items may be anything the front-end ingest layer accepts
        (``scipy.sparse`` matrices, COO triplet tuples, dense arrays);
        :class:`CSCMatrix` items pass through untouched — same objects, same
        bits as before the ingest layer existed.
        """
        if isinstance(scenarios, np.ndarray):
            if not permuted_values:
                raise ValueError(
                    "raw value arrays are interpreted in the solver's "
                    "*permuted* pattern order, which cannot be validated from "
                    "their shape; pass permuted_values=True to confirm, or "
                    "pass same-pattern CSCMatrix scenarios to let the solver "
                    "permute them"
                )
            require_real(scenarios, "the value batch")
            values = np.asarray(scenarios, dtype=np.float64)
            if values.ndim != 2 or values.shape[1] != self.solver.A_permuted.nnz:
                raise ValueError(
                    "a value-array batch must have shape (batch, nnz) on the "
                    "solver's permuted pattern"
                )
            return [values[i] for i in range(values.shape[0])]
        value_list: List[np.ndarray] = []
        for i, M in enumerate(scenarios):
            if not isinstance(M, CSCMatrix):
                from repro.frontend.ingest import as_csc

                M = as_csc(M)
            if not M.pattern_equal(self.solver.A):
                raise ValueError(
                    f"scenario {i} does not share the solver's sparsity pattern"
                )
            value_list.append(self.solver.permute_values(M.data))
        return value_list

    def factorize_batch(
        self,
        scenarios: Union[Sequence[CSCMatrix], np.ndarray],
        *,
        permuted_values: bool = False,
    ) -> List[FactorHandle]:
        """Factorize every scenario concurrently; one handle per scenario.

        Each handle's factors are bitwise identical to what a sequential
        ``solver.factorize(scenario)`` computes with the same compiled
        kernel.  Failed scenarios yield handles with ``ok == False`` whose
        ``error`` preserves the kernel's exception — or, for a scenario with
        a NaN or an infinity, the ``ValueError`` naming that entry; the rest
        are unaffected.  ``permuted_values`` must be set to pass a raw
        ``(batch, nnz)`` value array instead of matrices (see
        :meth:`_batch_values`).
        """
        value_list = self._batch_values(scenarios, permuted_values=permuted_values)
        permuted = self.solver.A_permuted
        factorization = self.solver._factorization

        def factorize(values: np.ndarray):
            self._require_finite(values)
            return factorization.factorize_arrays(permuted.indptr, permuted.indices, values)

        raws, errors = map_items(
            factorize, value_list, artifact=factorization, num_threads=self.num_threads
        )
        return [
            FactorHandle(index=i, _solver=self.solver, _raw=raw, error=error)
            for i, (raw, error) in enumerate(zip(raws, errors))
        ]

    def _require_finite(self, values: np.ndarray) -> None:
        """Refuse permuted-order ``values`` holding a NaN or an infinity, naming the entry of the input matrix."""
        if not np.isfinite(values).all():
            original = np.empty_like(values)
            original[self.solver._value_gather] = values
            require_finite_values(self.A, original)

    def solve_many(self, B: np.ndarray) -> np.ndarray:
        """Solve ``A X = B`` (multi-RHS) on the current factorization."""
        return self.solver.solve_many(B, num_threads=self.num_threads)
