"""Compressed-sparse-column (CSC) matrix container.

CSC is the storage format assumed throughout the paper: a matrix is the tuple
``{n, Lp, Li, Lx}`` of order, column pointers, row indices and numeric values
(Figure 1 of the paper).  Row indices within each column are kept sorted,
which the symbolic-analysis routines rely on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.sparse.coo import COOMatrix

__all__ = ["CSCMatrix", "group_pointers"]


def group_pointers(groups: np.ndarray, n_groups: int) -> np.ndarray:
    """Compressed pointers of entries sorted by group: ``ptr[g]:ptr[g + 1]`` is group ``g``."""
    ptr = np.zeros(n_groups + 1, dtype=np.int64)
    np.cumsum(np.bincount(groups, minlength=n_groups), out=ptr[1:])
    return ptr


class CSCMatrix:
    """A compressed-sparse-column matrix with sorted row indices.

    Attributes
    ----------
    n_rows, n_cols:
        Matrix dimensions.
    indptr:
        ``int64`` array of length ``n_cols + 1``; column ``j`` occupies the
        half-open slice ``indptr[j]:indptr[j+1]`` of ``indices``/``data``.
    indices:
        ``int64`` array of row indices, sorted within each column.
    data:
        ``float64`` array of numeric values, parallel to ``indices``.
    """

    __slots__ = ("n_rows", "n_cols", "indptr", "indices", "data")

    def __init__(
        self,
        n_rows: int,
        n_cols: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        *,
        check: bool = True,
    ) -> None:
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        if check:
            self.validate()

    # ------------------------------------------------------------------ #
    # Validation and basic properties
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Raise ``ValueError`` if the CSC invariants do not hold.

        Invariants checked: pointer array length and monotonicity, index
        bounds, per-column sortedness and absence of duplicate row indices.
        """
        if self.n_rows < 0 or self.n_cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if self.indptr.shape != (self.n_cols + 1,):
            raise ValueError(
                f"indptr must have length n_cols+1={self.n_cols + 1}, "
                f"got {self.indptr.shape[0]}"
            )
        if self.indptr[0] != 0:
            raise ValueError("indptr[0] must be 0")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        nnz = int(self.indptr[-1])
        if self.indices.shape[0] != nnz or self.data.shape[0] != nnz:
            raise ValueError("indices/data length must equal indptr[-1]")
        if nnz:
            if self.indices.min() < 0 or self.indices.max() >= self.n_rows:
                raise ValueError("row index out of range")
        if nnz < 2:
            return
        # One pass over consecutive index pairs; a pair straddling a column
        # boundary (its second entry starts a column) constrains nothing.
        ascending = np.diff(self.indices) > 0
        starts = self.indptr[1:-1]
        ascending[starts[(starts > 0) & (starts < nnz)] - 1] = True
        if ascending.all():
            return
        first = int(np.argmin(ascending))
        j = int(np.searchsorted(self.indptr, first, side="right")) - 1
        col = self.indices[self.indptr[j] : self.indptr[j + 1]]
        if np.any(np.diff(col) < 0):
            raise ValueError(f"row indices in column {j} are not sorted")
        raise ValueError(f"duplicate row index in column {j}")

    @property
    def shape(self) -> Tuple[int, int]:
        """``(n_rows, n_cols)``."""
        return (self.n_rows, self.n_cols)

    @property
    def nnz(self) -> int:
        """Number of stored entries (explicit zeros included)."""
        return int(self.indptr[-1])

    @property
    def n(self) -> int:
        """Matrix order; only defined for square matrices."""
        if self.n_rows != self.n_cols:
            raise ValueError("n is only defined for square matrices")
        return self.n_rows

    def is_square(self) -> bool:
        """True when the matrix has as many rows as columns."""
        return self.n_rows == self.n_cols

    def density(self) -> float:
        """Fraction of stored entries relative to a dense matrix."""
        total = self.n_rows * self.n_cols
        return self.nnz / total if total else 0.0

    # ------------------------------------------------------------------ #
    # Column access
    # ------------------------------------------------------------------ #
    def col_slice(self, j: int) -> slice:
        """The slice of ``indices``/``data`` occupied by column ``j``."""
        if not (0 <= j < self.n_cols):
            raise IndexError(f"column {j} out of range [0, {self.n_cols})")
        return slice(int(self.indptr[j]), int(self.indptr[j + 1]))

    def col_rows(self, j: int) -> np.ndarray:
        """Row indices of column ``j`` (a view, do not mutate)."""
        return self.indices[self.col_slice(j)]

    def col_values(self, j: int) -> np.ndarray:
        """Numeric values of column ``j`` (a view, do not mutate)."""
        return self.data[self.col_slice(j)]

    def get(self, i: int, j: int) -> float:
        """Return entry ``(i, j)``, or ``0.0`` when it is not stored."""
        rows = self.col_rows(j)
        pos = np.searchsorted(rows, i)
        if pos < rows.size and rows[pos] == i:
            return float(self.col_values(j)[pos])
        return 0.0

    def col_indices(self) -> np.ndarray:
        """Column index of every stored entry (the COO column array)."""
        return np.repeat(np.arange(self.n_cols, dtype=np.int64), np.diff(self.indptr))

    def diagonal(self) -> np.ndarray:
        """Dense vector of the main diagonal (zeros for missing entries)."""
        diag = np.zeros(min(self.n_rows, self.n_cols), dtype=np.float64)
        cols = self.col_indices()
        on_diagonal = self.indices == cols
        diag[cols[on_diagonal]] = self.data[on_diagonal]
        return diag

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_coo(cls, coo: "COOMatrix") -> "CSCMatrix":
        """Build from a COO matrix, summing duplicate entries."""
        n_rows, n_cols = coo.shape
        if coo.nnz == 0:
            return cls.empty(n_rows, n_cols)
        # Sort by (col, row) so each column is contiguous and sorted; stable,
        # so duplicates keep their input order.  One sort of the combined key
        # gives the permutation a two-key lexsort would, several times faster.
        if n_rows * n_cols < 2**63:
            order = np.argsort(coo.cols * n_rows + coo.rows, kind="stable")
        else:  # the key would overflow int64
            order = np.lexsort((coo.rows, coo.cols))
        rows = coo.rows[order]
        cols = coo.cols[order]
        vals = coo.data[order]
        # Collapse duplicates: consecutive equal (col, row) pairs, summed in
        # input order starting from 0.0 (so a lone -0.0 is stored as 0.0).
        keep = np.ones(rows.size, dtype=bool)
        keep[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        if keep.all():
            summed = 0.0 + vals
        else:
            group_ids = np.cumsum(keep) - 1
            summed = np.zeros(int(group_ids[-1]) + 1, dtype=np.float64)
            np.add.at(summed, group_ids, vals)
            rows = rows[keep]
            cols = cols[keep]
        return cls(n_rows, n_cols, group_pointers(cols, n_cols), rows, summed)

    @classmethod
    def from_dense(cls, dense: np.ndarray, *, drop_tol: float = 0.0) -> "CSCMatrix":
        """Build from a dense array, dropping entries with ``|a_ij| <= drop_tol``."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise ValueError("from_dense expects a 2-D array")
        n_rows, n_cols = dense.shape
        mask = np.abs(dense) > drop_tol
        counts = mask.sum(axis=0)
        indptr = np.zeros(n_cols + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        indices = np.nonzero(mask.T)[1].astype(np.int64)
        data = dense.T[mask.T].astype(np.float64)
        return cls(n_rows, n_cols, indptr, indices, data)

    @classmethod
    def from_scipy(cls, mat) -> "CSCMatrix":
        """Build from any SciPy sparse matrix, summing duplicate entries as SciPy does.

        ``mat`` itself is never modified: a non-canonical CSC form (unsorted
        rows or duplicates) is canonicalised in a copy (``tocsc()`` may return
        ``mat`` itself).
        """
        csc = mat.tocsc()
        if not csc.has_canonical_format:
            csc = csc.copy()
            csc.sum_duplicates()
        return cls(
            csc.shape[0],
            csc.shape[1],
            csc.indptr.astype(np.int64),
            csc.indices.astype(np.int64),
            csc.data.astype(np.float64),
        )

    @classmethod
    def identity(cls, n: int) -> "CSCMatrix":
        """The ``n``-by-``n`` identity matrix."""
        indptr = np.arange(n + 1, dtype=np.int64)
        indices = np.arange(n, dtype=np.int64)
        data = np.ones(n, dtype=np.float64)
        return cls(n, n, indptr, indices, data)

    @classmethod
    def empty(cls, n_rows: int, n_cols: int) -> "CSCMatrix":
        """An all-zero matrix with no stored entries."""
        return cls(
            n_rows,
            n_cols,
            np.zeros(n_cols + 1, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.float64),
        )

    @classmethod
    def from_pattern(
        cls,
        n_rows: int,
        n_cols: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        fill_value: float = 0.0,
    ) -> "CSCMatrix":
        """Build a matrix from a structural pattern with a constant value."""
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        data = np.full(indices.shape[0], fill_value, dtype=np.float64)
        return cls(n_rows, n_cols, indptr, indices, data)

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #
    def to_dense(self) -> np.ndarray:
        """Return a dense ``ndarray`` copy."""
        dense = np.zeros(self.shape, dtype=np.float64)
        for j in range(self.n_cols):
            s = self.col_slice(j)
            dense[self.indices[s], j] = self.data[s]
        return dense

    def to_scipy(self):
        """Return a ``scipy.sparse.csc_matrix`` sharing no storage."""
        import scipy.sparse as sp

        return sp.csc_matrix(
            (self.data.copy(), self.indices.copy(), self.indptr.copy()),
            shape=self.shape,
        )

    def to_coo(self) -> "COOMatrix":
        """Return the COO (triplet) form."""
        from repro.sparse.coo import COOMatrix

        return COOMatrix(self.n_rows, self.n_cols, self.indices.copy(), self.col_indices(), self.data.copy())

    def copy(self) -> "CSCMatrix":
        """Deep copy."""
        return CSCMatrix(
            self.n_rows,
            self.n_cols,
            self.indptr.copy(),
            self.indices.copy(),
            self.data.copy(),
            check=False,
        )

    def with_values(self, data: np.ndarray) -> "CSCMatrix":
        """A same-pattern matrix carrying new numeric values.

        The pattern arrays are shared (not copied) — the natural constructor
        for the fixed-pattern/changing-values scenario batches the batched
        runtime consumes.
        """
        data = np.asarray(data, dtype=np.float64)
        if data.shape != (self.nnz,):
            raise ValueError(f"data must have shape ({self.nnz},), got {data.shape}")
        return CSCMatrix(
            self.n_rows, self.n_cols, self.indptr, self.indices, data, check=False
        )

    # ------------------------------------------------------------------ #
    # Structural operations
    # ------------------------------------------------------------------ #
    def transpose(self) -> "CSCMatrix":
        """Return the transpose as a new CSC matrix (columns stay sorted)."""
        n_rows, n_cols = self.shape
        indptr_t = group_pointers(self.indices, n_rows)
        # Stable by row: inside a row of the result the columns stay ascending.
        order = np.argsort(self.indices, kind="stable")
        return CSCMatrix(n_cols, n_rows, indptr_t, self.col_indices()[order], self.data[order], check=False)

    def pattern_equal(self, other: "CSCMatrix") -> bool:
        """True when both matrices have identical nonzero structure."""
        return (
            self.shape == other.shape
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def add(self, other: "CSCMatrix") -> "CSCMatrix":
        """Return ``A + B`` (patterns are merged)."""
        if self.shape != other.shape:
            raise ValueError("shapes do not match")
        from repro.sparse.coo import COOMatrix

        a = self.to_coo()
        b = other.to_coo()
        return COOMatrix(
            self.n_rows,
            self.n_cols,
            np.concatenate([a.rows, b.rows]),
            np.concatenate([a.cols, b.cols]),
            np.concatenate([a.data, b.data]),
        ).to_csc()

    # ------------------------------------------------------------------ #
    # Numeric operations
    # ------------------------------------------------------------------ #
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Sparse matrix–vector product ``A @ x``.

        Row ``i`` sums ``A[i, j] * x[j]`` from ``0.0`` with ``j`` ascending
        (``np.bincount`` adds its weights in order), over the columns whose
        ``x[j]`` is nonzero only: a column ``x`` does not reach, even one
        holding an ``inf``, adds nothing.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_cols,):
            raise ValueError(f"x must have shape ({self.n_cols},), got {x.shape}")
        xs = x[self.col_indices()]
        used = xs != 0.0
        y = np.bincount(self.indices[used], weights=self.data[used] * xs[used], minlength=self.n_rows)
        return y.astype(np.float64, copy=False)  # no weights at all come back as int64

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """Transposed product ``Aᵀ @ y``: column ``j`` sums ``A[i, j] * y[i]`` from ``0.0``, ``i`` ascending."""
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.n_rows,):
            raise ValueError(f"y must have shape ({self.n_rows},), got {y.shape}")
        out = np.bincount(self.col_indices(), weights=self.data * y[self.indices], minlength=self.n_cols)
        return out.astype(np.float64, copy=False)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matvec(x)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"CSCMatrix(shape={self.shape}, nnz={self.nnz})"

    # ------------------------------------------------------------------ #
    # Triangular structure helpers
    # ------------------------------------------------------------------ #
    def is_lower_triangular(self, *, strict: bool = False) -> bool:
        """True if every stored entry lies on/below the diagonal.

        With ``strict=True`` the diagonal itself must be absent.
        """
        # Rows are sorted, so the first entry of a column decides for it.
        filled = np.flatnonzero(np.diff(self.indptr))
        return bool(np.all(self.indices[self.indptr[filled]] >= filled + int(strict)))
