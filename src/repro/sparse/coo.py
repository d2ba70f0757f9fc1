"""Coordinate (triplet) sparse format and an incremental triplet builder.

The COO format is the natural assembly format: finite-element assembly, graph
construction and the synthetic generators in :mod:`repro.sparse.generators`
all accumulate ``(row, col, value)`` triplets and convert to CSC once at the
end.  Duplicate entries are summed during conversion, matching the usual
assembly semantics.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Tuple

import numpy as np

from repro.sparse.csc import require_real

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.sparse.csc import CSCMatrix

__all__ = ["COOMatrix", "TripletBuilder"]


class COOMatrix:
    """An immutable coordinate-format sparse matrix.

    Parameters
    ----------
    n_rows, n_cols:
        Matrix dimensions.
    rows, cols:
        Integer arrays of equal length holding the row/column index of every
        stored entry.
    data:
        Floating-point array of the stored values, same length as ``rows``.
    """

    __slots__ = ("n_rows", "n_cols", "rows", "cols", "data")

    def __init__(
        self,
        n_rows: int,
        n_cols: int,
        rows: np.ndarray,
        cols: np.ndarray,
        data: np.ndarray,
    ) -> None:
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        require_real(data, "data")
        data = np.asarray(data, dtype=np.float64)
        if not (rows.shape == cols.shape == data.shape):
            raise ValueError("rows, cols and data must have identical shapes")
        if rows.ndim != 1:
            raise ValueError("triplet arrays must be one-dimensional")
        if n_rows < 0 or n_cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if rows.size:
            if rows.min(initial=0) < 0 or cols.min(initial=0) < 0:
                raise ValueError("negative indices are not allowed")
            if rows.max(initial=-1) >= n_rows or cols.max(initial=-1) >= n_cols:
                raise ValueError("triplet indices exceed the matrix dimensions")
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.rows = rows
        self.cols = cols
        self.data = data

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, int]:
        """``(n_rows, n_cols)``."""
        return (self.n_rows, self.n_cols)

    @property
    def nnz(self) -> int:
        """Number of stored triplets (duplicates counted separately)."""
        return int(self.data.size)

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #
    def to_csc(self) -> "CSCMatrix":
        """Convert to CSC, summing duplicate entries."""
        from repro.sparse.csc import CSCMatrix

        return CSCMatrix.from_coo(self)

    def to_dense(self) -> np.ndarray:
        """Return a dense ``ndarray`` with duplicates summed."""
        dense = np.zeros(self.shape, dtype=np.float64)
        np.add.at(dense, (self.rows, self.cols), self.data)
        return dense

    def transpose(self) -> "COOMatrix":
        """Return the transpose (swaps the row/column index arrays)."""
        return COOMatrix(self.n_cols, self.n_rows, self.cols, self.rows, self.data)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"COOMatrix(shape={self.shape}, nnz={self.nnz})"


class TripletBuilder:
    """Incrementally accumulate ``(row, col, value)`` triplets.

    The builder grows amortized-constant-time Python lists and converts to
    NumPy arrays once, which is far cheaper than repeatedly concatenating
    arrays during assembly.
    """

    def __init__(self, n_rows: int, n_cols: int) -> None:
        if n_rows < 0 or n_cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self._rows: list[int] = []
        self._cols: list[int] = []
        self._data: list[float] = []

    def add(self, row: int, col: int, value: float) -> None:
        """Append a single triplet.  Duplicates are summed on conversion."""
        if not (0 <= row < self.n_rows):
            raise IndexError(f"row index {row} out of range [0, {self.n_rows})")
        if not (0 <= col < self.n_cols):
            raise IndexError(f"column index {col} out of range [0, {self.n_cols})")
        self._rows.append(int(row))
        self._cols.append(int(col))
        self._data.append(float(value))

    def add_many(
        self,
        rows: Iterable[int],
        cols: Iterable[int],
        values: Iterable[float],
    ) -> None:
        """Append a batch of triplets with a single bounds check."""
        rows = np.asarray(list(rows), dtype=np.int64)
        cols = np.asarray(list(cols), dtype=np.int64)
        values = np.asarray(list(values), dtype=np.float64)
        if not (rows.shape == cols.shape == values.shape):
            raise ValueError("rows, cols and values must have identical lengths")
        if rows.size:
            if rows.min() < 0 or rows.max() >= self.n_rows:
                raise IndexError("row index out of range")
            if cols.min() < 0 or cols.max() >= self.n_cols:
                raise IndexError("column index out of range")
        self._rows.extend(rows.tolist())
        self._cols.extend(cols.tolist())
        self._data.extend(values.tolist())

    def add_symmetric(self, row: int, col: int, value: float) -> None:
        """Append ``(row, col, value)`` and, when off-diagonal, its mirror."""
        self.add(row, col, value)
        if row != col:
            self.add(col, row, value)

    @property
    def nnz(self) -> int:
        """Number of triplets accumulated so far."""
        return len(self._data)

    def to_coo(self) -> COOMatrix:
        """Freeze the builder into a :class:`COOMatrix`."""
        return COOMatrix(
            self.n_rows,
            self.n_cols,
            np.asarray(self._rows, dtype=np.int64),
            np.asarray(self._cols, dtype=np.int64),
            np.asarray(self._data, dtype=np.float64),
        )

    def to_csc(self) -> "CSCMatrix":
        """Freeze the builder and convert to CSC (duplicates summed)."""
        return self.to_coo().to_csc()
