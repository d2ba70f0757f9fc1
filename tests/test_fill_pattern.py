"""Tests for fill-in prediction (ereach, factor patterns, counts)."""

import numpy as np
import pytest

from repro.baselines.scipy_reference import reference_cholesky
from repro.sparse.csc import CSCMatrix
from repro.symbolic.colcount import column_counts_of_factor
from repro.symbolic.etree import elimination_tree
from repro.symbolic.fill_pattern import (
    cholesky_pattern,
    ereach,
    factor_structure,
)

from oracles import lower_triangle


def _numeric_pattern(A):
    """Nonzero pattern of the dense numeric factor (no cancellation expected)."""
    L = reference_cholesky(A)
    return np.abs(L) > 1e-12


def test_ereach_matches_numeric_row_pattern(spd_matrix):
    parent = elimination_tree(spd_matrix)
    pattern = _numeric_pattern(spd_matrix)
    for k in range(0, spd_matrix.n, max(1, spd_matrix.n // 10)):
        expected = set(np.nonzero(pattern[k, :k])[0].tolist())
        got = set(int(j) for j in ereach(spd_matrix, k, parent))
        assert got == expected


def test_ereach_is_sorted_and_below_k(spd_matrix):
    parent = elimination_tree(spd_matrix)
    for k in (0, spd_matrix.n // 2, spd_matrix.n - 1):
        r = ereach(spd_matrix, k, parent)
        assert np.all(np.diff(r) > 0) if r.size > 1 else True
        assert np.all(r < k)


def test_ereach_out_of_range(spd_matrices):
    A = spd_matrices["fem"]
    parent = elimination_tree(A)
    with pytest.raises(IndexError):
        ereach(A, A.n + 3, parent)


def test_cholesky_pattern_matches_numeric_factor(spd_matrix):
    indptr, indices = cholesky_pattern(spd_matrix)
    pattern = _numeric_pattern(spd_matrix)
    predicted = np.zeros_like(pattern)
    for j in range(spd_matrix.n):
        predicted[indices[indptr[j] : indptr[j + 1]], j] = True
    np.testing.assert_array_equal(predicted, pattern)


def test_cholesky_pattern_is_sorted_and_has_diagonal(spd_matrix):
    indptr, indices = cholesky_pattern(spd_matrix)
    for j in range(spd_matrix.n):
        rows = indices[indptr[j] : indptr[j + 1]]
        assert rows[0] == j
        assert np.all(np.diff(rows) > 0)


def test_pattern_superset_of_lower_triangle(spd_matrix):
    indptr, indices = cholesky_pattern(spd_matrix)
    L_A = lower_triangle(spd_matrix)
    for j in range(spd_matrix.n):
        predicted = set(indices[indptr[j] : indptr[j + 1]].tolist())
        original = set(L_A.col_rows(j).tolist())
        assert original <= predicted


def test_factor_rows_consistent_with_columns(spd_matrix):
    row_ptr, row_idx, indptr, indices = factor_structure(spd_matrix)
    # (k, j) is in the column pattern of j (below diagonal) iff j is in the
    # row pattern of k.
    for j in range(spd_matrix.n):
        for k in indices[indptr[j] + 1 : indptr[j + 1]]:
            assert j in set(row_idx[row_ptr[k] : row_ptr[k + 1]].tolist())


def test_column_counts_match_pattern(spd_matrix):
    indptr, _ = cholesky_pattern(spd_matrix)
    counts = column_counts_of_factor(spd_matrix)
    np.testing.assert_array_equal(counts, np.diff(indptr))


def test_diagonal_matrix_has_no_fill():
    A = CSCMatrix.identity(6)
    indptr, indices = cholesky_pattern(A)
    np.testing.assert_array_equal(indices, np.arange(6))


def test_row_counts_match_the_row_subtrees(spd_matrix):
    # Row k of L is ereach(A, k) plus the diagonal, so the row counts of the
    # column-oriented pattern are the row-subtree sizes plus one, row for row.
    parent = elimination_tree(spd_matrix)
    indptr, indices = cholesky_pattern(spd_matrix)
    row_counts = np.bincount(indices, minlength=spd_matrix.n)
    expected = [ereach(spd_matrix, k, parent).size + 1 for k in range(spd_matrix.n)]
    np.testing.assert_array_equal(row_counts, expected)


def test_factor_nnz_and_fill_match_the_numeric_factor(spd_matrix):
    nnz_l = int(column_counts_of_factor(spd_matrix).sum())
    assert nnz_l == int(np.tril(_numeric_pattern(spd_matrix)).sum())
    fill = nnz_l - lower_triangle(spd_matrix).nnz
    assert fill >= 0
    # The fill is exactly the predicted entries that A's lower triangle lacks.
    indptr, indices = cholesky_pattern(spd_matrix)
    in_a = np.tril(spd_matrix.to_dense() != 0)
    new_entries = sum(
        int((~in_a[indices[indptr[j] : indptr[j + 1]], j]).sum()) for j in range(spd_matrix.n)
    )
    assert new_entries == fill
