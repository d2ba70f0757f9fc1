"""Tests for the CSC container."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.sparse.coo import COOMatrix
from repro.sparse.csc import CSCMatrix


@pytest.fixture()
def small():
    dense = np.array(
        [
            [4.0, 0.0, -1.0, 0.0],
            [0.0, 3.0, 0.0, 0.0],
            [-1.0, 0.0, 5.0, 2.0],
            [0.0, 0.0, 2.0, 6.0],
        ]
    )
    return CSCMatrix.from_dense(dense), dense


def test_from_dense_roundtrip(small):
    A, dense = small
    np.testing.assert_allclose(A.to_dense(), dense)


def test_shape_nnz_density(small):
    A, dense = small
    assert A.shape == (4, 4)
    assert A.nnz == int(np.count_nonzero(dense))
    assert A.density() == pytest.approx(A.nnz / 16.0)


def test_n_property_requires_square():
    A = CSCMatrix.from_dense(np.ones((2, 3)))
    with pytest.raises(ValueError):
        _ = A.n
    assert not A.is_square()


def test_identity_and_empty():
    eye = CSCMatrix.identity(5)
    np.testing.assert_allclose(eye.to_dense(), np.eye(5))
    empty = CSCMatrix.empty(3, 2)
    assert empty.nnz == 0
    assert empty.shape == (3, 2)


def test_from_pattern_constant_fill():
    A = CSCMatrix.from_pattern(3, 3, [0, 1, 2, 3], [0, 1, 2], fill_value=7.0)
    np.testing.assert_allclose(A.to_dense(), np.diag([7.0, 7.0, 7.0]))


def test_from_coo_sorts_and_sums():
    coo = COOMatrix(3, 3, [2, 0, 2], [0, 1, 0], [1.0, 3.0, 2.0])
    A = CSCMatrix.from_coo(coo)
    assert A.get(2, 0) == pytest.approx(3.0)
    assert A.get(0, 1) == pytest.approx(3.0)
    # Row indices must be sorted inside each column.
    A.validate()


def test_from_scipy_and_to_scipy(small):
    A, dense = small
    S = sp.csc_matrix(dense)
    B = CSCMatrix.from_scipy(S)
    np.testing.assert_allclose(B.to_dense(), dense)
    np.testing.assert_allclose(B.to_scipy().toarray(), dense)


def test_from_scipy_leaves_the_callers_unsorted_matrix_as_it_was():
    S = sp.csc_matrix((np.array([1.0, 2.0, 3.0, 4.0]), np.array([1, 0, 0, 1]), np.array([0, 2, 4])), shape=(2, 2))
    B = CSCMatrix.from_scipy(S)
    assert S.indices.tolist() == [1, 0, 0, 1] and S.data.tolist() == [1.0, 2.0, 3.0, 4.0]
    assert B.indices.tolist() == [0, 1, 0, 1] and B.data.tolist() == [2.0, 1.0, 3.0, 4.0]


def test_a_scipy_matrix_with_duplicates_is_summed_and_solves_as_scipy_does():
    import repro
    from scipy.sparse.linalg import spsolve

    # Column 0 stores its diagonal twice; SciPy (and now the ingest) sums them.
    S = sp.csc_matrix(
        (np.array([3.0, 1.0, -1.0, -1.0, 4.0]), np.array([0, 0, 1, 0, 1]), np.array([0, 3, 5])), shape=(2, 2)
    )
    B = CSCMatrix.from_scipy(S)
    assert B.indices.tolist() == [0, 1, 0, 1] and B.data.tolist() == [4.0, -1.0, -1.0, 4.0]
    assert S.indices.tolist() == [0, 0, 1, 0, 1]
    b = np.array([1.0, 2.0])
    np.testing.assert_allclose(repro.solve(S, b), spsolve(S, b), rtol=1e-14)


def test_validation_rejects_bad_indptr():
    with pytest.raises(ValueError):
        CSCMatrix(2, 2, [0, 1], [0], [1.0])  # wrong indptr length
    with pytest.raises(ValueError):
        CSCMatrix(2, 2, [1, 1, 1], [], [])  # indptr[0] != 0
    with pytest.raises(ValueError):
        CSCMatrix(2, 2, [0, 2, 1], [0, 1], [1.0, 1.0])  # decreasing


def test_validation_rejects_bad_indices():
    with pytest.raises(ValueError):
        CSCMatrix(2, 2, [0, 1, 2], [0, 5], [1.0, 1.0])  # out of range
    with pytest.raises(ValueError):
        CSCMatrix(2, 2, [0, 2, 2], [1, 0], [1.0, 1.0])  # unsorted column
    with pytest.raises(ValueError):
        CSCMatrix(2, 2, [0, 2, 2], [0, 0], [1.0, 1.0])  # duplicate row


def test_col_access(small):
    A, dense = small
    rows = A.col_rows(2)
    vals = A.col_values(2)
    np.testing.assert_array_equal(rows, [0, 2, 3])
    np.testing.assert_allclose(vals, [-1.0, 5.0, 2.0])
    assert A.col_nnz(2) == 3
    with pytest.raises(IndexError):
        A.col_rows(10)


def test_iter_cols(small):
    A, dense = small
    cols = list(A.iter_cols())
    assert len(cols) == 4
    j, rows, vals = cols[3]
    assert j == 3
    np.testing.assert_array_equal(rows, [2, 3])


def test_get_and_diagonal(small):
    A, dense = small
    assert A.get(0, 2) == pytest.approx(-1.0)
    assert A.get(1, 2) == 0.0
    np.testing.assert_allclose(A.diagonal(), np.diag(dense))


def test_transpose_matches_dense(small):
    A, dense = small
    np.testing.assert_allclose(A.transpose().to_dense(), dense.T)


def test_transpose_rectangular():
    dense = np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]])
    A = CSCMatrix.from_dense(dense)
    T = A.transpose()
    assert T.shape == (3, 2)
    np.testing.assert_allclose(T.to_dense(), dense.T)
    T.validate()


def test_matvec_and_rmatvec(small, rng):
    A, dense = small
    x = rng.normal(size=4)
    np.testing.assert_allclose(A.matvec(x), dense @ x)
    np.testing.assert_allclose(A.rmatvec(x), dense.T @ x)
    np.testing.assert_allclose(A @ x, dense @ x)


def _column_loop_matvec(A, x):
    """The product one column at a time: ``y[rows] += values * x[j]`` for every column with ``x[j] != 0``."""
    y = np.zeros(A.n_rows)
    for j in range(A.n_cols):
        if x[j] != 0.0:
            s = slice(A.indptr[j], A.indptr[j + 1])
            np.add.at(y, A.indices[s], A.data[s] * x[j])
    return y


def _column_loop_rmatvec(A, y):
    """The transposed product one column at a time, each sum taken in row order from ``0.0``."""
    out = np.zeros(A.n_cols)
    for j in range(A.n_cols):
        for p in range(A.indptr[j], A.indptr[j + 1]):
            out[j] += A.data[p] * y[A.indices[p]]
    return out


def _bitwise(a, b):
    assert a.dtype == b.dtype == np.float64 and a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


def test_matvec_and_rmatvec_are_the_column_loops_to_the_bit(rng):
    from repro.sparse.generators import laplacian_2d, laplacian_3d

    # Square grids, and a rectangular matrix with empty columns, an empty row
    # and an inf in a column whose x entry is 0.
    dense = rng.normal(size=(9, 6)) * (rng.random((9, 6)) < 0.4)
    dense[:, [1, 4]] = 0.0
    dense[3, :] = 0.0
    dense[0, 2] = np.inf
    rect = CSCMatrix.from_dense(dense)
    for A in (laplacian_2d(12), laplacian_3d(5), rect):
        x = rng.normal(size=A.n_cols) * 10.0 ** rng.integers(-6, 6, size=A.n_cols)
        x[::3] = 0.0
        if A is rect:
            x[2] = 0.0
        _bitwise(A.matvec(x), _column_loop_matvec(A, x))
        y = rng.normal(size=A.n_rows)
        _bitwise(A.rmatvec(y), _column_loop_rmatvec(A, y))
    # The inf never meets its zero: no NaN reaches y.
    assert np.isfinite(rect.matvec(x)).all()
    assert rect.matvec(np.zeros(6)).tolist() == [0.0] * 9
    empty = CSCMatrix.from_dense(np.zeros((3, 2)))
    _bitwise(empty.matvec(np.ones(2)), np.zeros(3))
    _bitwise(empty.rmatvec(np.ones(3)), np.zeros(2))


def test_matvec_shape_check(small):
    A, _ = small
    with pytest.raises(ValueError):
        A.matvec(np.ones(3))
    with pytest.raises(ValueError):
        A.rmatvec(np.ones(5))


def test_copy_is_deep(small):
    A, _ = small
    B = A.copy()
    B.data[0] = 99.0
    assert A.data[0] != 99.0


def test_prune_drops_small_entries():
    dense = np.array([[1.0, 1e-14], [0.0, 2.0]])
    A = CSCMatrix.from_dense(dense)
    pruned = A.prune(drop_tol=1e-12)
    assert pruned.nnz == 2
    assert pruned.get(0, 1) == 0.0


def test_add_and_scale(small):
    A, dense = small
    np.testing.assert_allclose(A.add(A).to_dense(), 2 * dense)
    np.testing.assert_allclose(A.scale(-0.5).to_dense(), -0.5 * dense)
    with pytest.raises(ValueError):
        A.add(CSCMatrix.identity(3))


def test_pattern_equal_and_allclose(small):
    A, dense = small
    B = A.copy()
    assert A.pattern_equal(B)
    assert A.allclose(B)
    B.data[0] += 1.0
    assert A.pattern_equal(B)
    assert not A.allclose(B)
    assert not A.allclose(CSCMatrix.identity(4))


def test_triangular_predicates():
    L = CSCMatrix.from_dense(np.array([[1.0, 0.0], [2.0, 3.0]]))
    U = CSCMatrix.from_dense(np.array([[1.0, 2.0], [0.0, 3.0]]))
    assert L.is_lower_triangular()
    assert not L.is_upper_triangular()
    assert U.is_upper_triangular()
    assert not U.is_lower_triangular()
    assert not L.is_lower_triangular(strict=True)
    strict = CSCMatrix.from_dense(np.array([[0.0, 0.0], [2.0, 0.0]]))
    assert strict.is_lower_triangular(strict=True)


def test_has_full_diagonal():
    full = CSCMatrix.from_dense(np.array([[1.0, 0.0], [2.0, 3.0]]))
    missing = CSCMatrix.from_dense(np.array([[0.0, 0.0], [2.0, 3.0]]))
    assert full.has_full_diagonal()
    assert not missing.has_full_diagonal()


def test_to_coo_roundtrip(small):
    A, dense = small
    np.testing.assert_allclose(A.to_coo().to_dense(), dense)


def test_to_csr_roundtrip(small):
    A, dense = small
    np.testing.assert_allclose(A.to_csr().to_dense(), dense)


def test_column_pattern_hash_distinguishes_columns(small):
    A, _ = small
    assert A.column_pattern_hash(0) != A.column_pattern_hash(1)


def test_negative_dimensions_rejected():
    with pytest.raises(ValueError):
        CSCMatrix(-1, 2, [0, 0, 0], [], [])


def test_from_dense_requires_2d():
    with pytest.raises(ValueError):
        CSCMatrix.from_dense(np.ones(4))


def test_empty_matrix_operations():
    A = CSCMatrix.empty(3, 3)
    np.testing.assert_allclose(A.matvec(np.ones(3)), np.zeros(3))
    assert A.transpose().nnz == 0
    assert A.density() == 0.0
