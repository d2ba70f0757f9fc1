"""Tests for the sparse Cholesky kernel variants."""

import numpy as np
import pytest

from repro.baselines.scipy_reference import reference_cholesky
from repro.kernels.cholesky import (
    NotPositiveDefiniteError,
    cholesky_left_looking,
    cholesky_supernodal,
)
from repro.kernels.flops import cholesky_flops, gflops, triangular_solve_flops
from repro.sparse.csc import CSCMatrix
from repro.sparse.utils import lower_triangle
from repro.symbolic.inspector import CholeskyInspector


def test_left_looking_matches_reference(spd_matrix):
    L = cholesky_left_looking(spd_matrix)
    np.testing.assert_allclose(L.to_dense(), reference_cholesky(spd_matrix), atol=1e-9)


def test_supernodal_matches_reference(spd_matrix):
    L = cholesky_supernodal(spd_matrix)
    np.testing.assert_allclose(L.to_dense(), reference_cholesky(spd_matrix), atol=1e-9)


def test_variants_share_the_predicted_pattern(spd_matrices):
    A = spd_matrices["fem"]
    inspection = CholeskyInspector().inspect(A)
    l1 = cholesky_left_looking(A, inspection)
    l2 = cholesky_supernodal(A, inspection)
    assert l1.pattern_equal(l2)
    np.testing.assert_array_equal(l1.indptr, inspection.l_indptr)
    np.testing.assert_array_equal(l1.indices, inspection.l_indices)


def test_factorization_from_lower_storage(spd_matrices):
    A = spd_matrices["laplacian_2d"]
    lower = lower_triangle(A)
    L = cholesky_left_looking(lower)
    np.testing.assert_allclose(L.to_dense(), reference_cholesky(A), atol=1e-9)


def test_reconstruction_l_lt(spd_matrix):
    L = cholesky_supernodal(spd_matrix)
    dense_l = L.to_dense()
    np.testing.assert_allclose(dense_l @ dense_l.T, _full_dense(spd_matrix), atol=1e-8)


def _full_dense(A):
    dense = A.to_dense()
    if A.is_lower_triangular() and A.n > 1:
        dense = dense + np.tril(dense, -1).T
    return dense


def test_indefinite_matrix_raises():
    dense = np.array([[1.0, 2.0], [2.0, 1.0]])
    A = CSCMatrix.from_dense(dense)
    for fn in (cholesky_left_looking, cholesky_supernodal):
        with pytest.raises(NotPositiveDefiniteError):
            fn(A)


def test_non_square_rejected():
    rect = CSCMatrix.from_dense(np.ones((2, 3)))
    for fn in (cholesky_left_looking, cholesky_supernodal):
        with pytest.raises(ValueError):
            fn(rect)


def test_diagonal_matrix_factorization():
    A = CSCMatrix.from_dense(np.diag([4.0, 9.0, 16.0]))
    L = cholesky_left_looking(A)
    np.testing.assert_allclose(L.to_dense(), np.diag([2.0, 3.0, 4.0]))


def test_small_block_limit_variations(spd_matrices):
    A = spd_matrices["block"]
    inspection = CholeskyInspector().inspect(A)
    l_small = cholesky_supernodal(A, inspection, small_block_limit=3)
    l_blas = cholesky_supernodal(A, inspection, small_block_limit=0)
    np.testing.assert_allclose(l_small.to_dense(), l_blas.to_dense(), atol=1e-10)


# --------------------------------------------------------------------------- #
# FLOP counting
# --------------------------------------------------------------------------- #
def test_triangular_solve_flops_identity():
    L = CSCMatrix.identity(5)
    assert triangular_solve_flops(L) == 5  # one division per column
    assert triangular_solve_flops(L, [0, 2]) == 2


def test_triangular_solve_flops_counts_offdiagonals():
    dense = np.array([[1.0, 0.0], [2.0, 3.0]])
    L = CSCMatrix.from_dense(dense)
    # Column 0: 1 div + 2 flops for one off-diagonal entry; column 1: 1 div.
    assert triangular_solve_flops(L) == 4


def test_cholesky_flops_dense_order():
    # For a dense factor the count grows like n^3 / 3 to leading order.
    counts = np.arange(30, 0, -1)
    flops = cholesky_flops(counts)
    n = 30
    assert flops == pytest.approx(n**3 / 3.0, rel=0.2)


def test_cholesky_flops_accepts_matrix(spd_matrices):
    A = spd_matrices["fem"]
    L = cholesky_left_looking(A)
    counts = np.diff(L.indptr)
    assert cholesky_flops(L) == cholesky_flops(counts)


def test_gflops_helper():
    assert gflops(2_000_000_000, 1.0) == pytest.approx(2.0)
    assert gflops(1, 0.0) == float("inf")
