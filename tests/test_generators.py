"""Tests for the synthetic matrix generators."""

import numpy as np
import pytest

from repro.sparse.generators import (
    arrow_spd,
    banded_spd,
    block_tridiagonal_spd,
    circuit_like_spd,
    fem_stencil_2d,
    laplacian_2d,
    laplacian_3d,
    power_grid_spd,
    random_spd,
    sparse_rhs,
)


def _assert_spd(A):
    assert A.is_square()
    assert A.pattern_equal(A.transpose())
    dense = A.to_dense()
    np.testing.assert_allclose(dense, dense.T, rtol=1e-12, atol=1e-12)
    eigvals = np.linalg.eigvalsh(dense)
    assert eigvals.min() > 0.0


def test_laplacian_2d_structure():
    A = laplacian_2d(4, 3)
    assert A.n == 12
    _assert_spd(A)
    # Interior nodes have 4 off-diagonal neighbours.
    assert A.nnz == 12 + 2 * ((4 - 1) * 3 + 4 * (3 - 1))


def test_laplacian_3d_structure():
    A = laplacian_3d(3, 2, 2)
    assert A.n == 12
    _assert_spd(A)


def test_fem_stencil_2d():
    A = fem_stencil_2d(5)
    assert A.n == 25
    _assert_spd(A)
    # The 9-point stencil has more nonzeros than the 5-point one.
    assert A.nnz > laplacian_2d(5).nnz


def test_banded_spd_bandwidth():
    A = banded_spd(30, 3, seed=1)
    _assert_spd(A)
    for j in range(A.n):
        rows = A.col_rows(j)
        assert np.all(np.abs(rows - j) <= 3)


def test_banded_spd_partial_fill():
    full = banded_spd(30, 4, seed=1, fill=1.0)
    partial = banded_spd(30, 4, seed=1, fill=0.3)
    assert partial.nnz < full.nnz
    _assert_spd(partial)


def test_block_tridiagonal_spd():
    A = block_tridiagonal_spd(4, 6, seed=2)
    assert A.n == 24
    _assert_spd(A)


def test_block_tridiagonal_dense_coupling_has_more_nonzeros():
    sparse_coupling = block_tridiagonal_spd(4, 6, seed=2)
    dense_coupling = block_tridiagonal_spd(4, 6, seed=2, dense_coupling=True)
    assert dense_coupling.nnz > sparse_coupling.nnz
    _assert_spd(dense_coupling)


def test_arrow_spd():
    A = arrow_spd(20, 2, seed=3)
    _assert_spd(A)
    # The last rows are dense.
    assert A.indptr[1] - A.indptr[0] >= 3


def test_arrow_spd_width_validation():
    with pytest.raises(ValueError):
        arrow_spd(10, 10)


def test_random_spd_density():
    A = random_spd(60, 0.05, seed=4)
    _assert_spd(A)
    offdiag = A.nnz - 60
    assert 0 < offdiag < 2 * 0.10 * 60 * 59 / 2


def test_random_spd_zero_density_is_diagonal():
    A = random_spd(10, 0.0, seed=1)
    assert A.nnz == 10
    _assert_spd(A)


def test_circuit_like_spd():
    A = circuit_like_spd(80, seed=5)
    _assert_spd(A)
    degrees = np.diff(A.indptr) - 1
    # Hubs make the degree distribution right-skewed.
    assert degrees.max() > degrees.mean() + 2


def test_power_grid_spd():
    A = power_grid_spd(50, seed=6)
    _assert_spd(A)


def test_generator_argument_validation():
    with pytest.raises(ValueError):
        laplacian_2d(0)
    with pytest.raises(ValueError):
        laplacian_3d(2, -1)
    with pytest.raises(ValueError):
        banded_spd(10, -1)
    with pytest.raises(ValueError):
        block_tridiagonal_spd(0, 5)
    with pytest.raises(ValueError):
        random_spd(10, 1.5)
    with pytest.raises(ValueError):
        circuit_like_spd(1)
    with pytest.raises(ValueError):
        power_grid_spd(2)


def test_generators_are_reproducible():
    a = circuit_like_spd(40, seed=9)
    b = circuit_like_spd(40, seed=9)
    assert a.pattern_equal(b)
    np.testing.assert_allclose(a.data, b.data)


def test_sparse_rhs_density():
    b = sparse_rhs(200, density=0.02, seed=0)
    assert b.shape == (200,)
    assert np.count_nonzero(b) == 4


def test_sparse_rhs_nnz():
    b = sparse_rhs(100, nnz=7, seed=1)
    assert np.count_nonzero(b) == 7
    assert np.all(b[b != 0] > 0)


def test_sparse_rhs_validation():
    with pytest.raises(ValueError):
        sparse_rhs(0)
    with pytest.raises(ValueError):
        sparse_rhs(10, nnz=2, density=0.5)


def test_sparse_rhs_always_has_a_nonzero():
    b = sparse_rhs(50, density=1e-6, seed=2)
    assert np.count_nonzero(b) >= 1


def test_unsymmetric_diag_dominant_structure():
    from repro.sparse.generators import unsymmetric_diag_dominant

    A = unsymmetric_diag_dominant(80, seed=3)
    assert A.is_square() and np.all(A.diagonal() != 0.0)
    # Genuinely unsymmetric: the pattern itself differs between triangles.
    assert not A.pattern_equal(A.transpose())
    dense = A.to_dense()
    diag = np.abs(np.diag(dense))
    off = np.abs(dense) - np.diag(diag)
    # Strict diagonal dominance by rows AND columns: no-pivot LU is stable
    # and every pivot is nonzero.
    assert np.all(diag > off.sum(axis=1))
    assert np.all(diag > off.sum(axis=0))


def test_unsymmetric_diag_dominant_reproducible_and_validated():
    from repro.sparse.generators import unsymmetric_diag_dominant

    a = unsymmetric_diag_dominant(50, seed=11)
    b = unsymmetric_diag_dominant(50, seed=11)
    assert a.pattern_equal(b)
    np.testing.assert_allclose(a.data, b.data)
    with pytest.raises(ValueError):
        unsymmetric_diag_dominant(0)
    with pytest.raises(ValueError):
        unsymmetric_diag_dominant(10, avg_nnz_per_col=-1.0)
