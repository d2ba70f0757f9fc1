"""Tests for the dense micro-kernels."""

import numpy as np
import pytest

from repro.kernels.dense import (
    NotPositiveDefiniteError,
    SMALL_KERNEL_LIMIT,
    dense_cholesky,
    dense_lower_solve,
    dense_solve_transposed_right,
    has_small_kernel,
    small_cholesky,
)


def _random_spd(rng, n):
    M = rng.normal(size=(n, n))
    return M @ M.T + n * np.eye(n)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 25])
def test_dense_cholesky_matches_numpy(rng, n):
    A = _random_spd(rng, n)
    L = dense_cholesky(A)
    np.testing.assert_allclose(L, np.linalg.cholesky(A), atol=1e-10)
    assert np.allclose(np.triu(L, 1), 0.0)


def test_dense_cholesky_rejects_non_square():
    with pytest.raises(ValueError):
        dense_cholesky(np.ones((2, 3)))


def test_dense_cholesky_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        dense_cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_dense_cholesky_ignores_upper_garbage(rng):
    A = _random_spd(rng, 6)
    garbled = A.copy()
    garbled[np.triu_indices(6, 1)] = 1e6  # only the lower part should be read
    np.testing.assert_allclose(dense_cholesky(garbled), np.linalg.cholesky(A), atol=1e-8)


@pytest.mark.parametrize("n", [1, 2, 4, 9])
def test_dense_lower_solve_vector(rng, n):
    L = np.linalg.cholesky(_random_spd(rng, n))
    b = rng.normal(size=n)
    np.testing.assert_allclose(L @ dense_lower_solve(L, b), b, atol=1e-10)


def test_dense_lower_solve_matrix_rhs(rng):
    L = np.linalg.cholesky(_random_spd(rng, 6))
    B = rng.normal(size=(6, 3))
    X = dense_lower_solve(L, B)
    np.testing.assert_allclose(L @ X, B, atol=1e-10)


def test_dense_lower_solve_shape_checks(rng):
    L = np.linalg.cholesky(_random_spd(rng, 4))
    with pytest.raises(ValueError):
        dense_lower_solve(L, np.ones(5))
    with pytest.raises(ValueError):
        dense_lower_solve(np.ones((2, 3)), np.ones(2))


def test_dense_solve_transposed_right(rng):
    L = np.linalg.cholesky(_random_spd(rng, 5))
    B = rng.normal(size=(7, 5))
    X = dense_solve_transposed_right(L, B)
    np.testing.assert_allclose(X @ L.T, B, atol=1e-10)


def test_dense_solve_transposed_right_vector(rng):
    L = np.linalg.cholesky(_random_spd(rng, 4))
    b = rng.normal(size=4)
    x = dense_solve_transposed_right(L, b)
    np.testing.assert_allclose(x @ L.T, b, atol=1e-10)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_small_cholesky_matches_dense(rng, n):
    A = _random_spd(rng, n)
    np.testing.assert_allclose(small_cholesky(A), np.linalg.cholesky(A), atol=1e-10)


def test_small_cholesky_falls_back_for_large_blocks(rng):
    A = _random_spd(rng, SMALL_KERNEL_LIMIT + 2)
    np.testing.assert_allclose(small_cholesky(A), np.linalg.cholesky(A), atol=1e-10)


def test_small_cholesky_detects_indefinite_blocks():
    with pytest.raises(NotPositiveDefiniteError):
        small_cholesky(np.array([[-1.0]]))
    with pytest.raises(NotPositiveDefiniteError):
        small_cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(NotPositiveDefiniteError):
        small_cholesky(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 2.0], [0.0, 2.0, 1.0]]))


def test_has_small_kernel_limits():
    assert has_small_kernel(1)
    assert has_small_kernel(SMALL_KERNEL_LIMIT)
    assert not has_small_kernel(SMALL_KERNEL_LIMIT + 1)
    assert not has_small_kernel(0)
