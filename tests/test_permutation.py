"""Tests for permutations."""

import numpy as np
import pytest

from repro.sparse.csc import CSCMatrix
from repro.sparse.permutation import Permutation


def test_identity():
    p = Permutation.identity(5)
    np.testing.assert_array_equal(p.perm, np.arange(5))
    np.testing.assert_array_equal(p.inv, np.arange(5))


def test_validation_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation(np.array([0, 0, 1]))
    with pytest.raises(ValueError):
        Permutation(np.array([0, 3, 1]))
    with pytest.raises(ValueError):
        Permutation(np.array([[0, 1]]))


def test_apply_and_inverse_roundtrip(rng):
    perm = Permutation(rng.permutation(8))
    x = rng.normal(size=8)
    np.testing.assert_array_equal(x[perm.perm][perm.inv], x)
    np.testing.assert_array_equal(x[perm.inv][perm.perm], x)


def test_inverse(rng):
    p = Permutation(rng.permutation(6))
    np.testing.assert_array_equal(p.inverse().perm, p.inv)
    assert p.inverse().inverse() == p


def test_symmetric_permute_matches_dense(rng):
    dense = rng.normal(size=(6, 6))
    dense = dense + dense.T + 10 * np.eye(6)
    A = CSCMatrix.from_dense(dense)
    p = Permutation(rng.permutation(6))
    B = p.symmetric_permute(A)
    np.testing.assert_allclose(B.to_dense(), dense[np.ix_(p.perm, p.perm)])


def test_symmetric_permute_requires_square():
    p = Permutation(np.array([0, 1]))
    with pytest.raises(ValueError):
        p.symmetric_permute(CSCMatrix.from_dense(np.ones((2, 3))))


def test_size_mismatch_on_matrix_application():
    p = Permutation(np.array([0, 1, 2]))
    A = CSCMatrix.identity(2)
    with pytest.raises(ValueError):
        p.symmetric_permute(A)


def test_equality_and_repr():
    a = Permutation(np.array([1, 0, 2]))
    b = Permutation(np.array([1, 0, 2]))
    c = Permutation(np.array([2, 1, 0]))
    assert a == b
    assert a != c
    assert "Permutation" in repr(a)


def test_the_inverse_undoes_a_symmetric_permutation(rng):
    dense = rng.normal(size=(7, 7))
    A = CSCMatrix.from_dense(dense + dense.T + 14 * np.eye(7))
    p = Permutation(rng.permutation(7))
    back = p.inverse().symmetric_permute(p.symmetric_permute(A))
    np.testing.assert_array_equal(back.indptr, A.indptr)
    np.testing.assert_array_equal(back.indices, A.indices)
    np.testing.assert_array_equal(back.data, A.data)
