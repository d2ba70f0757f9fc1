"""Tests for structural helpers in repro.sparse.utils."""

import numpy as np
import pytest

from repro.sparse.csc import CSCMatrix
from repro.sparse.utils import symmetrize_pattern

from oracles import lower_triangle


@pytest.fixture()
def sym():
    dense = np.array(
        [
            [4.0, -1.0, 0.0],
            [-1.0, 5.0, 2.0],
            [0.0, 2.0, 6.0],
        ]
    )
    return CSCMatrix.from_dense(dense), dense


def test_symmetrize_pattern_from_lower(sym):
    A, dense = sym
    L = lower_triangle(A)
    S = symmetrize_pattern(L)
    assert S.pattern_equal(S.transpose())
    np.testing.assert_allclose(S.to_dense(), dense)


def test_symmetrize_pattern_of_an_unsymmetric_matrix():
    dense = np.array([[2.0, 0.0, 1.0], [3.0, 4.0, 0.0], [0.0, 0.0, 5.0]])
    S = symmetrize_pattern(CSCMatrix.from_dense(dense))
    assert S.pattern_equal(S.transpose())
    np.testing.assert_array_equal(S.to_dense(), dense + dense.T - np.diag(np.diag(dense)))
