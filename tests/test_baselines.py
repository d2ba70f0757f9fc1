"""Tests for the dense correctness oracles."""

import numpy as np

from oracles import reference_solve


def test_reference_solve_consistency(spd_matrices, rng):
    A = spd_matrices["laplacian_2d"]
    x_true = rng.normal(size=A.n)
    b = A.matvec(x_true)
    np.testing.assert_allclose(reference_solve(A, b), x_true, atol=1e-8)
