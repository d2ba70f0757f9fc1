"""Tests for the FLOP model behind the reported GFLOP/s."""

import numpy as np
import pytest

from repro.bench.metrics import gflops_rate
from repro.kernels.flops import cholesky_flops, triangular_solve_flops
from repro.sparse.csc import CSCMatrix
from repro.symbolic.inspector import inspect_cholesky


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
    L = inspect_cholesky(spd_matrices["fem"]).l_pattern_matrix()
    counts = np.diff(L.indptr)
    assert cholesky_flops(L) == cholesky_flops(counts)


def test_gflops_helper():
    assert gflops_rate(2_000_000_000, 1.0) == pytest.approx(2.0)
    assert gflops_rate(1, 0.0) == float("inf")
