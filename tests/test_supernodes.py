"""Tests for supernode detection."""

import numpy as np
import pytest

from repro.sparse.csc import CSCMatrix
from repro.sparse.generators import block_tridiagonal_spd
from repro.symbolic.colcount import column_counts_of_factor
from repro.symbolic.etree import child_counts, elimination_tree
from repro.symbolic.supernodes import (
    SupernodePartition,
    cholesky_supernodes,
    supernodes_from_boundaries,
    triangular_supernodes,
)


def test_partition_validation():
    with pytest.raises(ValueError):
        SupernodePartition(
            super_ptr=np.array([1, 3]), col_to_super=np.array([0, 0, 0])
        )
    with pytest.raises(ValueError):
        SupernodePartition(
            super_ptr=np.array([0, 2, 2]), col_to_super=np.array([0, 0])
        )
    with pytest.raises(ValueError):
        SupernodePartition(
            super_ptr=np.array([0, 2]), col_to_super=np.array([0, 0, 0])
        )


def test_partition_accessors():
    p = supernodes_from_boundaries([0, 2, 3], 6)
    assert p.n_columns == 6
    assert p.n_supernodes == 3
    assert p.columns(0) == (0, 2)
    assert p.columns(2) == (3, 6)
    assert p.width(2) == 3
    np.testing.assert_array_equal(p.sizes(), [2, 1, 3])
    assert p.col_to_super[4] == 2
    with pytest.raises(IndexError):
        p.columns(5)


def test_boundaries_must_start_at_zero():
    with pytest.raises(ValueError):
        supernodes_from_boundaries([1, 3], 5)


def test_triangular_supernodes_require_identical_structure(lower_factors):
    for L in lower_factors.values():
        partition = triangular_supernodes(L)
        assert partition.n_columns == L.n
        for s in range(partition.n_supernodes):
            c0, c1 = partition.columns(s)
            base_rows = L.col_rows(c0)
            for j in range(c0 + 1, c1):
                expected = base_rows[base_rows >= j]
                np.testing.assert_array_equal(L.col_rows(j), expected)


def test_triangular_supernodes_are_maximal(lower_factors):
    # Adjacent supernodes must not be mergeable (otherwise detection is not
    # maximal): the last column of one and the first of the next differ.
    for L in lower_factors.values():
        partition = triangular_supernodes(L)
        for s in range(partition.n_supernodes - 1):
            _, end = partition.columns(s)
            prev = end - 1
            rows_prev = L.col_rows(prev)
            rows_next = L.col_rows(end)
            mergeable = np.array_equal(rows_prev[rows_prev > prev], rows_next)
            assert not mergeable


def test_triangular_supernodes_reject_non_lower():
    U = CSCMatrix.from_dense(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        triangular_supernodes(U)


def test_cholesky_supernodes_satisfy_merging_rule(spd_matrix):
    # The etree/colcount rule of §3.2: inside a supernode every column's count
    # is one less than its predecessor's and the predecessor is its only child.
    parent = elimination_tree(spd_matrix)
    counts = column_counts_of_factor(spd_matrix, parent)
    partition = cholesky_supernodes(counts, parent)
    assert partition.n_columns == spd_matrix.n
    for s in range(partition.n_supernodes):
        c0, c1 = partition.columns(s)
        for j in range(c0 + 1, c1):
            assert counts[j] == counts[j - 1] - 1
            assert parent[j - 1] == j


def test_cholesky_supernodes_on_block_matrix_are_wide():
    A = block_tridiagonal_spd(5, 8, seed=0, dense_coupling=True)
    parent = elimination_tree(A)
    counts = column_counts_of_factor(A, parent)
    partition = cholesky_supernodes(counts, parent)
    assert partition.sizes().max() >= 8


def test_cholesky_supernodes_identity_matrix_all_singletons():
    A = CSCMatrix.identity(5)
    parent = elimination_tree(A)
    counts = column_counts_of_factor(A, parent)
    partition = cholesky_supernodes(counts, parent)
    # All columns have equal count (1) but no etree edges, so no merging.
    assert partition.n_supernodes == 5


def test_cholesky_supernodes_input_validation():
    with pytest.raises(ValueError):
        cholesky_supernodes(np.array([1, 1]), np.array([-1]))


def test_empty_partitions():
    empty_tri = triangular_supernodes(CSCMatrix.empty(0, 0))
    assert empty_tri.n_supernodes == 0
    empty_chol = cholesky_supernodes(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
    assert empty_chol.n_columns == 0


def test_cholesky_supernodes_tile_the_columns(spd_matrix):
    parent = elimination_tree(spd_matrix)
    partition = cholesky_supernodes(column_counts_of_factor(spd_matrix, parent), parent)
    covered = []
    for s in range(partition.n_supernodes):
        c0, c1 = partition.columns(s)
        assert partition.width(s) == c1 - c0 >= 1
        assert np.all(partition.col_to_super[c0:c1] == s)
        covered.extend(range(c0, c1))
    assert covered == list(range(spd_matrix.n))
    assert int(partition.sizes().sum()) == spd_matrix.n
