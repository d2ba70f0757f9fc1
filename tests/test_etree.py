"""Tests for the elimination tree."""

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from repro.baselines.scipy_reference import reference_cholesky
from repro.sparse.csc import CSCMatrix
from repro.symbolic.etree import child_counts, elimination_tree, first_children, postorder
from repro.symbolic.fill_pattern import cholesky_pattern

from oracles import lower_triangle


def _brute_force_parent(A):
    """parent[j] = min{i > j : L[i, j] != 0} from the dense numeric factor."""
    L = reference_cholesky(A)
    n = L.shape[0]
    parent = np.full(n, -1, dtype=np.int64)
    for j in range(n):
        below = np.nonzero(np.abs(L[j + 1 :, j]) > 1e-12)[0]
        if below.size:
            parent[j] = j + 1 + below[0]
    return parent


def test_parent_matches_brute_force(spd_matrix):
    parent = elimination_tree(spd_matrix)
    np.testing.assert_array_equal(parent, _brute_force_parent(spd_matrix))


def test_parent_is_strictly_greater_than_child(spd_matrix):
    parent = elimination_tree(spd_matrix)
    for j, p in enumerate(parent):
        assert p == -1 or p > j


def test_etree_accepts_lower_triangular_storage(spd_matrix):
    full_parent = elimination_tree(spd_matrix)
    lower_parent = elimination_tree(lower_triangle(spd_matrix))
    np.testing.assert_array_equal(full_parent, lower_parent)


def test_etree_of_diagonal_matrix_is_a_forest_of_roots():
    A = CSCMatrix.identity(5)
    parent = elimination_tree(A)
    assert np.all(parent == -1)


def test_etree_of_tridiagonal_matrix_is_a_chain():
    dense = np.diag(np.full(6, 4.0)) + np.diag(np.full(5, -1.0), 1) + np.diag(np.full(5, -1.0), -1)
    parent = elimination_tree(CSCMatrix.from_dense(dense))
    np.testing.assert_array_equal(parent, [1, 2, 3, 4, 5, -1])


def test_etree_requires_square():
    with pytest.raises(ValueError):
        elimination_tree(CSCMatrix.from_dense(np.ones((2, 3))))


def test_postorder_is_a_permutation_and_respects_children(spd_matrix):
    parent = elimination_tree(spd_matrix)
    post = postorder(parent)
    assert sorted(post.tolist()) == list(range(parent.size))
    position = np.empty(parent.size, dtype=np.int64)
    position[post] = np.arange(parent.size)
    for j, p in enumerate(parent):
        if p != -1:
            assert position[j] < position[p]


def test_postorder_rejects_cycles():
    with pytest.raises(ValueError):
        postorder(np.array([1, 0]))


def test_child_counts_and_children_lists(spd_matrix):
    parent = elimination_tree(spd_matrix)
    counts = child_counts(parent)
    children = first_children(parent)
    for j in range(parent.size):
        assert counts[j] == len(children[j])
        for c in children[j]:
            assert parent[c] == j


def _depths(parent):
    """Distance of each vertex from its root; parents are numbered above children."""
    depth = np.zeros(parent.size, dtype=np.int64)
    for j in range(parent.size - 1, -1, -1):
        if parent[j] != -1:
            depth[j] = depth[parent[j]] + 1
    return depth


def test_factor_columns_lie_on_the_path_to_the_root(spd_matrix):
    # struct(L[:, j]) is a subset of j's path to its root in the etree (Liu),
    # so no column of L holds more entries than j's depth plus one.
    parent = elimination_tree(spd_matrix)
    depth = _depths(parent)
    indptr, indices = cholesky_pattern(spd_matrix)
    for j in range(spd_matrix.n):
        path = {j}
        v = j
        while parent[v] != -1:
            v = int(parent[v])
            path.add(v)
        rows = indices[indptr[j] : indptr[j + 1]]
        assert set(rows.tolist()) <= path
        assert rows.size <= depth[j] + 1


def test_etree_has_one_root_per_connected_component(spd_matrix):
    parent = elimination_tree(spd_matrix)
    n_components, labels = connected_components(spd_matrix.to_scipy(), directed=False)
    roots = np.flatnonzero(parent == -1)
    assert roots.size == n_components
    # Every vertex's root is in its own component.
    for j in range(parent.size):
        v = j
        while parent[v] != -1:
            v = int(parent[v])
        assert labels[v] == labels[j]
