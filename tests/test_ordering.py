"""Tests for fill-reducing orderings."""

import numpy as np
import pytest

from repro.sparse.generators import arrow_spd, laplacian_2d
from repro.sparse.csc import CSCMatrix
from repro.sparse.ordering import (
    minimum_degree_ordering,
    natural_ordering,
    ordering_by_name,
    reverse_cuthill_mckee,
)
from repro.symbolic.fill_pattern import symbolic_factor_nnz


def _is_valid_permutation(perm, n):
    return sorted(int(v) for v in perm.perm) == list(range(n))


def test_natural_ordering_is_identity(spd_matrix):
    p = natural_ordering(spd_matrix)
    assert p.is_identity()


def test_minimum_degree_is_a_permutation(spd_matrix):
    p = minimum_degree_ordering(spd_matrix)
    assert _is_valid_permutation(p, spd_matrix.n)


def test_rcm_is_a_permutation(spd_matrix):
    p = reverse_cuthill_mckee(spd_matrix)
    assert _is_valid_permutation(p, spd_matrix.n)


def test_minimum_degree_reduces_fill_on_arrow_matrix():
    # The arrowhead matrix with the dense row/column *first* is the classic
    # example where the natural ordering produces a nearly dense factor while
    # minimum degree keeps it sparse (it pushes the dense column to the end).
    from repro.sparse.permutation import Permutation

    A = arrow_spd(40, 1, seed=3)
    reverse = Permutation(np.arange(A.n - 1, -1, -1, dtype=np.int64))
    bad = reverse.symmetric_permute(A)  # dense row becomes row 0
    natural_fill = symbolic_factor_nnz(bad)
    p = minimum_degree_ordering(bad)
    permuted_fill = symbolic_factor_nnz(p.symmetric_permute(bad))
    assert permuted_fill < natural_fill


def test_rcm_reduces_bandwidth_on_grid():
    A = laplacian_2d(8)
    p = reverse_cuthill_mckee(A)
    B = p.symmetric_permute(A)

    def bandwidth(M):
        worst = 0
        for j in range(M.n_cols):
            rows = M.col_rows(j)
            if rows.size:
                worst = max(worst, int(np.max(np.abs(rows - j))))
        return worst

    # RCM never increases the bandwidth of a shuffled grid dramatically;
    # compare against a random symmetric permutation of the same matrix.
    rng = np.random.default_rng(0)
    from repro.sparse.permutation import Permutation

    shuffled = Permutation(rng.permutation(A.n)).symmetric_permute(A)
    assert bandwidth(B) <= bandwidth(shuffled)


def test_orderings_are_deterministic(spd_matrices):
    A = spd_matrices["fem"]
    p1 = minimum_degree_ordering(A)
    p2 = minimum_degree_ordering(A)
    assert p1 == p2
    r1 = reverse_cuthill_mckee(A)
    r2 = reverse_cuthill_mckee(A)
    assert r1 == r2


def test_orderings_require_square_matrices():
    rect = CSCMatrix.from_dense(np.ones((2, 3)))
    for fn in (natural_ordering, minimum_degree_ordering, reverse_cuthill_mckee):
        with pytest.raises(ValueError):
            fn(rect)


def test_empty_matrix_orderings():
    A = CSCMatrix.empty(0, 0)
    assert minimum_degree_ordering(A).n == 0
    assert reverse_cuthill_mckee(A).n == 0


def test_ordering_by_name_lookup():
    assert ordering_by_name("natural") is natural_ordering
    assert ordering_by_name("mindeg") is minimum_degree_ordering
    assert ordering_by_name("MinDeg") is minimum_degree_ordering
    assert ordering_by_name("rcm") is reverse_cuthill_mckee
    with pytest.raises(ValueError):
        ordering_by_name("does-not-exist")
    # One name per ordering: no aliases, and "amd" is not exact minimum degree under another name.
    for alias in ("none", "minimum_degree", "amd"):
        with pytest.raises(ValueError, match="unknown ordering"):
            ordering_by_name(alias)


@pytest.mark.parametrize(
    "name, ordering",
    [
        ("natural", natural_ordering),
        ("Natural", natural_ordering),
        ("mindeg", minimum_degree_ordering),
        ("MINDEG", minimum_degree_ordering),
        ("rcm", reverse_cuthill_mckee),
        ("RCM", reverse_cuthill_mckee),
    ],
)
def test_each_ordering_has_one_case_insensitive_name(name, ordering):
    assert ordering_by_name(name) is ordering


@pytest.mark.parametrize("name", ["none", "minimum_degree", "amd", "AMD", "md", "", "nested-dissection"])
def test_any_other_name_is_refused_with_the_available_names(name):
    with pytest.raises(ValueError, match=r"unknown ordering .*available: \['mindeg', 'natural', 'rcm'\]"):
        ordering_by_name(name)


@pytest.mark.parametrize("name", ["none", "minimum_degree", "amd"])
def test_the_direct_solver_refuses_a_dropped_alias(name):
    from repro.solvers.linear_solver import SparseLinearSolver

    with pytest.raises(ValueError, match="unknown ordering"):
        SparseLinearSolver(laplacian_2d(4), ordering=name)


def test_rcm_handles_disconnected_components():
    # Block-diagonal matrix: two disconnected 3-node chains.
    dense = np.zeros((6, 6))
    for i, j in [(0, 1), (1, 2), (3, 4), (4, 5)]:
        dense[i, j] = dense[j, i] = -1.0
    np.fill_diagonal(dense, 3.0)
    A = CSCMatrix.from_dense(dense)
    p = reverse_cuthill_mckee(A)
    assert _is_valid_permutation(p, 6)
    p2 = minimum_degree_ordering(A)
    assert _is_valid_permutation(p2, 6)
