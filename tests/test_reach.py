"""Tests for reach-set computation in the dependence graph DG_L."""

import numpy as np
import pytest

from repro.baselines.scipy_reference import reference_trisolve
from repro.sparse.csc import CSCMatrix
from repro.sparse.generators import sparse_rhs
from repro.symbolic.reach import reach_set, reach_set_from_arrays, reach_set_sorted


def _brute_force_reach(L, sources):
    """Transitive closure of the column dependence relation."""
    n = L.n
    adjacency = [set(int(i) for i in L.col_rows(j) if i > j) for j in range(n)]
    visited = set()
    stack = list(int(s) for s in sources)
    while stack:
        v = stack.pop()
        if v in visited:
            continue
        visited.add(v)
        stack.extend(adjacency[v] - visited)
    return visited


@pytest.fixture(params=["laplacian_2d", "fem", "block", "circuit", "arrow"])
def factor(request, lower_factors):
    return lower_factors[request.param]


def test_reach_matches_brute_force(factor):
    b = sparse_rhs(factor.n, nnz=3, seed=7)
    sources = np.nonzero(b)[0]
    reach = reach_set(factor, sources)
    assert set(int(v) for v in reach) == _brute_force_reach(factor, sources)


def test_reach_contains_sources(factor):
    sources = [0, factor.n // 2]
    reach = set(int(v) for v in reach_set(factor, sources))
    assert set(sources) <= reach


def test_reach_is_topologically_ordered(factor):
    b = sparse_rhs(factor.n, nnz=4, seed=3)
    reach = reach_set(factor, np.nonzero(b)[0])
    assert np.unique(reach).size == reach.size
    position = {int(v): k for k, v in enumerate(reach)}
    # Every edge j -> i of DG_L (L[i, j] != 0, i > j) inside the reach has j first.
    for j in position:
        for i in factor.col_rows(j):
            if i > j and int(i) in position:
                assert position[j] < position[int(i)]


def test_reach_sorted_is_same_set(factor):
    b = sparse_rhs(factor.n, nnz=5, seed=9)
    sources = np.nonzero(b)[0]
    assert set(reach_set(factor, sources).tolist()) == set(
        reach_set_sorted(factor, sources).tolist()
    )
    assert np.all(np.diff(reach_set_sorted(factor, sources)) > 0)


def test_reach_predicts_solution_nonzeros(factor):
    # Gilbert & Peierls: the nonzero pattern of x is Reach_L(beta).
    b = sparse_rhs(factor.n, nnz=2, seed=11)
    x = reference_trisolve(factor, b)
    nonzeros = set(np.nonzero(np.abs(x) > 1e-14)[0].tolist())
    reach = set(int(v) for v in reach_set(factor, np.nonzero(b)[0]))
    assert nonzeros <= reach


def test_reach_empty_sources(factor):
    assert reach_set(factor, []).size == 0


def test_reach_dense_rhs_covers_dependent_columns(factor):
    reach = reach_set(factor, np.arange(factor.n))
    assert sorted(reach.tolist()) == list(range(factor.n))


def test_reach_rejects_out_of_range_sources(factor):
    with pytest.raises(IndexError):
        reach_set(factor, [factor.n + 1])


def test_reach_requires_lower_triangular():
    A = CSCMatrix.from_dense(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        reach_set(A, [0])


def test_reach_long_chain_no_recursion_limit():
    # A bidiagonal matrix creates a dependency chain of length n; the
    # iterative DFS must handle it without hitting Python's recursion limit.
    n = 5000
    indptr = np.zeros(n + 1, dtype=np.int64)
    indices = []
    data = []
    for j in range(n):
        rows = [j] if j == n - 1 else [j, j + 1]
        indices.extend(rows)
        data.extend([1.0] * len(rows))
        indptr[j + 1] = indptr[j] + len(rows)
    L = CSCMatrix(n, n, indptr, np.array(indices), np.array(data))
    reach = reach_set(L, [0])
    assert reach.size == n
    assert reach[0] == 0 and reach[-1] == n - 1


def test_reach_of_one_column_is_closed_under_its_edges(factor):
    for j in range(0, factor.n, max(1, factor.n // 8)):
        reach = set(int(v) for v in reach_set(factor, [j]))
        assert j in reach
        for v in reach:
            below = {int(i) for i in factor.col_rows(v) if i > v}
            assert below <= reach


def test_reach_set_from_arrays_matches_brute_force(factor):
    for sources in ([0], [factor.n - 1], [factor.n // 3, 2 * factor.n // 3]):
        reach = reach_set_from_arrays(factor.n, factor.indptr, factor.indices, sources)
        assert len(reach) == len(set(reach.tolist()))
        assert set(reach.tolist()) == _brute_force_reach(factor, sources)


def test_reach_ignores_repeated_and_unordered_sources(factor):
    sources = np.nonzero(sparse_rhs(factor.n, nnz=4, seed=3))[0]
    messy = np.concatenate([sources[::-1], sources])
    once = reach_set(factor, sources)
    twice = reach_set(factor, messy)
    assert len(twice) == len(set(twice.tolist()))
    assert set(twice.tolist()) == set(once.tolist())
