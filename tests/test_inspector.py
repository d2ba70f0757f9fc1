"""Tests for the symbolic inspection functions."""

import numpy as np
import pytest

from repro.compiler.registry import kernel_spec
from repro.sparse.csc import CSCMatrix
from repro.sparse.generators import sparse_rhs
from repro.symbolic.fill_pattern import factor_structure
from repro.symbolic.inspector import (
    above_diagonal,
    inspect_cholesky,
    inspect_ic0,
    inspect_lu,
    inspect_normalized_triangular_solve,
    inspect_triangular_solve,
)
from repro.symbolic.reach import reach_set

from oracles import factor_structure_reference


class TestTriangularSolveInspector:
    def test_reach_set_matches_direct_computation(self, lower_factors):
        L = lower_factors["fem"]
        b = sparse_rhs(L.n, nnz=4, seed=1)
        rhs = np.nonzero(b)[0]
        result = inspect_triangular_solve(L, rhs_pattern=rhs)
        np.testing.assert_array_equal(result.reach, reach_set(L, rhs))
        np.testing.assert_array_equal(result.reach_sorted, np.sort(result.reach))
        assert result.reach_size == result.reach.size

    def test_dense_rhs_defaults_to_all_columns(self, lower_factors):
        L = lower_factors["banded"]
        result = inspect_triangular_solve(L)
        assert result.reach_size == L.n

    def test_inspection_sets_table1(self, lower_factors):
        """Table 1: the reach-set (prune-set) and the supernodes (block-set) of a triangular solve."""
        L = lower_factors["block"]
        result = inspect_triangular_solve(L, rhs_pattern=[0])
        np.testing.assert_array_equal(result.reach, reach_set(L, [0]))
        assert result.supernodes.n_columns == L.n

    def test_symbolic_time_recorded(self, lower_factors):
        result = inspect_triangular_solve(lower_factors["circuit"], rhs_pattern=[1])
        assert result.symbolic_seconds >= 0.0

    def test_rejects_non_lower_triangular(self):
        A = CSCMatrix.from_dense(np.array([[1.0, 2.0], [3.0, 4.0]]))
        with pytest.raises(ValueError):
            inspect_triangular_solve(A)

    def test_rejects_out_of_range_rhs(self, lower_factors):
        L = lower_factors["fem"]
        with pytest.raises(IndexError):
            inspect_triangular_solve(L, rhs_pattern=[L.n + 5])

    def test_rejects_unknown_kwargs(self, lower_factors):
        with pytest.raises(TypeError):
            inspect_triangular_solve(lower_factors["fem"], bogus=1)


class TestCholeskyInspector:
    def test_factor_pattern_matches_reference(self, spd_matrix):
        result = inspect_cholesky(spd_matrix)
        indptr, indices = factor_structure_reference(spd_matrix, result.parent)[2:]
        np.testing.assert_array_equal(indptr, result.l_indptr)
        np.testing.assert_array_equal(indices, result.l_indices)

    def test_result_fields_are_consistent(self, spd_matrix):
        result = inspect_cholesky(spd_matrix)
        assert result.n == spd_matrix.n
        assert result.factor_nnz == int(result.l_indptr[-1])
        np.testing.assert_array_equal(result.l_col_counts, np.diff(result.l_indptr))
        assert result.row_ptr.size == result.n + 1 and result.row_ptr[-1] == result.row_idx.size
        assert result.supernodes.n_columns == result.n

    def test_column_pattern_matches_factor_structure(self, spd_matrices):
        A = spd_matrices["laplacian_2d"]
        result = inspect_cholesky(A)
        indptr, indices = factor_structure(A, result.parent)[2:]
        np.testing.assert_array_equal(indptr, result.l_indptr)
        np.testing.assert_array_equal(indices, result.l_indices)

    def test_l_pattern_matrix(self, spd_matrices):
        A = spd_matrices["block"]
        result = inspect_cholesky(A)
        L0 = result.l_pattern_matrix()
        assert L0.nnz == result.factor_nnz
        assert np.all(L0.data == 0.0)
        assert L0.is_lower_triangular()

    def test_inspection_sets_table1(self, spd_matrices):
        """Table 1: the rows of ``L`` (prune-set) and the supernodes (block-set) of a Cholesky."""
        result = inspect_cholesky(spd_matrices["fem"])
        assert result.row_ptr.size == result.n + 1
        assert result.row_ptr[-1] == result.row_idx.size == result.factor_nnz - result.n
        assert result.supernodes.n_supernodes >= 1
        assert result.supernodes.n_columns == result.n

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            inspect_cholesky(CSCMatrix.from_dense(np.ones((2, 3))))

    def test_rejects_unknown_kwargs(self, spd_matrices):
        with pytest.raises(TypeError):
            inspect_cholesky(spd_matrices["fem"], bogus=True)
        # The supernode width cap is gone, not ignored.
        with pytest.raises(TypeError, match="max_supernode_width"):
            inspect_cholesky(spd_matrices["fem"], max_supernode_width=2)


@pytest.mark.parametrize(
    "name, inspect",
    [
        ("triangular-solve", inspect_normalized_triangular_solve),
        ("cholesky", inspect_cholesky),
        ("ldlt", inspect_cholesky),
        ("lu", inspect_lu),
        ("ic0", inspect_ic0),
    ],
)
def test_each_kernel_reaches_its_inspect_function_through_the_spec(name, inspect):
    assert kernel_spec(name).inspect is inspect


def test_symbolic_inspector_imports_standalone():
    """The symbolic layer imports on its own in a fresh interpreter.

    The compiler imports the inspectors; a module of the symbolic layer that
    imported the compiler or the solvers back would recurse (inspector ->
    ... -> compiler artifacts -> inspector) and die at import time.  Guard
    the discipline.
    """
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-c", "import repro.symbolic.inspector"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_factorization_prune_sets_are_ptr_idx_arrays():
    """A factorization's prune-set is one ``(ptr, idx)`` pair: column ``j``'s set is ``idx[ptr[j]:ptr[j + 1]]``."""
    from repro.sparse.generators import laplacian_2d, unsymmetric_diag_dominant

    chol = inspect_cholesky(laplacian_2d(12))
    rows = [[] for _ in range(chol.n)]
    for k in range(chol.n):
        for i in chol.l_indices[chol.l_indptr[k] + 1 : chol.l_indptr[k + 1]]:
            rows[i].append(k)
    for j in range(chol.n):
        np.testing.assert_array_equal(chol.row_idx[chol.row_ptr[j] : chol.row_ptr[j + 1]], rows[j])

    lu = inspect_lu(unsymmetric_diag_dominant(40, seed=2))
    ptr, idx = above_diagonal(lu.u_indptr, lu.u_indices)
    assert ptr.size == lu.n + 1 and ptr[-1] == idx.size == lu.u_nnz - lu.n
    for j in range(lu.n):
        np.testing.assert_array_equal(idx[ptr[j] : ptr[j + 1]], lu.u_indices[lu.u_indptr[j] : lu.u_indptr[j + 1] - 1])
