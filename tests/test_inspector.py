"""Tests for the symbolic-inspector framework."""

import numpy as np
import pytest

from repro.compiler.registry import kernel_spec
from repro.sparse.csc import CSCMatrix
from repro.sparse.generators import sparse_rhs
from repro.symbolic.fill_pattern import cholesky_pattern
from repro.symbolic.inspector import (
    CholeskyInspector,
    IC0Inspector,
    ILU0Inspector,
    InspectionSet,
    LDLTInspector,
    LUInspector,
    TriangularSolveInspector,
    verify_cholesky_pattern_consistency,
)
from repro.symbolic.reach import reach_set


class TestTriangularSolveInspector:
    def test_reach_set_matches_direct_computation(self, lower_factors):
        L = lower_factors["fem"]
        b = sparse_rhs(L.n, nnz=4, seed=1)
        rhs = np.nonzero(b)[0]
        result = TriangularSolveInspector().inspect(L, rhs_pattern=rhs)
        np.testing.assert_array_equal(result.reach, reach_set(L, rhs))
        np.testing.assert_array_equal(result.reach_sorted, np.sort(result.reach))
        assert result.reach_size == result.reach.size

    def test_dense_rhs_defaults_to_all_columns(self, lower_factors):
        L = lower_factors["banded"]
        result = TriangularSolveInspector().inspect(L)
        assert result.reach_size == L.n

    def test_inspection_sets_table1(self, lower_factors):
        L = lower_factors["block"]
        result = TriangularSolveInspector().inspect(L, rhs_pattern=[0])
        prune = result.prune_set()
        block = result.block_set()
        assert isinstance(prune, InspectionSet)
        assert prune.strategy == "dfs"
        assert prune.graph.startswith("DG_L")
        assert block.strategy == "node-equivalence"
        assert block.payload.n_columns == L.n

    def test_symbolic_time_recorded(self, lower_factors):
        result = TriangularSolveInspector().inspect(lower_factors["circuit"], rhs_pattern=[1])
        assert result.symbolic_seconds >= 0.0

    def test_rejects_non_lower_triangular(self):
        A = CSCMatrix.from_dense(np.array([[1.0, 2.0], [3.0, 4.0]]))
        with pytest.raises(ValueError):
            TriangularSolveInspector().inspect(A)

    def test_rejects_out_of_range_rhs(self, lower_factors):
        L = lower_factors["fem"]
        with pytest.raises(IndexError):
            TriangularSolveInspector().inspect(L, rhs_pattern=[L.n + 5])

    def test_rejects_unknown_kwargs(self, lower_factors):
        with pytest.raises(TypeError):
            TriangularSolveInspector().inspect(lower_factors["fem"], bogus=1)


class TestCholeskyInspector:
    def test_factor_pattern_matches_reference(self, spd_matrix):
        assert verify_cholesky_pattern_consistency(spd_matrix)

    def test_result_fields_are_consistent(self, spd_matrix):
        result = CholeskyInspector().inspect(spd_matrix)
        assert result.n == spd_matrix.n
        assert result.factor_nnz == int(result.l_indptr[-1])
        np.testing.assert_array_equal(result.l_col_counts, np.diff(result.l_indptr))
        assert len(result.row_patterns) == result.n
        assert result.supernodes.n_columns == result.n
        assert result.average_column_count == pytest.approx(result.l_col_counts.mean())

    def test_row_patterns_match_column_pattern(self, spd_matrices):
        A = spd_matrices["laplacian_2d"]
        result = CholeskyInspector().inspect(A)
        indptr, indices = cholesky_pattern(A, result.parent)
        np.testing.assert_array_equal(indptr, result.l_indptr)
        np.testing.assert_array_equal(indices, result.l_indices)

    def test_l_pattern_matrix(self, spd_matrices):
        A = spd_matrices["block"]
        result = CholeskyInspector().inspect(A)
        L0 = result.l_pattern_matrix()
        assert L0.nnz == result.factor_nnz
        assert np.all(L0.data == 0.0)
        assert L0.is_lower_triangular()

    def test_inspection_sets_table1(self, spd_matrices):
        result = CholeskyInspector().inspect(spd_matrices["fem"])
        prune = result.prune_set()
        block = result.block_set()
        assert prune.strategy == "up-traversal"
        assert "etree" in prune.graph
        assert block.name == "block-set"
        assert block.payload.n_supernodes >= 1

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            CholeskyInspector().inspect(CSCMatrix.from_dense(np.ones((2, 3))))

    def test_rejects_unknown_kwargs(self, spd_matrices):
        with pytest.raises(TypeError):
            CholeskyInspector().inspect(spd_matrices["fem"], bogus=True)
        # The supernode width cap is gone, not ignored.
        with pytest.raises(TypeError, match="max_supernode_width"):
            CholeskyInspector().inspect(spd_matrices["fem"], max_supernode_width=2)


@pytest.mark.parametrize(
    "name, inspector_cls",
    [
        ("triangular-solve", TriangularSolveInspector),
        ("cholesky", CholeskyInspector),
        ("ldlt", LDLTInspector),
        ("lu", LUInspector),
        ("ic0", IC0Inspector),
        ("ilu0", ILU0Inspector),
    ],
)
def test_each_kernel_reaches_its_inspector_through_the_spec(name, inspector_cls):
    assert kernel_spec(name).inspector_cls is inspector_cls


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


def test_per_column_lists_are_split_on_first_access_only(monkeypatch):
    """Set-up needs the ``(ptr, idx)`` arrays, not the per-column lists they split into."""
    import repro.compiler.sympiler as sympiler_module
    import repro.symbolic.inspector as inspector_module
    from repro.compiler.cache import ArtifactCache
    from repro.compiler.options import SympilerOptions
    from repro.solvers.linear_solver import SparseLinearSolver
    from repro.sparse.generators import laplacian_2d, unsymmetric_diag_dominant

    calls = []
    split_rows = inspector_module.split_rows
    monkeypatch.setattr(inspector_module, "split_rows", lambda *a: calls.append(1) or split_rows(*a))
    monkeypatch.setattr(sympiler_module, "_SHARED_CACHE", ArtifactCache())
    for backend in ("c", "python"):
        SparseLinearSolver(laplacian_2d(60), options=SympilerOptions(backend=backend))
    assert calls == []

    chol = CholeskyInspector().inspect(laplacian_2d(12))
    rows = [chol.row_idx[chol.row_ptr[j] : chol.row_ptr[j + 1]] for j in range(chol.n)]
    assert len(chol.row_patterns) == len(rows)
    assert all(np.array_equal(got, want) for got, want in zip(chol.row_patterns, rows))
    assert chol.prune_set().payload is chol.row_patterns and len(calls) == 1

    lu = LUInspector().inspect(unsymmetric_diag_dominant(40, seed=2))
    upper = [lu.u_indices[lu.u_indptr[j] : lu.u_indptr[j + 1] - 1] for j in range(lu.n)]
    assert all(np.array_equal(got, want) for got, want in zip(lu.upper_patterns, upper))
    assert len(lu.upper_patterns) == lu.n
    assert lu.prune_set().payload is lu.upper_patterns and len(calls) == 2
