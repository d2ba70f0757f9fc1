"""End-to-end tests of the IC(0)/ILU(0) preconditioner kernels.

Covers the symbolic layer (no-fill inspections + schedules), the reference
kernels, both code-generation backends, batches of value sets and the
artifact protocol — the whole registry extension of the incomplete kernels.
"""

import numpy as np
import pytest

from repro.compiler.cache import ArtifactCache
from repro.compiler.codegen.c_backend import c_compiler_available
from repro.compiler.options import SympilerOptions
from repro.compiler.registry import UnknownKernelError
from repro.compiler.sympiler import Sympiler
from repro.kernels.incomplete import ic0_left_looking, ilu0_left_looking
from repro.solvers.linear_solver import map_items
from repro.sparse.csc import CSCMatrix
from repro.sparse.generators import (
    banded_spd,
    fem_stencil_2d,
    laplacian_2d,
    unsymmetric_diag_dominant,
)
from repro.sparse.utils import lower_triangle, upper_triangle
from repro.symbolic.inspector import (
    IC0InspectionResult,
    IC0Inspector,
    ILU0InspectionResult,
    ILU0Inspector,
)
from repro.symbolic.levels import dependency_graph_from_column_deps

needs_cc = pytest.mark.skipif(
    not (c_compiler_available("cc") or c_compiler_available("gcc")),
    reason="no C compiler available",
)


def _c_options(**overrides):
    compiler = "cc" if c_compiler_available("cc") else "gcc"
    return SympilerOptions(backend="c", c_compiler=compiler, **overrides)


def _fresh_sympiler(options=SympilerOptions(backend="python")):
    """A python-backend driver with an isolated cache; a compile's own ``options=`` wins."""
    return Sympiler(options, cache=ArtifactCache())


def _spd(n_side=10, shift=0.1):
    return laplacian_2d(n_side, shift=shift)


def _jacobian(n=48, seed=7):
    return unsymmetric_diag_dominant(n, seed=seed)


def _pattern_residual(dense_factor_product, A):
    """Max |(factor product - A)| over the stored entries of A."""
    dense_A = A.to_dense()
    mask = np.zeros_like(dense_A, dtype=bool)
    for j in range(A.n):
        mask[A.col_rows(j), j] = True
    return float(np.abs((dense_factor_product - dense_A)[mask]).max())


class TestSymbolicIC0:
    def test_factor_pattern_is_tril_of_a(self):
        A = _spd()
        insp = IC0Inspector().inspect(A)
        assert isinstance(insp, IC0InspectionResult)
        tril = lower_triangle(A)
        np.testing.assert_array_equal(insp.l_indptr, tril.indptr)
        np.testing.assert_array_equal(insp.l_indices, tril.indices)
        assert insp.factor_nnz == tril.nnz

    def test_row_patterns_are_update_sources(self):
        A = fem_stencil_2d(8, shift=0.25)
        insp = IC0Inspector().inspect(A)
        dense = A.to_dense() != 0
        for j in range(A.n):
            expected = [k for k in range(j) if dense[j, k]]
            np.testing.assert_array_equal(insp.row_patterns[j], expected)

    def test_schedule_is_valid_wavefront_partition(self):
        A = _spd(9)
        insp = IC0Inspector().inspect(A)
        dg = dependency_graph_from_column_deps(insp.n, insp.row_patterns)
        assert insp.schedule.validate_against(dg)
        assert insp.schedule.n_scheduled == A.n

    def test_missing_diagonal_raises(self):
        dense = np.array([[2.0, 0.0], [1.0, 0.0]])
        dense[1, 1] = 0.0  # structurally absent after from_dense
        A = CSCMatrix.from_dense(dense)
        with pytest.raises(ValueError, match="diagonal"):
            IC0Inspector().inspect(A)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            IC0Inspector().inspect(CSCMatrix.from_dense(np.ones((2, 3))))


class TestSymbolicILU0:
    def test_factor_patterns_are_triangles_of_a(self):
        A = _jacobian()
        insp = ILU0Inspector().inspect(A)
        assert isinstance(insp, ILU0InspectionResult)
        up = upper_triangle(A)
        np.testing.assert_array_equal(insp.u_indptr, up.indptr)
        np.testing.assert_array_equal(insp.u_indices, up.indices)
        # L: explicit unit diagonal first, then the strict lower rows of A.
        np.testing.assert_array_equal(
            insp.l_indices[insp.l_indptr[:-1]], np.arange(A.n)
        )
        strict = lower_triangle(A, strict=True)
        assert insp.l_nnz == strict.nnz + A.n
        assert insp.factor_nnz == insp.l_nnz + insp.u_nnz

    def test_diag_last_in_u_and_schedule_valid(self):
        A = _jacobian(40, seed=9)
        insp = ILU0Inspector().inspect(A)
        np.testing.assert_array_equal(
            insp.u_indices[insp.u_indptr[1:] - 1], np.arange(A.n)
        )
        deps = [
            insp.u_indices[insp.u_indptr[j] : insp.u_indptr[j + 1] - 1]
            for j in range(A.n)
        ]
        dg = dependency_graph_from_column_deps(insp.n, deps)
        assert insp.schedule.validate_against(dg)

    def test_missing_diagonal_raises(self):
        A = CSCMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(ValueError, match="diagonal"):
            ILU0Inspector().inspect(A)


class TestReferenceKernels:
    def test_ic0_exact_on_pattern(self):
        A = _spd(11)
        L = ic0_left_looking(A).to_dense()
        assert _pattern_residual(L @ L.T, A) < 1e-12

    def test_ic0_equals_exact_cholesky_when_no_fill(self):
        # A banded SPD matrix with bandwidth 1 factors without fill.
        A = banded_spd(25, 1, seed=3)
        from repro.baselines.scipy_reference import reference_cholesky

        np.testing.assert_allclose(
            ic0_left_looking(A).to_dense(), reference_cholesky(A), atol=1e-9
        )

    def test_ilu0_exact_on_pattern_and_unit_diagonal(self):
        A = _jacobian(52, seed=11)
        fac = ilu0_left_looking(A)
        assert _pattern_residual(fac.L.to_dense() @ fac.U.to_dense(), A) < 1e-10
        np.testing.assert_allclose(fac.L.data[fac.L.indptr[:-1]], 1.0)
        assert fac.L.is_lower_triangular()
        assert fac.U.is_upper_triangular()

    def test_ilu0_equals_exact_lu_when_no_fill(self):
        # A tridiagonal-ish unsymmetric matrix: LU of a banded matrix with
        # dense band has no fill, so ILU(0) equals the complete LU.
        n = 20
        dense = np.diag(np.full(n, 4.0)) + np.diag(np.full(n - 1, -1.0), -1) + np.diag(
            np.full(n - 1, -2.0), 1
        )
        A = CSCMatrix.from_dense(dense)
        fac = ilu0_left_looking(A)
        from repro.kernels.lu import lu_left_looking

        ref = lu_left_looking(A)
        np.testing.assert_allclose(fac.L.to_dense(), ref.L.to_dense(), atol=1e-12)
        np.testing.assert_allclose(fac.U.to_dense(), ref.U.to_dense(), atol=1e-12)

    def test_ic0_breakdown_raises(self):
        dense = np.array([[1.0, 2.0], [2.0, 1.0]])  # not SPD: second pivot < 0
        A = CSCMatrix.from_dense(dense)
        with pytest.raises(ValueError, match="IC\\(0\\) breakdown"):
            ic0_left_looking(A)

    def test_ilu0_zero_pivot_raises(self):
        dense = np.array([[1.0, 1.0], [1.0, 1.0]])  # second pivot cancels to 0
        A = CSCMatrix.from_dense(dense)
        with pytest.raises(ValueError, match="ILU\\(0\\) breakdown"):
            ilu0_left_looking(A)


class TestCompiledIC0Python:
    def test_bitwise_matches_interpreted(self):
        sym = _fresh_sympiler()
        for A in (_spd(), fem_stencil_2d(9, shift=0.25), banded_spd(30, 2, seed=4)):
            compiled = sym.compile("ic0", A)
            L = compiled.factorize(A)
            L_ref = ic0_left_looking(A)
            assert np.array_equal(L.data, L_ref.data)
            assert L.pattern_equal(lower_triangle(A))

    def test_kernel_is_incomplete_factor_loop(self):
        compiled = _fresh_sympiler().compile("ic0", _spd(6))
        loop = compiled.loop
        assert loop.role == "incomplete-cholesky" and loop.factor_kind == "ic0"
        # The scatter arrays are tables of the block — no runtime pattern work.
        for name in ("a_lower_pos", "prune_ptr", "mult_pos", "l_scat_ptr"):
            assert np.array_equal(compiled.constants[f"_C_{name}"], loop.contract[1][name])

    def test_vi_prune_is_forced_and_vs_block_defers(self):
        compiled = _fresh_sympiler().compile(
            "ic0", _spd(6), options=SympilerOptions.baseline().with_updates(backend="python")
        )
        assert compiled.decisions.get("vi-prune-forced") is True
        assert "vi-prune" in compiled.applied_transformations
        decision = _fresh_sympiler().compile("ic0", _spd(7)).decisions.get("vs-block")
        assert decision is not None and decision["factor_kind"] == "ic0"
        assert "deferred" in decision

    def test_breakdown_message_matches_interpreted(self):
        dense = np.array([[1.0, 2.0], [2.0, 1.0]])
        A = CSCMatrix.from_dense(dense)
        compiled = _fresh_sympiler().compile("ic0", A)
        with pytest.raises(ValueError, match="non-positive pivot at column 1"):
            compiled.factorize(A)

    def test_refactorization_with_new_values(self):
        A = _spd(8)
        compiled = _fresh_sympiler().compile("ic0", A)
        L1 = compiled.factorize(A)
        A2 = A.with_values(A.data * 4.0)
        L2 = compiled.factorize(A2)
        np.testing.assert_allclose(L2.data, 2.0 * L1.data, atol=1e-12)

    def test_the_long_name_is_not_a_kernel(self):
        with pytest.raises(UnknownKernelError, match="incomplete-cholesky"):
            _fresh_sympiler().compile("incomplete-cholesky", _spd(5))


class TestCompiledILU0Python:
    def test_matches_reference_bitwise(self):
        sym = _fresh_sympiler()
        for seed in (10, 11):
            A = _jacobian(44, seed=seed)
            fac = sym.compile("ilu0", A).factorize(A)
            ref = ilu0_left_looking(A)
            assert np.array_equal(fac.L.data, ref.L.data)
            assert np.array_equal(fac.U.data, ref.U.data)

    def test_exact_on_pattern(self):
        A = _jacobian(56, seed=12)
        fac = _fresh_sympiler().compile("ilu0", A).factorize(A)
        assert _pattern_residual(fac.L.to_dense() @ fac.U.to_dense(), A) < 1e-10

    def test_zero_pivot_raises(self):
        A = CSCMatrix.from_dense(np.array([[1.0, 1.0], [1.0, 1.0]]))
        compiled = _fresh_sympiler().compile("ilu0", A)
        with pytest.raises(ValueError, match="zero pivot"):
            compiled.factorize(A)

    def test_u_pattern_property(self):
        sym = _fresh_sympiler()
        A = _jacobian(30, seed=13)
        compiled = sym.compile("ilu0", A)
        assert compiled.u_pattern.pattern_equal(upper_triangle(A))
        assert sym.compile("ilu0", A) is compiled
        with pytest.raises(UnknownKernelError, match="incomplete-lu"):
            sym.compile("incomplete-lu", A)


@needs_cc
class TestCompiledIncompleteC:
    def test_ic0_close_to_python_backend(self):
        A = _spd(10)
        sym = _fresh_sympiler()
        Lc = sym.compile("ic0", A, options=_c_options()).factorize(A)
        Lp = sym.compile("ic0", A, options=SympilerOptions(backend="python")).factorize(A)
        np.testing.assert_array_equal(Lc.data, Lp.data)

    def test_ilu0_close_to_python_backend(self):
        A = _jacobian(48, seed=20)
        sym = _fresh_sympiler()
        fc = sym.compile("ilu0", A, options=_c_options()).factorize(A)
        fp = sym.compile("ilu0", A, options=SympilerOptions(backend="python")).factorize(A)
        np.testing.assert_array_equal(fc.L.data, fp.L.data)
        np.testing.assert_array_equal(fc.U.data, fp.U.data)

    def test_c_breakdown_status_becomes_value_error(self):
        A = CSCMatrix.from_dense(np.array([[1.0, 2.0], [2.0, 1.0]]))
        compiled = _fresh_sympiler().compile("ic0", A, options=_c_options())
        with pytest.raises(ValueError, match="IC\\(0\\) breakdown"):
            compiled.factorize(A)


class TestBatchIncomplete:
    @pytest.mark.parametrize("backend", ["python", pytest.param("c", marks=needs_cc)])
    def test_ic0_batch_isolates_breakdown(self, backend):
        A = _spd(6)
        options = _c_options() if backend == "c" else SympilerOptions(backend="python")
        artifact = _fresh_sympiler().compile("ic0", A, options=options)
        good = A.data.copy()
        bad = A.data.copy()
        bad[A.indptr[0]] = -5.0  # non-positive first pivot
        results, errors = map_items(
            lambda ax: artifact.factorize_arrays(A.indptr, A.indices, ax),
            [good, bad, good],
            artifact=artifact,
            num_threads=2,
        )
        assert [error is None for error in errors] == [True, False, True]
        assert "IC(0) breakdown" in str(errors[1])
        assert results[1] is None
        assert np.array_equal(
            results[0], artifact.factorize_arrays(A.indptr, A.indices, good)
        )


class TestArtifactsAndCache:
    def test_recompile_is_cache_hit_and_schedule_cached(self):
        sym = _fresh_sympiler()
        A = _spd(8)
        first = sym.compile("ic0", A)
        hits = sym.cache_stats.hits
        assert sym.compile("ic0", A) is first
        assert sym.cache_stats.hits == hits + 1
        assert first.schedule.n_scheduled == A.n

    def test_pattern_mismatch_detected(self):
        from repro.compiler.artifacts import PatternMismatchError

        sym = _fresh_sympiler()
        compiled = sym.compile("ic0", _spd(8))
        other = _spd(9)
        with pytest.raises(PatternMismatchError):
            compiled.factorize(other, check_pattern=True)

    def test_is_incomplete_flags(self):
        from repro.compiler.artifacts import (
            SympiledCholesky,
            SympiledIC0,
            SympiledILU0,
            SympiledLU,
        )

        assert SympiledIC0.is_incomplete and SympiledILU0.is_incomplete
        assert not SympiledCholesky.is_incomplete and not SympiledLU.is_incomplete

    def test_generated_source_is_numeric_only(self):
        compiled = _fresh_sympiler().compile("ic0", _spd(6))
        assert compiled.source.startswith("def ic0(T, Ap, Ai, Ax):")
        assert "searchsorted" not in compiled.source  # no runtime pattern work
        ilu = _fresh_sympiler().compile("ilu0", _jacobian(20, seed=30))
        for name in ("_C_u_indptr", "_C_u_scat_ptr", "_C_a_upper_pos", "_C_mult_pos"):
            assert name in ilu.constants and name in ilu.source
