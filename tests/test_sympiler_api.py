"""End-to-end tests of the Sympiler driver API (default options)."""

import warnings

import numpy as np
import pytest

import repro.compiler.sympiler as sympiler_module
from repro.baselines.scipy_reference import reference_cholesky, reference_trisolve
from repro.compiler.cache import ArtifactCache
from repro.compiler.codegen.c_backend import c_compiler_available
from repro.compiler.options import SympilerOptions
from repro.compiler.sympiler import PatternMismatchError, Sympiler
from repro.frontend import SpecializedSolver
from repro.sparse.csc import CSCMatrix
from repro.sparse.generators import laplacian_2d, saddle_point_indefinite, sparse_rhs
from repro.sparse.permutation import Permutation

import oracles
from oracles import lower_triangle

#: Both backends; the C one needs a compiler.
BACKENDS = [
    "python",
    pytest.param(
        "c",
        marks=pytest.mark.skipif(
            not c_compiler_available(SympilerOptions().c_compiler), reason="no C compiler available"
        ),
    ),
]


class TestDefaultBackend:
    """The default is C; the driver alone falls back to python, and the artifact says which ran."""

    def test_without_a_compiler_the_default_runs_python_after_one_warning(self, monkeypatch):
        monkeypatch.setenv("REPRO_CC", "/nonexistent/default-backend-cc")
        monkeypatch.setattr(sympiler_module, "_FALLBACK_WARNED", set())
        A = laplacian_2d(6)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            artifacts = [Sympiler(cache=ArtifactCache()).compile(kernel, A) for kernel in ("cholesky", "ldlt")]
        assert [artifact.backend for artifact in artifacts] == ["python", "python"]
        fallbacks = [w for w in caught if issubclass(w.category, RuntimeWarning) and "falling back" in str(w.message)]
        assert len(fallbacks) == 1
        np.testing.assert_allclose(artifacts[0].factorize(A).to_dense(), reference_cholesky(A), atol=1e-9)

    def test_the_front_end_passes_the_fallback_warning_on(self, monkeypatch):
        monkeypatch.setenv("REPRO_CC", "/nonexistent/front-end-cc")
        monkeypatch.setattr(sympiler_module, "_FALLBACK_WARNED", set())
        A = laplacian_2d(6, shift=0.1).to_scipy()
        b = np.ones(A.shape[0])
        with pytest.warns(RuntimeWarning, match="falling back"):
            x = SpecializedSolver().solve(A, b)
        np.testing.assert_allclose(A @ x, b, atol=1e-10)

    @pytest.mark.skipif(not c_compiler_available(SympilerOptions().c_compiler), reason="no C compiler available")
    def test_with_a_compiler_the_default_runs_c(self):
        A = laplacian_2d(6)
        sym = Sympiler(cache=ArtifactCache())
        assert sym.compile("cholesky", A).backend == "c"
        assert sym.compile("cholesky", A, options=SympilerOptions(backend="python")).backend == "python"


class TestCompileTriangularSolve:
    def test_solve_matches_reference(self, lower_factors):
        sym = Sympiler()
        for L in lower_factors.values():
            b = sparse_rhs(L.n, density=0.04, seed=31)
            compiled = sym.compile_triangular_solve(L, rhs_pattern=np.nonzero(b)[0])
            np.testing.assert_allclose(
                compiled.solve(L, b), reference_trisolve(L, b), atol=1e-9
            )

    def test_dense_rhs_compilation(self, lower_factors, rng):
        L = lower_factors["fem"]
        compiled = Sympiler().compile_triangular_solve(L)
        b = rng.normal(size=L.n)
        np.testing.assert_allclose(compiled.solve(L, b), reference_trisolve(L, b), atol=1e-9)
        assert compiled.reach_size == L.n

    def test_reuse_across_value_changes(self, lower_factors):
        L = lower_factors["banded"]
        b = sparse_rhs(L.n, nnz=3, seed=5)
        compiled = Sympiler().compile_triangular_solve(L, rhs_pattern=np.nonzero(b)[0])
        L2 = L.copy()
        L2.data *= 2.0
        np.testing.assert_allclose(
            compiled.solve(L2, b), reference_trisolve(L2, b), atol=1e-9
        )

    def test_artifact_metadata(self, lower_factors):
        L = lower_factors["block"]
        b = sparse_rhs(L.n, nnz=2, seed=6)
        compiled = Sympiler().compile_triangular_solve(L, rhs_pattern=np.nonzero(b)[0])
        assert "vi-prune" in compiled.applied_transformations
        assert compiled.timings.total >= 0.0
        assert compiled.symbolic_seconds == pytest.approx(compiled.timings.total)
        assert isinstance(compiled.source, str) and compiled.source
        assert compiled.constants
        assert "vs-block" in compiled.decisions

    def test_verify_pattern_detects_mismatch(self, lower_factors):
        L = lower_factors["fem"]
        other = lower_factors["banded"]
        b = sparse_rhs(L.n, nnz=2, seed=7)
        compiled = Sympiler().compile_triangular_solve(L, rhs_pattern=np.nonzero(b)[0])
        compiled.verify_pattern(L)
        with pytest.raises(PatternMismatchError):
            compiled.verify_pattern(other)

    def test_solve_with_check_pattern(self, lower_factors):
        L = lower_factors["fem"]
        b = sparse_rhs(L.n, nnz=2, seed=8)
        compiled = Sympiler().compile_triangular_solve(L, rhs_pattern=np.nonzero(b)[0])
        np.testing.assert_allclose(
            compiled.solve(L, b, check_pattern=True), reference_trisolve(L, b), atol=1e-9
        )


class TestCompileCholesky:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("vs_block", [False, True], ids=["simplicial", "vs-block"])
    def test_factorize_matches_reference(self, spd_matrix, vs_block, backend):
        options = SympilerOptions(backend=backend, enable_vs_block=vs_block)
        compiled = Sympiler().compile_cholesky(spd_matrix, options=options)
        L = compiled.factorize(spd_matrix)
        np.testing.assert_array_equal(L.indices, compiled.inspection.l_indices)
        np.testing.assert_allclose(L.to_dense(), reference_cholesky(spd_matrix), atol=1e-9)
        np.testing.assert_allclose(L.to_dense() @ L.to_dense().T, spd_matrix.to_dense(), atol=1e-8)

    def test_factor_uses_predicted_pattern(self, spd_matrices):
        A = spd_matrices["fem"]
        compiled = Sympiler().compile_cholesky(A)
        L = compiled.factorize(A)
        np.testing.assert_array_equal(L.indptr, compiled.inspection.l_indptr)
        assert compiled.factor_nnz == L.nnz
        assert compiled.l_pattern.pattern_equal(L)

    def test_factorization_from_lower_storage(self, spd_matrices):
        A = spd_matrices["laplacian_2d"]
        lower = lower_triangle(A)
        L = Sympiler().compile_cholesky(lower).factorize(lower)
        np.testing.assert_allclose(L.to_dense(), reference_cholesky(A), atol=1e-9)

    def test_diagonal_matrix_factorization(self):
        A = CSCMatrix.from_dense(np.diag([4.0, 9.0, 16.0]))
        L = Sympiler().compile_cholesky(A).factorize(A)
        np.testing.assert_allclose(L.to_dense(), np.diag([2.0, 3.0, 4.0]))

    def test_indefinite_and_non_square_matrices_are_refused(self):
        A = CSCMatrix.from_dense(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(ValueError, match="not positive definite at column 1"):
            Sympiler().compile_cholesky(A).factorize(A)
        with pytest.raises(ValueError, match="square"):
            Sympiler().compile_cholesky(CSCMatrix.from_dense(np.ones((2, 3))))

    def test_refactorization_with_new_values(self, spd_matrices):
        A = spd_matrices["laplacian_2d"]
        compiled = Sympiler().compile_cholesky(A)
        L1 = compiled.factorize(A)
        L2 = compiled.factorize(A.with_values(9.0 * A.data))
        np.testing.assert_allclose(L2.to_dense(), 3.0 * L1.to_dense(), atol=1e-9)

    def test_vi_prune_is_forced_for_cholesky(self, spd_matrices):
        A = spd_matrices["circuit"]
        compiled = Sympiler().compile_cholesky(A, options=SympilerOptions.baseline())
        assert compiled.decisions.get("vi-prune-forced") is True
        L = compiled.factorize(A)
        np.testing.assert_allclose(L.to_dense(), reference_cholesky(A), atol=1e-9)

    def test_verify_pattern_detects_mismatch(self, spd_matrices):
        compiled = Sympiler().compile_cholesky(spd_matrices["fem"])
        with pytest.raises(PatternMismatchError):
            compiled.verify_pattern(spd_matrices["banded"])
        compiled.verify_pattern(spd_matrices["fem"])

    def test_transformation_reporting(self, spd_matrices):
        A = spd_matrices["block"]
        full = Sympiler().compile_cholesky(A, options=SympilerOptions())
        assert "vs-block" in full.applied_transformations
        simplicial = Sympiler().compile_cholesky(A, options=SympilerOptions(enable_vs_block=False))
        assert "vs-block" not in simplicial.applied_transformations

    def test_default_options_can_be_set_on_the_compiler(self, spd_matrices):
        sym = Sympiler(SympilerOptions(enable_vs_block=False))
        compiled = sym.compile_cholesky(spd_matrices["fem"])
        assert compiled.options.enable_vs_block is False


class TestCompileLDLT:
    def test_factors_match_reference(self, spd_matrices):
        A = spd_matrices["fem"]
        compiled = Sympiler(cache=ArtifactCache()).compile("ldlt", A)
        fac = compiled.factorize(A)
        L, d = oracles.ldlt(A)
        np.testing.assert_allclose(fac.L.to_dense(), L, atol=1e-9)
        np.testing.assert_allclose(fac.d, d, atol=1e-9)

    def test_indefinite_input_is_accepted(self):
        A = saddle_point_indefinite(20, 8, seed=1)
        fac = Sympiler(cache=ArtifactCache()).compile("ldlt", A).factorize(A)
        np.testing.assert_allclose(fac.reconstruct_dense(), A.to_dense(), atol=1e-9)
        assert fac.inertia == (20, 8, 0)

    def test_artifact_metadata(self, spd_matrices):
        compiled = Sympiler(cache=ArtifactCache()).compile("ldlt", spd_matrices["block"])
        assert "vi-prune" in compiled.applied_transformations
        assert compiled.timings.total >= 0.0
        assert isinstance(compiled.source, str) and compiled.source
        assert compiled.factor_nnz == int(compiled.inspection.l_indptr[-1])


class TestArtifactCacheIntegration:
    """Acceptance: a repeat compile is a cache hit, not a recompile."""

    def test_identical_compile_reuses_artifact_and_timings(self, spd_matrices):
        sym = Sympiler(cache=ArtifactCache())
        A = spd_matrices["fem"]
        first = sym.compile_cholesky(A)
        assert (sym.cache_stats.hits, sym.cache_stats.misses) == (0, 1)
        second = sym.compile_cholesky(A)
        assert second is first
        assert second.timings is first.timings  # no timings re-incurred
        assert (sym.cache_stats.hits, sym.cache_stats.misses) == (1, 1)

    def test_every_kernel_is_cached(self, spd_matrices, lower_factors):
        sym = Sympiler(cache=ArtifactCache())
        A, L = spd_matrices["fem"], lower_factors["fem"]
        artifacts = [
            sym.compile_cholesky(A),
            sym.compile("ldlt", A),
            sym.compile_triangular_solve(L),
        ]
        again = [
            sym.compile_cholesky(A),
            sym.compile("ldlt", A),
            sym.compile_triangular_solve(L),
        ]
        for a, b in zip(artifacts, again):
            assert a is b
        assert sym.cache_stats.hits == 3 and sym.cache_stats.misses == 3

    def test_option_change_recompiles(self, spd_matrices):
        sym = Sympiler(cache=ArtifactCache())
        A = spd_matrices["fem"]
        full = sym.compile_cholesky(A, options=SympilerOptions())
        ablated = sym.compile_cholesky(A, options=SympilerOptions(enable_vs_block=False))
        assert ablated is not full
        assert sym.cache_stats.misses == 2


class TestOrderingIntegration:
    def test_compile_on_permuted_matrix(self):
        from repro.sparse.ordering import minimum_degree_ordering

        A = laplacian_2d(9)
        perm = minimum_degree_ordering(A)
        B = perm.symmetric_permute(A)
        compiled = Sympiler().compile_cholesky(B)
        L = compiled.factorize(B)
        np.testing.assert_allclose(L.to_dense(), reference_cholesky(B), atol=1e-9)
        # Fewer nonzeros than the natural-ordering factor on this mesh.
        natural = Sympiler().compile_cholesky(A)
        assert compiled.factor_nnz <= natural.factor_nnz

    def test_reverse_permutation_backward_solve(self, lower_factors, rng):
        # Solving L^T z = y through the reversed transposed factor, as the
        # high-level solver does.
        L = lower_factors["fem"]
        n = L.n
        reverse = Permutation(np.arange(n - 1, -1, -1, dtype=np.int64))
        Lt_rev = reverse.symmetric_permute(L.transpose())
        assert Lt_rev.is_lower_triangular()
        y = rng.normal(size=n)
        compiled = Sympiler().compile_triangular_solve(Lt_rev)
        z_rev = compiled.solve(Lt_rev, y[::-1].copy())
        z = z_rev[::-1]
        np.testing.assert_allclose(L.transpose().to_dense() @ z, y, atol=1e-8)
