"""End-to-end tests of the Sympiler driver API (default options)."""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import repro.compiler.sympiler as sympiler_module
from repro.baselines.scipy_reference import reference_cholesky, reference_trisolve
from repro.compiler.artifacts import PatternMismatchError
from repro.compiler.cache import ArtifactCache
from repro.compiler.codegen.c_backend import CCompilationError, c_compiler_available
from repro.compiler.options import SympilerOptions
from repro.compiler.sympiler import Sympiler
from repro.frontend import SpecializedSolver
from repro.sparse.csc import CSCMatrix
from repro.sparse.generators import laplacian_2d, saddle_point_indefinite, sparse_rhs
from repro.sparse.permutation import Permutation

import oracles
from oracles import lower_triangle

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

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
    """The default is C; a compiler that is not there is an error naming it."""

    def test_without_a_compiler_a_compile_raises_naming_it(self, fresh_loader):
        fresh_loader("/nonexistent/default-backend-cc")
        A = laplacian_2d(6)
        for kernel, backend in (("cholesky", "c"), ("ldlt", "c"), ("cholesky", "python")):
            with pytest.raises(CCompilationError, match="'/nonexistent/default-backend-cc' not found"):
                Sympiler(SympilerOptions(backend=backend), cache=ArtifactCache()).compile(kernel, A)

    @pytest.mark.skipif(not c_compiler_available(SympilerOptions().c_compiler), reason="no C compiler available")
    def test_with_a_compiler_the_default_runs_c(self):
        A = laplacian_2d(6)
        sym = Sympiler(cache=ArtifactCache())
        assert sym.compile("cholesky", A).backend == "c"
        assert sym.compile("cholesky", A, options=SympilerOptions(backend="python")).backend == "python"


#: A process without a toolchain: the front end's one route, then every compile.
_NO_TOOLCHAIN_SCRIPT = textwrap.dedent(
    """
    import json, warnings
    import numpy as np
    import repro
    from scipy.sparse.linalg import splu
    from repro.compiler.codegen.c_backend import CCompilationError
    from repro.frontend import SpecializedSolver

    A = repro.laplacian_2d(12, shift=0.1)
    S = A.to_scipy()
    b = np.ones(A.n)
    S2 = S.copy()
    S2.data = S.data * (1.0 + np.arange(S.nnz) / S.nnz)

    front = SpecializedSolver()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        answers = [
            (S, b, front.solve(S, b)),  # specializes
            (S, 2 * b, front.solve(S, 2 * b)),  # the same values: a value hit
            (S2, b, front.solve(S2, b)),  # new values: a refactorization
            (S2, b, front.solve(S2, b)),  # a value hit
            (S, b, front.solve(S, b)),  # back: a refactorization
            (S, b, repro.solve(S, b)),  # the default front end, its own first warning
        ]

        @repro.sympiled
        def system(scale):
            return S * scale, b

        system(1.0)
        system(3.0)

    def error(call):
        try:
            call()
        except CCompilationError as exc:
            return str(exc)
        return None

    pcg_front = SpecializedSolver()
    pcg_before = pcg_front.cache_info()
    pcg_errors = [error(lambda: pcg_front.solve(S, b, method="pcg")) for _ in range(2)]

    report = {
        "pcg": {"errors": pcg_errors, "before": pcg_before, "after": pcg_front.cache_info()},
        "residuals": [float(np.linalg.norm(M @ x - rhs) / np.linalg.norm(rhs)) for M, rhs, x in answers],
        "splu_bitwise": bool((answers[2][2] == splu(S2).solve(b)).all()),
        "warnings": [str(w.message) for w in caught],
        "info": front.cache_info(),
        "sympiled": system.cache_info(),
        "errors": {
            "SparseLinearSolver": error(lambda: repro.SparseLinearSolver(A)),
            "SparseLinearSolver(natural, python)": error(
                lambda: repro.SparseLinearSolver(
                    A, ordering="natural", options=repro.SympilerOptions(backend="python")
                )
            ),
            "Sympiler.compile": error(lambda: repro.Sympiler().compile("cholesky", A)),
            "Sympiler.compile(ic0)": error(lambda: repro.Sympiler().compile("ic0", A)),
            "BatchedSolver": error(lambda: repro.BatchedSolver(A)),
            "register_pattern": error(lambda: repro.SolverService().register_pattern(A)),
            "pcg": error(lambda: front.solve(S, b, method="pcg")),
        },
    }
    print(json.dumps(report))
    """
)


@pytest.fixture(scope="module")
def no_toolchain_report(tmp_path_factory):
    """What :data:`_NO_TOOLCHAIN_SCRIPT` reports under ``REPRO_CC=/nonexistent-cc``, in a fresh temp dir."""
    tmp = tmp_path_factory.mktemp("no-toolchain")
    env = dict(os.environ, REPRO_CC="/nonexistent-cc", TMPDIR=str(tmp), REPRO_SYMPILER_CACHE=str(tmp / "cache"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _NO_TOOLCHAIN_SCRIPT], capture_output=True, text=True, env=env, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


class TestWithoutAToolchain:
    """No C compiler: the front end answers every direct route through ``splu``; every compile raises."""

    def test_the_answers(self, no_toolchain_report):
        assert max(no_toolchain_report["residuals"]) <= 1e-10
        assert no_toolchain_report["splu_bitwise"]

    def test_the_route_and_the_counts(self, no_toolchain_report):
        info = no_toolchain_report["info"]
        assert info["methods"] == {"splu": 1}
        assert [entry["method"] for entry in info["entries"]] == ["splu"]
        assert (info["specializations"], info["structure_hits"]) == (1, 4)
        assert (info["value_hits"], info["refactorizations"]) == (2, 2)
        sympiled = no_toolchain_report["sympiled"]
        assert sympiled["methods"] == {"splu": 1}
        assert (sympiled["value_hits"], sympiled["refactorizations"]) == (0, 1)

    def test_one_warning_per_front_end_naming_the_compiler(self, no_toolchain_report):
        warned = no_toolchain_report["warnings"]
        # This front end, repro.solve's default one, the @sympiled one.
        assert len(warned) == 3
        for message in warned:
            assert "'/nonexistent-cc' not found" in message and "splu" in message

    def test_a_failing_pcg_compile_caches_nothing(self, no_toolchain_report):
        pcg = no_toolchain_report["pcg"]
        for message in pcg["errors"]:
            assert message is not None and "'/nonexistent-cc' not found" in message
        assert pcg["after"] == pcg["before"]

    def test_every_compile_raises_naming_the_compiler(self, no_toolchain_report):
        errors = no_toolchain_report["errors"]
        for name, message in errors.items():
            assert message is not None, f"{name} did not raise"
            assert "'/nonexistent-cc' not found" in message and "REPRO_CC" in message, name


class TestCompileTriangularSolve:
    def test_solve_matches_reference(self, lower_factors):
        sym = Sympiler()
        for L in lower_factors.values():
            b = sparse_rhs(L.n, density=0.04, seed=31)
            compiled = sym.compile("triangular-solve", L, rhs_pattern=np.nonzero(b)[0])
            np.testing.assert_allclose(
                compiled.solve(L, b), reference_trisolve(L, b), atol=1e-9
            )

    def test_dense_rhs_compilation(self, lower_factors, rng):
        L = lower_factors["fem"]
        compiled = Sympiler().compile("triangular-solve", L)
        b = rng.normal(size=L.n)
        np.testing.assert_allclose(compiled.solve(L, b), reference_trisolve(L, b), atol=1e-9)
        assert compiled.reach_size == L.n

    def test_reuse_across_value_changes(self, lower_factors):
        L = lower_factors["banded"]
        b = sparse_rhs(L.n, nnz=3, seed=5)
        compiled = Sympiler().compile("triangular-solve", L, rhs_pattern=np.nonzero(b)[0])
        L2 = L.copy()
        L2.data *= 2.0
        np.testing.assert_allclose(
            compiled.solve(L2, b), reference_trisolve(L2, b), atol=1e-9
        )

    def test_artifact_metadata(self, lower_factors):
        L = lower_factors["block"]
        b = sparse_rhs(L.n, nnz=2, seed=6)
        compiled = Sympiler().compile("triangular-solve", L, rhs_pattern=np.nonzero(b)[0])
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
        compiled = Sympiler().compile("triangular-solve", L, rhs_pattern=np.nonzero(b)[0])
        compiled.verify_pattern(L)
        with pytest.raises(PatternMismatchError):
            compiled.verify_pattern(other)

    def test_a_cold_compile_normalizes_the_rhs_pattern_once(self, lower_factors, monkeypatch):
        import repro.symbolic.inspector as inspector_module

        calls = []
        normalize = inspector_module.normalize_rhs_pattern

        def counted(n, rhs_pattern):
            calls.append(n)
            return normalize(n, rhs_pattern)

        monkeypatch.setattr(inspector_module, "normalize_rhs_pattern", counted)
        monkeypatch.setattr(sympiler_module, "normalize_rhs_pattern", counted)
        L = lower_factors["fem"]
        sym = Sympiler(SympilerOptions(backend="python"), cache=ArtifactCache())
        compiled = sym.compile("triangular-solve", L, rhs_pattern=[5, 1, 5])
        assert len(calls) == 1
        assert compiled.inspection.rhs_pattern.tolist() == [1, 5]
        # A direct caller of the inspector still gets a normalized pattern.
        direct = inspector_module.inspect_triangular_solve(L, rhs_pattern=[5, 1, 5])
        assert direct.rhs_pattern.tolist() == [1, 5]

    def test_solve_with_check_pattern(self, lower_factors):
        L = lower_factors["fem"]
        b = sparse_rhs(L.n, nnz=2, seed=8)
        compiled = Sympiler().compile("triangular-solve", L, rhs_pattern=np.nonzero(b)[0])
        np.testing.assert_allclose(
            compiled.solve(L, b, check_pattern=True), reference_trisolve(L, b), atol=1e-9
        )


class TestCompileCholesky:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("vs_block", [False, True], ids=["simplicial", "vs-block"])
    def test_factorize_matches_reference(self, spd_matrix, vs_block, backend):
        options = SympilerOptions(backend=backend, enable_vs_block=vs_block)
        compiled = Sympiler().compile("cholesky", spd_matrix, options=options)
        L = compiled.factorize(spd_matrix)
        np.testing.assert_array_equal(L.indices, compiled.inspection.l_indices)
        np.testing.assert_allclose(L.to_dense(), reference_cholesky(spd_matrix), atol=1e-9)
        np.testing.assert_allclose(L.to_dense() @ L.to_dense().T, spd_matrix.to_dense(), atol=1e-8)

    def test_factor_uses_predicted_pattern(self, spd_matrices):
        A = spd_matrices["fem"]
        compiled = Sympiler().compile("cholesky", A)
        L = compiled.factorize(A)
        np.testing.assert_array_equal(L.indptr, compiled.inspection.l_indptr)
        assert compiled.factor_nnz == L.nnz
        assert compiled.l_pattern.pattern_equal(L)

    def test_factorization_from_lower_storage(self, spd_matrices):
        A = spd_matrices["laplacian_2d"]
        lower = lower_triangle(A)
        L = Sympiler().compile("cholesky", lower).factorize(lower)
        np.testing.assert_allclose(L.to_dense(), reference_cholesky(A), atol=1e-9)

    def test_diagonal_matrix_factorization(self):
        A = CSCMatrix.from_dense(np.diag([4.0, 9.0, 16.0]))
        L = Sympiler().compile("cholesky", A).factorize(A)
        np.testing.assert_allclose(L.to_dense(), np.diag([2.0, 3.0, 4.0]))

    def test_indefinite_and_non_square_matrices_are_refused(self):
        A = CSCMatrix.from_dense(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(ValueError, match="not positive definite at column 1"):
            Sympiler().compile("cholesky", A).factorize(A)
        with pytest.raises(ValueError, match="square"):
            Sympiler().compile("cholesky", CSCMatrix.from_dense(np.ones((2, 3))))

    def test_refactorization_with_new_values(self, spd_matrices):
        A = spd_matrices["laplacian_2d"]
        compiled = Sympiler().compile("cholesky", A)
        L1 = compiled.factorize(A)
        L2 = compiled.factorize(A.with_values(9.0 * A.data))
        np.testing.assert_allclose(L2.to_dense(), 3.0 * L1.to_dense(), atol=1e-9)

    def test_vi_prune_is_forced_for_cholesky(self, spd_matrices):
        A = spd_matrices["circuit"]
        compiled = Sympiler().compile("cholesky", A, options=SympilerOptions.baseline())
        assert compiled.decisions.get("vi-prune-forced") is True
        L = compiled.factorize(A)
        np.testing.assert_allclose(L.to_dense(), reference_cholesky(A), atol=1e-9)

    def test_verify_pattern_detects_mismatch(self, spd_matrices):
        compiled = Sympiler().compile("cholesky", spd_matrices["fem"])
        with pytest.raises(PatternMismatchError):
            compiled.verify_pattern(spd_matrices["banded"])
        compiled.verify_pattern(spd_matrices["fem"])

    def test_transformation_reporting(self, spd_matrices):
        A = spd_matrices["block"]
        full = Sympiler().compile("cholesky", A, options=SympilerOptions())
        assert "vs-block" in full.applied_transformations
        simplicial = Sympiler().compile("cholesky", A, options=SympilerOptions(enable_vs_block=False))
        assert "vs-block" not in simplicial.applied_transformations

    def test_default_options_can_be_set_on_the_compiler(self, spd_matrices):
        sym = Sympiler(SympilerOptions(enable_vs_block=False))
        compiled = sym.compile("cholesky", spd_matrices["fem"])
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
        first = sym.compile("cholesky", A)
        assert (sym.cache.stats.hits, sym.cache.stats.misses) == (0, 1)
        second = sym.compile("cholesky", A)
        assert second is first
        assert second.timings is first.timings  # no timings re-incurred
        assert (sym.cache.stats.hits, sym.cache.stats.misses) == (1, 1)

    def test_every_kernel_is_cached(self, spd_matrices, lower_factors):
        sym = Sympiler(cache=ArtifactCache())
        A, L = spd_matrices["fem"], lower_factors["fem"]
        artifacts = [
            sym.compile("cholesky", A),
            sym.compile("ldlt", A),
            sym.compile("triangular-solve", L),
        ]
        again = [
            sym.compile("cholesky", A),
            sym.compile("ldlt", A),
            sym.compile("triangular-solve", L),
        ]
        for a, b in zip(artifacts, again):
            assert a is b
        assert sym.cache.stats.hits == 3 and sym.cache.stats.misses == 3

    def test_option_change_recompiles(self, spd_matrices):
        sym = Sympiler(cache=ArtifactCache())
        A = spd_matrices["fem"]
        full = sym.compile("cholesky", A, options=SympilerOptions())
        ablated = sym.compile("cholesky", A, options=SympilerOptions(enable_vs_block=False))
        assert ablated is not full
        assert sym.cache.stats.misses == 2


class TestOrderingIntegration:
    def test_compile_on_permuted_matrix(self):
        from repro.sparse.ordering import minimum_degree_ordering

        A = laplacian_2d(9)
        perm = minimum_degree_ordering(A)
        B = perm.symmetric_permute(A)
        compiled = Sympiler().compile("cholesky", B)
        L = compiled.factorize(B)
        np.testing.assert_allclose(L.to_dense(), reference_cholesky(B), atol=1e-9)
        # Fewer nonzeros than the natural-ordering factor on this mesh.
        natural = Sympiler().compile("cholesky", A)
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
        compiled = Sympiler().compile("triangular-solve", Lt_rev)
        z_rev = compiled.solve(Lt_rev, y[::-1].copy())
        z = z_rev[::-1]
        np.testing.assert_allclose(L.transpose().to_dense() @ z, y, atol=1e-8)
