"""End-to-end tests of the LU kernel (symbolic, factors, backends, solver)."""

import numpy as np
import pytest
import scipy.sparse.linalg

from repro.compiler.cache import ArtifactCache
from repro.compiler.codegen.c_backend import CCompilationError, c_compiler_available
from repro.compiler.options import SympilerOptions
from repro.compiler.sympiler import Sympiler
from repro.solvers.linear_solver import SparseLinearSolver
from repro.solvers.newton import newton_raphson_fixed_pattern
from repro.sparse.csc import CSCMatrix
from repro.sparse.generators import unsymmetric_diag_dominant
from repro.symbolic.inspector import LUInspectionResult, above_diagonal, inspect_lu

import oracles

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


def _jacobian(n=50, seed=7):
    return unsymmetric_diag_dominant(n, seed=seed)


def _factorize(A, backend):
    """The compiled LU factors of ``A`` on ``backend``."""
    options = _c_options() if backend == "c" else SympilerOptions(backend="python")
    return _fresh_sympiler().compile("lu", A, options=options).factorize(A)


class TestSymbolicLU:
    def test_predicted_patterns_cover_dense_factors(self):
        A = _jacobian(45, seed=2)
        insp = inspect_lu(A)
        L_ref, U_ref = oracles.lu(A)
        # Every numeric nonzero of the no-pivot factors lies inside the
        # predicted pattern (the prediction is exact up to cancellation).
        lp = insp.l_pattern_matrix()
        up = insp.u_pattern_matrix()
        l_pred = np.zeros_like(L_ref, dtype=bool)
        u_pred = np.zeros_like(U_ref, dtype=bool)
        for j in range(A.n):
            l_pred[lp.col_rows(j), j] = True
            u_pred[up.col_rows(j), j] = True
        assert np.all(l_pred[np.abs(L_ref) > 1e-12])
        assert np.all(u_pred[np.abs(U_ref) > 1e-12])

    def test_inspection_shapes_and_sets(self):
        A = _jacobian(30, seed=3)
        insp = inspect_lu(A)
        assert isinstance(insp, LUInspectionResult)
        assert insp.factor_nnz == insp.l_nnz + insp.u_nnz
        # Unit diagonal first in L, pivot last in U, for every column.
        np.testing.assert_array_equal(
            insp.l_indices[insp.l_indptr[:-1]], np.arange(A.n)
        )
        np.testing.assert_array_equal(
            insp.u_indices[insp.u_indptr[1:] - 1], np.arange(A.n)
        )
        # The prune-set of column j (Table 1): the rows of U above its pivot.
        ptr, idx = above_diagonal(insp.u_indptr, insp.u_indices)
        assert ptr[-1] == idx.size == insp.u_nnz - A.n
        assert all(np.all(idx[ptr[j] : ptr[j + 1]] < j) for j in range(A.n))
        # No tree and no supernodes: nothing reads them for a no-pivot LU.
        assert not any(hasattr(insp, name) for name in ("parent", "post", "l_col_counts", "supernodes"))
        assert insp.symbolic_seconds >= 0.0

    def test_rejects_non_square(self):
        A = CSCMatrix.from_dense(np.ones((2, 3)))
        with pytest.raises(ValueError, match="square"):
            inspect_lu(A)


@pytest.mark.parametrize("backend", ["python", pytest.param("c", marks=needs_cc)])
class TestFactors:
    def test_matches_dense_lu_without_pivoting(self, backend):
        A = _jacobian(40, seed=4)
        fac = _factorize(A, backend)
        L_ref, U_ref = oracles.lu(A)
        np.testing.assert_allclose(fac.L.to_dense(), L_ref, atol=1e-9)
        np.testing.assert_allclose(fac.U.to_dense(), U_ref, atol=1e-9)

    def test_reconstruction_and_unit_diagonal(self, backend):
        A = _jacobian(55, seed=5)
        fac = _factorize(A, backend)
        np.testing.assert_allclose(fac.reconstruct_dense(), A.to_dense(), atol=1e-9)
        np.testing.assert_allclose(fac.L.data[fac.L.indptr[:-1]], 1.0)
        assert fac.L.is_lower_triangular()
        assert fac.U.transpose().is_lower_triangular()

    def test_factors_solve_matches_splu(self, rng, backend):
        A = _jacobian(60, seed=6)
        fac = _factorize(A, backend)
        b = rng.normal(size=A.n)
        x = oracles.solve_with(fac, b)
        x_ref = scipy.sparse.linalg.splu(A.to_scipy().tocsc()).solve(b)
        np.testing.assert_allclose(x, x_ref, atol=1e-8)

    def test_pivots_property(self, backend):
        A = _jacobian(25, seed=8)
        fac = _factorize(A, backend)
        np.testing.assert_allclose(fac.pivots, np.diag(fac.U.to_dense()))
        assert np.all(fac.pivots != 0.0)


class TestCompiledLUPython:
    def test_matches_reference(self):
        sym = _fresh_sympiler()
        for seed in (10, 11):
            A = _jacobian(48, seed=seed)
            compiled = sym.compile("lu", A)
            fac = compiled.factorize(A)
            L_ref, U_ref = oracles.lu(A)
            np.testing.assert_allclose(fac.L.to_dense(), L_ref, atol=1e-9)
            np.testing.assert_allclose(fac.U.to_dense(), U_ref, atol=1e-9)

    def test_reconstruction_against_scipy_splu(self, rng):
        # Acceptance criterion: residual and ||L U - A|| within 1e-8.
        A = _jacobian(64, seed=12)
        compiled = _fresh_sympiler().compile("lu", A)
        fac = compiled.factorize(A)
        assert np.abs(fac.reconstruct_dense() - A.to_dense()).max() <= 1e-8
        b = rng.normal(size=A.n)
        x_ref = scipy.sparse.linalg.splu(A.to_scipy().tocsc()).solve(b)
        np.testing.assert_allclose(oracles.solve_with(fac, b), x_ref, atol=1e-8)

    def test_vi_prune_is_forced(self):
        compiled = _fresh_sympiler().compile(
            "lu", _jacobian(20, seed=13), options=SympilerOptions.baseline().with_updates(backend="python")
        )
        assert compiled.decisions.get("vi-prune-forced") is True
        assert "vi-prune" in compiled.applied_transformations

    def test_vs_block_is_not_considered(self):
        compiled = _fresh_sympiler().compile("lu", _jacobian(30, seed=14))
        assert "vs-block" not in compiled.decisions
        assert "vs-block" not in compiled.applied_transformations

    def test_refactorization_with_new_values(self):
        A = _jacobian(36, seed=15)
        compiled = _fresh_sympiler().compile("lu", A)
        fac1 = compiled.factorize(A)
        A2 = A.copy()
        A2.data *= 3.0
        fac2 = compiled.factorize(A2)
        # L is scale invariant; U absorbs the scaling.
        np.testing.assert_allclose(fac2.L.to_dense(), fac1.L.to_dense(), atol=1e-9)
        np.testing.assert_allclose(fac2.U.to_dense(), 3.0 * fac1.U.to_dense(), atol=1e-9)

    def test_singular_matrix_raises(self):
        A = CSCMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 1.0]]))
        compiled = _fresh_sympiler().compile("lu", A)
        with pytest.raises(ValueError, match="pivot"):
            compiled.factorize(A)

    def test_generated_source_is_numeric_only(self):
        compiled = _fresh_sympiler().compile("lu", _jacobian(24, seed=16))
        assert compiled.source.startswith("def simplicial_lu(T, Ap, Ai, Ax):")
        # The U pattern and every update position are tables of the block.
        for name in ("_C_u_indptr", "_C_u_indices", "_C_prune_ptr", "_C_update_pos"):
            assert name in compiled.constants and name in compiled.source


@needs_cc
class TestCompiledLUC:
    def test_matches_python_backend(self):
        A = _jacobian(52, seed=20)
        sym = _fresh_sympiler()
        fac_c = sym.compile("lu", A, options=_c_options()).factorize(A)
        fac_py = sym.compile("lu", A, options=SympilerOptions(backend="python")).factorize(A)
        np.testing.assert_array_equal(fac_c.L.data, fac_py.L.data)
        np.testing.assert_array_equal(fac_c.U.data, fac_py.U.data)

    def test_reconstruction_against_scipy_splu_c_backend(self, rng):
        # Acceptance criterion on the C backend as well.
        A = _jacobian(64, seed=21)
        fac = _fresh_sympiler().compile("lu", A, options=_c_options()).factorize(A)
        assert np.abs(fac.reconstruct_dense() - A.to_dense()).max() <= 1e-8
        b = rng.normal(size=A.n)
        x_ref = scipy.sparse.linalg.splu(A.to_scipy().tocsc()).solve(b)
        np.testing.assert_allclose(oracles.solve_with(fac, b), x_ref, atol=1e-8)

    def test_singular_matrix_returns_error(self):
        A = CSCMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 1.0]]))
        compiled = _fresh_sympiler().compile("lu", A, options=_c_options())
        with pytest.raises(ValueError, match="pivot"):
            compiled.factorize(A)

    def test_solver_residual_c_backend(self, rng):
        A = _jacobian(70, seed=22)
        solver = SparseLinearSolver(A, method="lu", options=_c_options())
        b = rng.normal(size=A.n)
        assert solver.residual(solver.solve(b), b) <= 1e-8


class TestLUSolver:
    @pytest.mark.parametrize("ordering", ["natural", "mindeg", "rcm"])
    def test_unsymmetric_system_residual(self, ordering, rng):
        A = _jacobian(75, seed=30)
        solver = SparseLinearSolver(A, method="lu", ordering=ordering)
        b = rng.normal(size=A.n)
        x = solver.solve(b)
        assert solver.residual(x, b) <= 1e-8

    def test_solution_matches_splu(self, rng):
        A = _jacobian(66, seed=31)
        solver = SparseLinearSolver(A, method="lu")
        b = rng.normal(size=A.n)
        x_ref = scipy.sparse.linalg.splu(A.to_scipy().tocsc()).solve(b)
        np.testing.assert_allclose(solver.solve(b), x_ref, atol=1e-8)

    def test_accepts_unsymmetric_pattern(self):
        A = _jacobian(40, seed=32)
        assert not A.pattern_equal(A.transpose())
        solver = SparseLinearSolver(A, method="lu")
        assert solver.U is not None and solver.d is None
        assert solver.L.is_lower_triangular() and solver.U.transpose().is_lower_triangular()

    def test_an_old_alias_is_an_unknown_method(self):
        with pytest.raises(ValueError, match="unknown factorization method 'gp-lu'"):
            SparseLinearSolver(_jacobian(30, seed=33), method="gp-lu")

    def test_refactorization_reuses_kernels(self):
        A = _jacobian(44, seed=34)
        solver = SparseLinearSolver(A, method="lu")
        lookups_after_setup = solver.artifact_cache.stats.lookups
        A2 = A.copy()
        A2.data *= 2.5
        solver.factorize(A2)
        # Refactorization on the same pattern triggers no compiles at all.
        assert solver.artifact_cache.stats.lookups == lookups_after_setup
        b = np.ones(A.n)
        assert solver.residual(solver.solve(b), b) <= 1e-8

    def test_solve_many(self, rng):
        A = _jacobian(28, seed=35)
        solver = SparseLinearSolver(A, method="lu")
        B = rng.normal(size=(A.n, 3))
        X = solver.solve_many(B)
        for k in range(3):
            assert solver.residual(X[:, k], B[:, k]) <= 1e-8

    def test_newton_with_lu_jacobian(self):
        # A mildly nonlinear system whose Jacobian keeps the fixed pattern of
        # an unsymmetric diagonally dominant base matrix.
        A = _jacobian(24, seed=36)
        dense = A.to_dense()

        def residual_fn(x):
            return dense @ x + 0.01 * x**3 - 1.0

        def jacobian_fn(x):
            J = A.copy()
            # The diagonal entries absorb the nonlinear term's derivative.
            diag_positions = []
            for j in range(A.n):
                rows = J.col_rows(j)
                diag_positions.append(J.indptr[j] + int(np.searchsorted(rows, j)))
            J.data[diag_positions] += 0.03 * x**2
            return J

        result = newton_raphson_fixed_pattern(
            residual_fn, jacobian_fn, np.zeros(A.n), method="lu", tol=1e-10
        )
        assert result.converged
        assert result.factorizations >= 1
        np.testing.assert_allclose(residual_fn(result.x), 0.0, atol=1e-9)


class TestWithoutAToolchain:
    """A compiler that is not there is an error naming it, never a python-backend compile."""

    def test_a_missing_cc_raises_naming_it(self):
        options = SympilerOptions(backend="c", c_compiler="/nonexistent/lu-test-cc")
        with pytest.raises(CCompilationError, match="'/nonexistent/lu-test-cc' not found"):
            _fresh_sympiler().compile("lu", _jacobian(18, seed=40), options=options)

    def test_repro_cc_env_controls_default_compiler(self, fresh_loader):
        fresh_loader("/nonexistent/env-cc")
        options = SympilerOptions(backend="c")
        assert options.c_compiler == "/nonexistent/env-cc"
        with pytest.raises(CCompilationError, match="'/nonexistent/env-cc' not found.*REPRO_CC"):
            _fresh_sympiler().compile("lu", _jacobian(12, seed=41), options=options)


#: Unsymmetric patterns of several sizes and densities, ``(n, avg_nnz_per_col, seed)``.
JACOBIANS = [(20, 2.0, 30), (35, 3.0, 31), (50, 4.0, 32), (64, 5.0, 33), (80, 2.5, 34), (45, 6.0, 35)]


@pytest.mark.parametrize("backend", ["python", pytest.param("c", marks=needs_cc)])
class TestEveryPattern:
    """LU factors and inspection, without any tree, on unsymmetric and SPD patterns alike."""

    @staticmethod
    def _check(A, backend):
        options = _c_options() if backend == "c" else SympilerOptions(backend="python")
        compiled = _fresh_sympiler().compile("lu", A, options=options)
        insp = compiled.inspection
        assert not any(hasattr(insp, name) for name in ("parent", "post", "l_col_counts", "supernodes"))
        assert "vs-block" not in compiled.decisions
        assert compiled.applied_transformations == ["vi-prune"]
        fac = compiled.factorize(A)
        L_ref, U_ref = oracles.lu(A)
        scale = np.abs(A.to_dense()).max()
        np.testing.assert_allclose(fac.L.to_dense(), L_ref, rtol=1e-9, atol=1e-11)
        np.testing.assert_allclose(fac.U.to_dense(), U_ref, rtol=1e-9, atol=1e-11 * scale)
        # The factors are stored on the inspected patterns, nothing more.
        assert fac.L.pattern_equal(insp.l_pattern_matrix())
        assert fac.U.pattern_equal(insp.u_pattern_matrix())

    @pytest.mark.parametrize("n, avg, seed", JACOBIANS)
    def test_unsymmetric(self, n, avg, seed, backend):
        self._check(unsymmetric_diag_dominant(n, avg_nnz_per_col=avg, seed=seed), backend)

    def test_spd(self, spd_matrix, backend):
        self._check(spd_matrix, backend)
