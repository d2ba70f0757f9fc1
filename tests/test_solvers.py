"""Tests for the application-level solvers."""

import numpy as np
import pytest

from repro.compiler.codegen.c_backend import c_compiler_available
from repro.compiler.options import SympilerOptions
from repro.compiler.sympiler import Sympiler
from repro.solvers.cg import preconditioned_conjugate_gradient
from repro.solvers.linear_solver import SparseLinearSolver
from repro.solvers.newton import newton_raphson_fixed_pattern
from repro.baselines.scipy_reference import reference_cholesky
from repro.sparse.coo import TripletBuilder
from repro.sparse.csc import CSCMatrix
from repro.sparse.generators import banded_spd, laplacian_2d, power_grid_spd

import oracles
from oracles import lower_triangle, reference_solve

needs_cc = pytest.mark.skipif(not c_compiler_available("cc"), reason="no C compiler available")

#: Both backends of the compiled ic0 kernel; the C one needs a compiler.
BACKENDS = ["python", pytest.param("c", marks=needs_cc)]


def _compiled_ic0(A, backend):
    """The compiled IC(0) factor of ``A`` on ``backend``."""
    return Sympiler(SympilerOptions(backend=backend)).compile("ic0", A).factorize(A)


def _ic0_oracle_data(A, L, backend):
    """What ``L.data`` must equal bit for bit: the python backend's factor for C, the dense oracle's for python."""
    if backend == "c":
        return _compiled_ic0(A, "python").data
    return oracles.on_pattern(oracles.ic0(A), L)


class TestSparseLinearSolver:
    def test_solve_matches_reference(self, spd_matrix, rng):
        solver = SparseLinearSolver(spd_matrix, ordering="mindeg")
        x_true = rng.normal(size=spd_matrix.n)
        b = spd_matrix.matvec(x_true)
        x = solver.solve(b)
        np.testing.assert_allclose(x, x_true, atol=1e-7)
        assert solver.residual(x, b) < 1e-9

    @pytest.mark.parametrize("ordering", ["natural", "mindeg", "rcm"])
    def test_orderings(self, spd_matrices, ordering, rng):
        A = spd_matrices["laplacian_2d"]
        solver = SparseLinearSolver(A, ordering=ordering)
        b = rng.normal(size=A.n)
        np.testing.assert_allclose(solver.solve(b), reference_solve(A, b), atol=1e-7)

    def test_refactorize_with_new_values(self, spd_matrices, rng):
        A = spd_matrices["banded"]
        solver = SparseLinearSolver(A)
        b = rng.normal(size=A.n)
        x1 = solver.solve(b)
        A2 = A.with_values(2.0 * A.data)
        solver.factorize(A2)
        x2 = solver.solve(b)
        np.testing.assert_allclose(x2, x1 / 2.0, atol=1e-8)

    def test_refactorize_rejects_different_pattern(self, spd_matrices):
        solver = SparseLinearSolver(spd_matrices["fem"])
        with pytest.raises(ValueError):
            solver.factorize(spd_matrices["banded"])

    def test_solve_many(self, spd_matrices, rng):
        A = spd_matrices["circuit"]
        solver = SparseLinearSolver(A)
        B = rng.normal(size=(A.n, 3))
        X = solver.solve_many(B)
        for k in range(3):
            np.testing.assert_allclose(A.matvec(X[:, k]), B[:, k], atol=1e-7)

    def test_shape_validation(self, spd_matrices):
        solver = SparseLinearSolver(spd_matrices["fem"])
        with pytest.raises(ValueError):
            solver.solve(np.ones(3))
        with pytest.raises(ValueError):
            solver.solve_many(np.ones((3, 2)))
        with pytest.raises(ValueError):
            SparseLinearSolver(CSCMatrix.from_dense(np.ones((2, 3))))

    def test_factor_properties(self, spd_matrices):
        A = spd_matrices["laplacian_2d"]
        solver = SparseLinearSolver(A, ordering="natural")
        np.testing.assert_allclose(
            solver.L.to_dense(), reference_cholesky(A), atol=1e-8
        )
        assert solver.factor_nnz == solver.L.nnz
        assert solver.setup_seconds >= 0.0


@pytest.mark.parametrize("backend", BACKENDS)
class TestIncompleteCholesky:
    def test_ic0_equals_exact_factor_when_no_fill(self, backend):
        # A tridiagonal SPD matrix factors without fill, so IC(0) is exact.
        A = banded_spd(25, 1, seed=3)
        L = _compiled_ic0(A, backend)
        np.testing.assert_allclose(L.to_dense(), reference_cholesky(A), atol=1e-9)

    def test_ic0_pattern_is_tril_of_a(self, spd_matrices, backend):
        A = spd_matrices["fem"]
        L = _compiled_ic0(A, backend)
        assert L.pattern_equal(lower_triangle(A))
        assert L.is_lower_triangular()

    def test_ic0_requires_square(self, backend):
        with pytest.raises(ValueError):
            _compiled_ic0(CSCMatrix.from_dense(np.ones((2, 3))), backend)


class TestConjugateGradient:
    def test_cg_converges_with_preconditioner(self, rng):
        A = laplacian_2d(12)
        x_true = rng.normal(size=A.n)
        b = A.matvec(x_true)
        result = preconditioned_conjugate_gradient(A, b, tol=1e-10)
        assert result.converged
        np.testing.assert_allclose(result.x, x_true, atol=1e-6)

    def test_preconditioner_reduces_iterations(self, rng):
        A = laplacian_2d(14)
        b = rng.normal(size=A.n)
        plain = preconditioned_conjugate_gradient(A, b, use_preconditioner=False, tol=1e-8)
        precond = preconditioned_conjugate_gradient(A, b, use_preconditioner=True, tol=1e-8)
        assert precond.converged
        assert precond.iterations <= plain.iterations

    def test_cg_residual_history_is_recorded(self, rng):
        A = power_grid_spd(60, seed=2)
        b = rng.normal(size=A.n)
        result = preconditioned_conjugate_gradient(A, b, tol=1e-9)
        assert len(result.residual_norms) >= result.iterations
        assert result.final_residual <= 1e-9

    def test_cg_max_iterations_cap(self, rng):
        A = laplacian_2d(10)
        b = rng.normal(size=A.n)
        result = preconditioned_conjugate_gradient(
            A, b, use_preconditioner=False, tol=1e-16, max_iterations=3
        )
        assert not result.converged
        assert result.iterations == 3

    @needs_cc
    @pytest.mark.parametrize("name", ["laplacian_2d", "banded_spd"])
    def test_pcg_through_the_ic0_solve_entry_converges_alike_on_both_backends(self, name):
        A = laplacian_2d(30) if name == "laplacian_2d" else banded_spd(400, 8, seed=3)
        b = np.sin(np.arange(A.n, dtype=np.float64)) + 1.0
        c, py = (
            preconditioned_conjugate_gradient(A, b, tol=1e-10, options=SympilerOptions(backend=backend))
            for backend in ("c", "python")
        )
        assert c.converged and c.final_residual <= 1e-10
        assert np.linalg.norm(A.matvec(c.x) - b) <= 1e-9 * np.linalg.norm(b)
        np.testing.assert_array_equal(c.x, py.x)
        assert c.residual_norms == py.residual_norms

    def test_pcg_compiles_the_ic0_module_alone(self, monkeypatch):
        compiled = []
        original = Sympiler.compile

        def record(self, kernel, *args, **kwargs):
            compiled.append(kernel)
            return original(self, kernel, *args, **kwargs)

        monkeypatch.setattr(Sympiler, "compile", record)
        A = laplacian_2d(9)
        result = preconditioned_conjugate_gradient(A, np.ones(A.n), options=SympilerOptions(backend="python"))
        assert result.converged
        assert compiled == ["ic0"]

    def test_cg_input_validation(self):
        A = laplacian_2d(4)
        with pytest.raises(ValueError):
            preconditioned_conjugate_gradient(A, np.ones(3))
        with pytest.raises(ValueError):
            preconditioned_conjugate_gradient(CSCMatrix.from_dense(np.ones((2, 3))), np.ones(3))


class TestConjugateGradientEdgeCases:
    """Breakdown, bad diagonals, history reporting and compiled-vs-oracle (bitwise)."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_ic0_breakdown_on_non_spd_input(self, backend):
        # Indefinite: the second pivot of the (complete = incomplete here)
        # factorization is negative, so IC(0) must refuse, on both paths.
        A = CSCMatrix.from_dense(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(ValueError, match="non-positive pivot at column 1"):
            oracles.ic0(A)
        with pytest.raises(ValueError, match="non-positive pivot at column 1"):
            _compiled_ic0(A, backend)
        with pytest.raises(ValueError, match="non-positive pivot"):
            preconditioned_conjugate_gradient(A, np.ones(2), options=SympilerOptions(backend=backend))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_ic0_zero_diagonal_breaks_down(self, backend):
        # A stored-but-zero diagonal entry is a non-positive pivot (distinct
        # from the structurally-missing-diagonal error).
        A = CSCMatrix.from_dense(np.array([[1e-300, 1.0], [1.0, 2.0]]))
        A0 = A.with_values(np.array([0.0, 1.0, 1.0, 2.0]))
        with pytest.raises(ValueError, match="non-positive pivot at column 0"):
            oracles.ic0(A0)
        with pytest.raises(ValueError, match="non-positive pivot at column 0"):
            _compiled_ic0(A0, backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_ic0_near_zero_diagonal_survives_but_amplifies(self, backend):
        # A tiny positive pivot is numerically legal for IC(0); the factor
        # simply carries a huge scaled column instead of erroring.
        A = CSCMatrix.from_dense(np.array([[1e-12, 1e-6], [1e-6, 2.0]]))
        L = _compiled_ic0(A, backend)
        assert np.isfinite(L.data).all()
        assert L.data[L.indptr[0]] == pytest.approx(1e-6)
        assert np.array_equal(L.data, _ic0_oracle_data(A, L, backend))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_ic0_missing_diagonal_raises_on_both_paths(self, backend):
        # Column 1 stores an off-diagonal entry but no diagonal.
        A = CSCMatrix.from_dense(
            np.array([[2.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 3.0]])
        )
        with pytest.raises(ValueError, match="missing diagonal entry"):
            _compiled_ic0(A, backend)

    def test_convergence_history_reporting(self, rng):
        A = laplacian_2d(10)
        b = rng.normal(size=A.n)
        result = preconditioned_conjugate_gradient(A, b, tol=1e-9)
        # One entry per evaluated residual: the initial one plus one per
        # iteration actually run.
        assert len(result.residual_norms) == result.iterations + 1
        assert result.residual_norms[0] == pytest.approx(
            np.linalg.norm(b) / max(np.linalg.norm(b), 1e-300)
        )
        assert result.final_residual == result.residual_norms[-1]
        assert result.final_residual <= 1e-9

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_compiled_ic0_factor_matches_its_oracle_bitwise(self, spd_matrices, backend):
        for A in spd_matrices.values():
            L_compiled = _compiled_ic0(A, backend)
            assert L_compiled.pattern_equal(lower_triangle(A))
            assert np.array_equal(L_compiled.data, _ic0_oracle_data(A, L_compiled, backend))

    def test_pcg_agrees_with_the_direct_solver(self, rng):
        A = laplacian_2d(12)
        solver = SparseLinearSolver(A, ordering="mindeg")
        b = rng.normal(size=A.n)
        result = preconditioned_conjugate_gradient(A, b, tol=1e-10)
        assert result.converged
        np.testing.assert_allclose(A.matvec(result.x), b, atol=1e-6)
        # The direct and iterative answers agree.
        np.testing.assert_allclose(result.x, solver.solve(b), atol=1e-6)

    def test_pcg_agrees_with_the_direct_solver_on_every_spd_matrix(self, spd_matrix, rng):
        A = spd_matrix
        b = rng.normal(size=A.n)
        result = preconditioned_conjugate_gradient(A, b, tol=1e-12)
        assert result.converged and result.final_residual <= 1e-12
        x = SparseLinearSolver(A, ordering="mindeg").solve(b)
        np.testing.assert_allclose(result.x, x, rtol=0, atol=1e-8 * np.abs(x).max())

    def test_solver_rejects_incomplete_method(self):
        A = laplacian_2d(6)
        with pytest.raises(ValueError, match="incomplete factorization"):
            SparseLinearSolver(A, method="ic0")


class TestNewtonRaphson:
    def test_solves_small_nonlinear_system(self):
        # F(x) = A x + 0.1 * x^3 - b, with the SPD Jacobian A + 0.3 diag(x^2).
        A = laplacian_2d(5)
        n = A.n
        rng = np.random.default_rng(3)
        x_target = rng.uniform(0.2, 1.0, size=n)
        b = A.matvec(x_target) + 0.1 * x_target**3

        def residual(x):
            return A.matvec(x) + 0.1 * x**3 - b

        def jacobian(x):
            builder = TripletBuilder(n, n)
            coo = A.to_coo()
            builder.add_many(coo.rows, coo.cols, coo.data)
            for i in range(n):
                builder.add(i, i, 0.3 * x[i] ** 2)
            return builder.to_csc()

        result = newton_raphson_fixed_pattern(residual, jacobian, np.zeros(n), tol=1e-10)
        assert result.converged
        np.testing.assert_allclose(result.x, x_target, atol=1e-7)
        assert result.factorizations >= 1
        assert result.residual_norms[-1] < result.residual_norms[0]

    def test_iteration_cap(self):
        A = laplacian_2d(4)
        n = A.n

        def residual(x):
            return A.matvec(x) - np.ones(n)

        def jacobian(x):
            return A

        result = newton_raphson_fixed_pattern(
            residual, jacobian, np.zeros(n), tol=1e-30, max_iterations=2
        )
        assert result.iterations == 2
