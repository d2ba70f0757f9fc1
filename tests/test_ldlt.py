"""End-to-end tests of the LDLᵀ kernel (factors, both backends, solver)."""

import numpy as np
import pytest

from repro.compiler.cache import ArtifactCache
from repro.compiler.codegen.c_backend import c_compiler_available
from repro.compiler.options import SympilerOptions
from repro.compiler.sympiler import Sympiler
from repro.solvers.linear_solver import SparseLinearSolver
from repro.sparse.csc import CSCMatrix
from repro.sparse.generators import laplacian_2d, saddle_point_indefinite

import oracles

needs_cc = pytest.mark.skipif(
    not (c_compiler_available("cc") or c_compiler_available("gcc")),
    reason="no C compiler available",
)


def _c_options(**overrides):
    compiler = "cc" if c_compiler_available("cc") else "gcc"
    return SympilerOptions(backend="c", c_compiler=compiler, **overrides)


def _fresh_sympiler():
    """A python-backend driver with an isolated cache; a compile's own ``options=`` wins."""
    return Sympiler(SympilerOptions(backend="python"), cache=ArtifactCache())


def _indefinite_matrix(seed=7):
    return saddle_point_indefinite(30, 12, seed=seed)


def _factorize(A, backend, **overrides):
    """The compiled LDLᵀ factors of ``A`` on ``backend``."""
    options = _c_options(**overrides) if backend == "c" else SympilerOptions(backend="python", **overrides)
    return _fresh_sympiler().compile("ldlt", A, options=options).factorize(A)


def _check_against_the_dense_oracle(fac, A):
    L, d = oracles.ldlt(A)
    np.testing.assert_allclose(fac.L.to_dense(), L, atol=1e-9)
    np.testing.assert_allclose(fac.d, d, atol=1e-9)


LOOPS = pytest.mark.parametrize("vs_block", [False, True], ids=["simplicial", "supernodal"])


@pytest.mark.parametrize("backend", ["python", pytest.param("c", marks=needs_cc)])
class TestFactors:
    @LOOPS
    def test_matches_the_dense_oracle(self, spd_matrix, vs_block, backend):
        _check_against_the_dense_oracle(_factorize(spd_matrix, backend, enable_vs_block=vs_block), spd_matrix)

    @LOOPS
    def test_matches_the_dense_oracle_on_indefinite_input(self, vs_block, backend):
        A = _indefinite_matrix()
        _check_against_the_dense_oracle(_factorize(A, backend, enable_vs_block=vs_block), A)

    def test_reconstruction_on_spd_and_indefinite(self, spd_matrices, backend):
        for A in (spd_matrices["fem"], _indefinite_matrix()):
            np.testing.assert_allclose(_factorize(A, backend).reconstruct_dense(), A.to_dense(), atol=1e-9)

    def test_inertia_of_saddle_point_system(self, backend):
        A = saddle_point_indefinite(25, 10, seed=3)
        assert _factorize(A, backend).inertia == (25, 10, 0)

    def test_factors_solve(self, rng, backend):
        A = _indefinite_matrix()
        b = rng.normal(size=A.n)
        x = oracles.solve_with(_factorize(A, backend), b)
        np.testing.assert_allclose(A.to_dense() @ x, b, atol=1e-8)

    def test_unit_diagonal_is_stored(self, spd_matrices, backend):
        fac = _factorize(spd_matrices["banded"], backend)
        diag_positions = fac.L.indptr[:-1]
        np.testing.assert_allclose(fac.L.data[diag_positions], 1.0)


class TestCompiledLDLTPython:
    def test_vi_prune_is_forced(self):
        compiled = _fresh_sympiler().compile(
            "ldlt", laplacian_2d(6), options=SympilerOptions.baseline().with_updates(backend="python")
        )
        assert compiled.decisions.get("vi-prune-forced") is True
        assert "vi-prune" in compiled.applied_transformations

    def test_refactorization_scales_pivots(self):
        A = _indefinite_matrix()
        compiled = _fresh_sympiler().compile("ldlt", A)
        fac1 = compiled.factorize(A)
        A2 = A.copy()
        A2.data *= 5.0
        fac2 = compiled.factorize(A2)
        # L is scale invariant; the pivots absorb the scaling.
        np.testing.assert_allclose(fac2.L.to_dense(), fac1.L.to_dense(), atol=1e-9)
        np.testing.assert_allclose(fac2.d, 5.0 * fac1.d, atol=1e-9)

    def test_singular_matrix_raises(self):
        # A symmetric matrix with a structurally zero leading pivot.
        A = CSCMatrix.from_dense(
            np.array([[0.0, 1.0], [1.0, 0.0]])
        )
        compiled = _fresh_sympiler().compile("ldlt", A)
        with pytest.raises(ValueError, match="pivot"):
            compiled.factorize(A)

    def test_cholesky_still_rejects_what_ldlt_accepts(self):
        A = _indefinite_matrix()
        sym = _fresh_sympiler()
        chol = sym.compile("cholesky", A)
        with pytest.raises(ValueError):
            chol.factorize(A)
        fac = sym.compile("ldlt", A).factorize(A)
        assert (fac.d < 0).sum() == 12


class TestLDLTSolver:
    @pytest.mark.parametrize("ordering", ["natural", "mindeg", "rcm"])
    def test_indefinite_system_residual(self, ordering, rng):
        A = saddle_point_indefinite(40, 15, seed=11)
        solver = SparseLinearSolver(A, method="ldlt", ordering=ordering)
        b = rng.normal(size=A.n)
        x = solver.solve(b)
        assert solver.residual(x, b) <= 1e-8

    def test_spd_system_matches_cholesky_solver(self, rng):
        A = laplacian_2d(9)
        b = rng.normal(size=A.n)
        x_ldlt = SparseLinearSolver(A, method="ldlt").solve(b)
        x_chol = SparseLinearSolver(A, method="cholesky").solve(b)
        np.testing.assert_allclose(x_ldlt, x_chol, atol=1e-9)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="method"):
            SparseLinearSolver(laplacian_2d(4), method="qr")

    def test_non_factorization_kernel_rejected(self):
        with pytest.raises(ValueError, match="not a factorization"):
            SparseLinearSolver(laplacian_2d(4), method="triangular-solve")

    def test_an_old_alias_is_an_unknown_method(self):
        # The kernel table has no aliases: "ldl" is refused like any unknown name.
        with pytest.raises(ValueError, match="unknown factorization method 'ldl'"):
            SparseLinearSolver(saddle_point_indefinite(20, 8, seed=21), method="ldl")

    def test_solver_exposes_pivots(self):
        A = _indefinite_matrix()
        solver = SparseLinearSolver(A, method="ldlt")
        assert solver.d is not None and (solver.d < 0).any()
        spd_solver = SparseLinearSolver(laplacian_2d(5), method="cholesky")
        assert spd_solver.d is None


@needs_cc
class TestCompiledLDLTC:
    def test_indefinite_solver_residual_c_backend(self, rng):
        A = saddle_point_indefinite(40, 15, seed=13)
        solver = SparseLinearSolver(A, method="ldlt", options=_c_options())
        b = rng.normal(size=A.n)
        x = solver.solve(b)
        assert solver.residual(x, b) <= 1e-8

    def test_singular_matrix_returns_error(self):
        A = CSCMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        compiled = _fresh_sympiler().compile("ldlt", A, options=_c_options())
        with pytest.raises(ValueError, match="pivot"):
            compiled.factorize(A)

    def test_c_and_python_backends_agree(self):
        A = _indefinite_matrix()
        sym = _fresh_sympiler()
        fac_c = sym.compile("ldlt", A, options=_c_options()).factorize(A)
        fac_py = sym.compile("ldlt", A, options=SympilerOptions(backend="python")).factorize(A)
        np.testing.assert_array_equal(fac_c.L.data, fac_py.L.data)
        np.testing.assert_array_equal(fac_c.d, fac_py.d)
