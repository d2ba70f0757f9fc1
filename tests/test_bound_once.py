"""A solver binds its kernels once: refactorizations reuse the owned factor arrays.

:class:`SparseLinearSolver` allocates its factorization's outputs at
construction and binds the kernel and its solve entry to them there, once.  These
tests hold the two consequences: overwriting the same arrays on every call is
bitwise the same as factorizing into fresh ones — after another value set and
after a breakdown that left a column half written — and the warm path
(a new-values ``step``, an rhs-only ``solve``) binds nothing.
"""

import numpy as np
import pytest

from repro.compiler.artifacts import CompiledArtifact, SympiledFactorization
from repro.compiler.codegen.c_backend import c_compiler_available
from repro.compiler.options import SympilerOptions
from repro.frontend import SpecializedSolver
from repro.solvers.linear_solver import SparseLinearSolver
from repro.sparse.csc import CSCMatrix
from repro.sparse.generators import laplacian_2d, saddle_point_indefinite, unsymmetric_diag_dominant

_MATRICES = {
    "cholesky": lambda: laplacian_2d(12),
    "ldlt": lambda: saddle_point_indefinite(60, 20, seed=3),
    "lu": lambda: unsymmetric_diag_dominant(120, seed=4),
}

_needs_cc = pytest.mark.skipif(not c_compiler_available(), reason="no C compiler")

#: The python reference kernels, the serial C kernels, and the level-parallel
#: C kernels (simplicial bodies, so the factorizations take the wavefront job).
_MODES = {
    "python": SympilerOptions(backend="python"),
    "c": SympilerOptions(backend="c"),
    "c-wavefront": SympilerOptions(backend="c", parallel="wavefront", enable_vs_block=False),
}
_MODE_PARAMS = [pytest.param(m, marks=() if m == "python" else _needs_cc) for m in _MODES]


def _rescaled(A: CSCMatrix, scale: float) -> CSCMatrix:
    """``scale·A + diag(A)/2``: the same pattern, and still SPD, quasi-definite or diagonally dominant."""
    values = A.data * scale
    diagonal = A.indices == np.repeat(np.arange(A.n), np.diff(A.indptr))
    values[diagonal] += 0.5 * A.data[diagonal]
    return A.with_values(values)


def _breakdown(A: CSCMatrix, method: str, column: int) -> CSCMatrix:
    """``A`` with row and column ``column`` zeroed, its diagonal -1 for Cholesky.

    Every earlier column of the factor then has a zero in that row, so the
    pivot of ``column`` is exactly its diagonal: indefinite for Cholesky, a
    zero pivot for LDLᵀ and LU.
    """
    rows = A.indices
    cols = np.repeat(np.arange(A.n), np.diff(A.indptr))
    values = A.data.copy()
    values[(rows == column) | (cols == column)] = 0.0
    if method == "cholesky":
        values[(rows == column) & (cols == column)] = -1.0
    return A.with_values(values)


def _factors(solver: SparseLinearSolver) -> list:
    return [f for f in (solver.L.data, solver.d, None if solver.U is None else solver.U.data) if f is not None]


def _assert_bitwise_fresh(solver: SparseLinearSolver, A: CSCMatrix, method: str, options) -> None:
    """``solver``'s factors and answer equal, bit for bit, those of a fresh solver built on ``A``."""
    fresh = SparseLinearSolver(A, method=method, options=options)
    for ours, theirs in zip(_factors(solver), _factors(fresh), strict=True):
        assert np.array_equal(ours, theirs)
    b = np.linspace(-1.0, 1.0, A.n)
    assert np.array_equal(solver.solve(b), fresh.solve(b))


@pytest.mark.parametrize("mode", _MODE_PARAMS)
@pytest.mark.parametrize("method", sorted(_MATRICES))
class TestOwnedOutputsAreBitwiseSafe:
    def test_a_refactorization_equals_a_fresh_factorization(self, method, mode):
        options = _MODES[mode]
        A = _MATRICES[method]()
        solver = SparseLinearSolver(A, method=method, options=options)
        B = _rescaled(A, 1.5)
        solver.factorize(B)
        _assert_bitwise_fresh(solver, B, method, options)

    def test_a_breakdown_between_two_good_value_sets(self, method, mode):
        options = _MODES[mode]
        A = _MATRICES[method]()
        solver = SparseLinearSolver(A, method=method, options=options)
        solver.factorize(_rescaled(A, 1.5))
        # The last column of the permuted order: every column before it is
        # written before the kernel fails.
        bad = _breakdown(A, method, int(solver.permutation.perm[-1]))
        with np.errstate(all="ignore"), pytest.raises(ValueError, match=f"at column {A.n - 1}$"):
            solver.factorize(bad)
        with pytest.raises(RuntimeError, match="no factors"):
            solver.solve(np.ones(A.n))
        assert solver.L is None and solver.d is None and solver.U is None
        C = _rescaled(A, 0.75)
        solver.factorize(C)
        _assert_bitwise_fresh(solver, C, method, options)


@pytest.fixture()
def bind_calls(monkeypatch):
    """Calls of ``CompiledArtifact.bind`` and ``factorize_arrays``, and ``CSCMatrix`` constructions, by name."""
    counts = {"bind": 0, "factorize_arrays": 0, "CSCMatrix": 0}

    def counted(name, original):
        def spy(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return spy

    monkeypatch.setattr(CompiledArtifact, "bind", counted("bind", CompiledArtifact.bind))
    monkeypatch.setattr(
        SympiledFactorization, "factorize_arrays", counted("factorize_arrays", SympiledFactorization.factorize_arrays)
    )
    monkeypatch.setattr(CSCMatrix, "__init__", counted("CSCMatrix", CSCMatrix.__init__))
    return counts


@pytest.mark.parametrize("mode", _MODE_PARAMS)
@pytest.mark.parametrize("method", sorted(_MATRICES))
class TestAWarmStepBindsNothing:
    def test_steps_and_solves_bind_nothing(self, method, mode, bind_calls):
        A = _MATRICES[method]()
        solver = SparseLinearSolver(A, method=method, options=_MODES[mode])
        rng = np.random.default_rng(7)
        value_sets = [_rescaled(A, 1.0 + 0.05 * k).data for k in range(1, 21)]
        bind_calls.update(dict.fromkeys(bind_calls, 0))
        for values in value_sets:
            x, refactorized = solver.step(values, rng.normal(size=A.n))
            assert refactorized
        assert bind_calls == dict.fromkeys(bind_calls, 0)
        for _ in range(20):
            b = rng.normal(size=A.n)
            x, refactorized = solver.step(values, b)
            assert not refactorized
            assert np.array_equal(solver.solve(b), x)
        assert bind_calls == dict.fromkeys(bind_calls, 0)
        assert solver.residual(x, b) < 1e-8

    def test_front_end_steps_bind_nothing(self, method, mode, bind_calls):
        S = _MATRICES[method]().to_scipy().tocsc()
        front = SpecializedSolver(method=method, options=_MODES[mode])
        rng = np.random.default_rng(8)
        front.solve(S, rng.normal(size=S.shape[0]))  # cold: specialize
        bind_calls.update(dict.fromkeys(bind_calls, 0))
        for _ in range(20):
            S.data *= 1.01
            front.solve(S, rng.normal(size=S.shape[0]))
        assert front.stats.refactorizations == 20
        assert bind_calls == dict.fromkeys(bind_calls, 0)
