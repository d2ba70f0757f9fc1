"""Non-finite matrix values are refused before any kernel runs.

No kernel of this package pivots, so a NaN or an infinity among the values
would otherwise come back as a NaN answer — on the default route through the
Cholesky -> LDLᵀ escape hatch, which turns the breakdown into a silent one.
A batch refuses the poisoned item alone.
"""

import numpy as np
import pytest

import repro
from repro.compiler.codegen.c_backend import c_compiler_available
from repro.compiler.options import SympilerOptions
from repro.frontend import SpecializedSolver
from repro.service import SolverService
from repro.solvers.batched import BatchedSolver
from repro.solvers.cg import preconditioned_conjugate_gradient
from repro.solvers.linear_solver import SparseLinearSolver
from repro.sparse.csc import CSCMatrix
from repro.sparse.generators import laplacian_2d

BACKENDS = ["python", pytest.param("c", marks=pytest.mark.skipif(not c_compiler_available("cc"), reason="no cc"))]
BAD_VALUES = [np.nan, np.inf, -np.inf]

#: Stored entry 1 of the 3 x 3 matrix below is A[1, 0].
REFUSAL = r"A\[1, 0\] \(stored entry 1\) is not finite"


def _spd3():
    return CSCMatrix.from_dense(np.array([[4.0, 1.0, 0.0], [1.0, 4.0, 1.0], [0.0, 1.0, 4.0]]))


def _poisoned(bad):
    A = _spd3()
    A.data[1] = bad
    return A


def _front_solve(backend):
    """``repro.solve`` itself on the default backend; its front end on the C one."""
    if backend == "python":
        return repro.solve
    return SpecializedSolver(options=SympilerOptions(backend="c")).solve


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("bad", BAD_VALUES)
@pytest.mark.parametrize("method", [None, "cholesky", "ldlt", "lu"])
def test_every_direct_route_of_solve_refuses(backend, bad, method):
    # method=None is the default route: the probes pick Cholesky, and a
    # Cholesky failure there escapes to LDLᵀ.
    solve = _front_solve(backend)
    with pytest.raises(ValueError, match=REFUSAL):
        solve(_poisoned(bad), np.ones(3), method=method)
    A = _spd3()
    x = solve(A, np.ones(3), method=method)
    np.testing.assert_allclose(A.matvec(x), np.ones(3), atol=1e-12)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("bad", BAD_VALUES)
def test_a_refused_matrix_is_neither_specialized_nor_escaped(backend, bad):
    front = SpecializedSolver(options=SympilerOptions(backend=backend))
    with pytest.raises(ValueError, match=REFUSAL):
        front.solve(_poisoned(bad), np.ones(3))
    assert front.stats.cholesky_escapes == 0
    assert front.stats.specializations == 0


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("bad", BAD_VALUES)
def test_pcg_refuses(backend, bad):
    with pytest.raises(ValueError, match=REFUSAL):
        preconditioned_conjugate_gradient(_poisoned(bad), np.ones(3), options=SympilerOptions(backend=backend))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("bad", BAD_VALUES)
@pytest.mark.parametrize("method", ["cholesky", "ldlt", "lu"])
def test_solver_refuses_and_keeps_its_factors(backend, bad, method):
    A = laplacian_2d(5, shift=0.1)
    solver = SparseLinearSolver(A, method=method, options=SympilerOptions(backend=backend))
    L_before = solver.L.data.copy()
    b = np.ones(A.n)
    x_before = solver.solve(b)
    poisoned = A.with_values(A.data.copy())
    poisoned.data[7] = bad
    with pytest.raises(ValueError, match=r"\(stored entry 7\) is not finite"):
        solver.factorize(poisoned)
    assert solver.A is A
    assert np.array_equal(solver.L.data, L_before)
    assert np.array_equal(solver.solve(b), x_before)
    with pytest.raises(ValueError, match="not finite"):
        solver.step(poisoned.data, b)
    assert solver.A is A and np.array_equal(solver.L.data, L_before)
    # A good step afterwards still answers, through a refactorization.
    x, refactorized = solver.step(2.0 * A.data, b)
    assert refactorized
    np.testing.assert_allclose(x, x_before / 2.0, atol=1e-12)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("method", ["cholesky", "ldlt", "lu"])
def test_batch_fails_only_the_poisoned_item(backend, method):
    A = laplacian_2d(5, shift=0.1)
    k = int(np.flatnonzero(A.indices != A.col_indices())[3])  # an off-diagonal entry
    poisoned = A.with_values(A.data.copy())
    poisoned.data[k] = np.nan
    batched = BatchedSolver(A, method=method, options=SympilerOptions(backend=backend), num_threads=2)
    handles = batched.factorize_batch([A, poisoned, A.with_values(2.0 * A.data)])
    assert [handle.ok for handle in handles] == [True, False, True]
    where = rf"A\[{A.indices[k]}, {A.col_indices()[k]}\] \(stored entry {k}\) is not finite"
    with pytest.raises(ValueError, match=where):
        raise handles[1].error
    b = np.ones(A.n)
    np.testing.assert_allclose(handles[0].solve(b), 2.0 * handles[2].solve(b), atol=1e-10)
    np.testing.assert_allclose(A.matvec(handles[0].solve(b)), b, atol=1e-8)


def test_constructor_refuses():
    with pytest.raises(ValueError, match=REFUSAL):
        SparseLinearSolver(_poisoned(np.nan))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("bad", BAD_VALUES)
def test_service_fails_only_the_poisoned_request(backend, bad):
    A = laplacian_2d(6, shift=0.1)
    poisoned = A.data.copy()
    poisoned[3] = bad
    rhs = np.ones(A.n)
    with SolverService(options=SympilerOptions(backend=backend, enable_vs_block=False)) as svc:
        handle = svc.register_pattern(A)
        futures = [
            svc.submit(handle, A.data, rhs),
            svc.submit(handle, poisoned, rhs),
            svc.submit(handle, A.data * 2.0, rhs),
        ]
        good0 = futures[0].result()
        good2 = futures[2].result()
        with pytest.raises(ValueError, match=r"\(stored entry 3\) is not finite"):
            futures[1].result()
    np.testing.assert_allclose(good0, 2.0 * good2, atol=1e-10)
    np.testing.assert_allclose(A.matvec(good0), rhs, atol=1e-8)
    assert svc.stats()["counters"]["solves_failed"] == 1
    assert svc.stats()["counters"]["solves_ok"] == 2
