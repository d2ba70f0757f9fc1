"""The rhs-only call: one solve entry bound once, repeats found by comparison.

``SparseLinearSolver`` binds its factorization's solve entry to its factors,
its permutation and a work vector of its own at construction, so a solve on
the current factors is one call on prebuilt addresses.  ``SpecializedSolver`` finds a
repeat pattern by ``(shape, nnz, dtype)`` and confirms it with
``np.array_equal`` against a private copy, without ingest or a fingerprint.
Both must leave every answer bit and every counter as they were.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.compiler.codegen.c_backend import c_compiler_available
from repro.compiler.options import SympilerOptions
from repro.frontend import SpecializedSolver
from repro.frontend import specialized
from repro.solvers.linear_solver import SparseLinearSolver
from repro.sparse.generators import (
    laplacian_2d,
    random_spd,
    saddle_point_indefinite,
    unsymmetric_diag_dominant,
)
from repro.symbolic import native

needs_cc = pytest.mark.skipif(not c_compiler_available("cc"), reason="no C compiler available")
MATRICES = {
    "cholesky": lambda: random_spd(60, 0.06, seed=31),
    "ldlt": lambda: saddle_point_indefinite(40, 12, seed=32),
    "lu": lambda: unsymmetric_diag_dominant(60, seed=33),
}
OPTIONS = {
    "python": {"backend": "python"},
    "c": {"backend": "c"},
    "c-simplicial": {"backend": "c", "enable_vs_block": False},
    # Kept for the benchmark ladder's wavefront rung: the serial module, so the same warm step.
    "c-wavefront": {"backend": "c", "parallel": "wavefront"},
}
OPTION_IDS = [pytest.param(name, marks=() if name == "python" else needs_cc) for name in OPTIONS]


def _solver(A, method, options="python", **overrides):
    return SparseLinearSolver(A, method=method, options=SympilerOptions(**{**OPTIONS[options], **overrides}))


@pytest.mark.parametrize("options", OPTION_IDS)
@pytest.mark.parametrize("method", sorted(MATRICES))
def test_rhs_only_answer_is_bitwise_a_fresh_solvers(method, options):
    A = MATRICES[method]()
    A2 = A.with_values(A.data * 1.25)
    rng = np.random.default_rng(5)
    solver = _solver(A, method, options)
    solver.step(A2.data, rng.normal(size=A.n))  # a refactorization, into the bound factors
    for _ in range(3):
        b = rng.normal(size=A.n)
        x, refactorized = solver.step(A2.data, b)
        assert not refactorized
        fresh = _solver(A2, method, options)
        np.testing.assert_array_equal(x, fresh.solve(b))
        # The python backend on the same options: the oracle of every backend.
        np.testing.assert_array_equal(x, _solver(A2, method, options, backend="python").solve(b))
        # Foreign factors bind per call, and reach the same bits.
        np.testing.assert_array_equal(x, solver.solve_with_factors(b, L=solver.L, d=solver.d, U=solver.U))


@pytest.mark.parametrize("options", OPTION_IDS)
@pytest.mark.parametrize("method", sorted(MATRICES))
def test_rhs_only_call_after_new_values_uses_the_new_factors(method, options):
    A = MATRICES[method]()
    b = np.random.default_rng(6).normal(size=A.n)
    solver = _solver(A, method, options)
    before = solver.solve(b)
    for scale in (2.0, 3.0):
        A2 = A.with_values(A.data * scale)
        solver.step(A2.data, b)
        x = solver.solve(b)
        np.testing.assert_array_equal(x, _solver(A2, method, options).solve(b))
        np.testing.assert_allclose(x, before / scale, rtol=1e-10, atol=1e-12)
    solver.factorize(A)
    np.testing.assert_array_equal(solver.solve(b), before)


@needs_cc
@pytest.mark.parametrize("method", sorted(MATRICES))
def test_solve_many_on_threads_is_bitwise_per_column_solve(method):
    A = MATRICES[method]()
    solver = _solver(A, method, "c")
    B = np.random.default_rng(7).normal(size=(A.n, 6))
    X = solver.solve_many(B, num_threads=2)
    for k in range(B.shape[1]):
        np.testing.assert_array_equal(X[:, k], solver.solve(B[:, k]))


@pytest.fixture()
def bound_calls():
    """Wrap a solver's bound factorization and solve calls and its native warm step; count the calls of each.

    ``counts["refactorized"]`` counts the native calls that factorized.
    """
    counts = {"factorize": 0, "solve": 0, "native": 0, "refactorized": 0}

    def wrap(solver):
        kernel, solve, warm = solver._kernel, solver._solve, solver._warm

        def counted_kernel():
            counts["factorize"] += 1
            return kernel()

        def counted_solve():
            counts["solve"] += 1
            return solve()

        def counted_warm(*args):
            counts["native"] += 1
            status = warm(*args)
            counts["refactorized"] += status == native.WARM_REFACTORED
            return status

        solver._kernel, solver._solve = counted_kernel, counted_solve
        if warm is not None:
            solver._warm = counted_warm
        return solver

    wrap.counts = counts
    return wrap


@pytest.mark.parametrize("options", OPTION_IDS)
@pytest.mark.parametrize("method", sorted(MATRICES))
def test_an_rhs_only_step_is_one_bound_call(method, options, bound_calls):
    """One native call per step on every C module; the bound kernel and solve entry on the python backend."""
    A = MATRICES[method]()
    rng = np.random.default_rng(9)
    solver = bound_calls(_solver(A, method, options))
    values = A.data * 1.5
    fused = options != "python" and native.helper() is not None
    x, refactorized = solver.step(values, rng.normal(size=A.n))
    if fused:
        assert refactorized and bound_calls.counts == {"factorize": 0, "solve": 0, "native": 1, "refactorized": 1}
    else:
        assert refactorized and bound_calls.counts == {"factorize": 1, "solve": 1, "native": 0, "refactorized": 0}
    for k in range(2, 5):
        x, refactorized = solver.step(values, rng.normal(size=A.n))
        if fused:
            assert not refactorized
            assert bound_calls.counts == {"factorize": 0, "solve": 0, "native": k, "refactorized": 1}
        else:
            assert not refactorized
            assert bound_calls.counts == {"factorize": 1, "solve": k, "native": 0, "refactorized": 0}


def test_out_is_checked_before_the_entry_runs(bound_calls):
    A = laplacian_2d(5)
    solver = bound_calls(_solver(A, "cholesky"))
    with pytest.raises(ValueError, match="out must be a float64 array"):
        solver.solve_with_factors(np.ones(A.n), L=solver.L, out=np.empty(A.n - 1))
    with pytest.raises(ValueError, match="out must be a float64 array"):
        solver.solve(np.ones(A.n), out=np.empty(A.n, dtype=np.float32))
    readonly = np.empty(A.n)
    readonly.flags.writeable = False
    with pytest.raises(ValueError, match="out must be writeable"):
        solver.solve(np.ones(A.n), out=readonly)
    assert bound_calls.counts["solve"] == 0
    solver.solve(np.ones(A.n), out=np.empty(A.n))
    assert bound_calls.counts["solve"] == 1


# --------------------------------------------------------------------------- #
# The front end's repeat check
# --------------------------------------------------------------------------- #
@pytest.fixture()
def ingests(monkeypatch):
    """Calls of the front end's ingest, counted."""
    calls = []
    original = specialized.ingest

    def counted(A):
        calls.append(type(A).__name__)
        return original(A)

    monkeypatch.setattr(specialized, "ingest", counted)
    return calls


def test_a_different_object_with_the_same_pattern_is_a_repeat(ingests):
    A = laplacian_2d(6)
    S = A.to_scipy()
    b = np.ones(A.n)
    front = SpecializedSolver(method="cholesky")
    x = front.solve(S, b)
    assert len(ingests) == 1
    # A copy, int32 indices, a CSCMatrix of the same pattern: all repeats.
    int32 = sp.csc_matrix((S.data.copy(), S.indices.astype(np.int32), S.indptr.astype(np.int32)), shape=S.shape)
    for same in (S.copy(), int32, A.copy()):
        np.testing.assert_array_equal(front.solve(same, b), x)
    assert len(ingests) == 1
    assert front.stats.specializations == 1 and front.stats.structure_hits == 3
    assert front.stats.value_hits == 3 and front.stats.refactorizations == 0


def test_indices_mutated_in_place_are_not_a_repeat(ingests):
    A = laplacian_2d(4)
    b = np.arange(1.0, A.n + 1.0)
    front = SpecializedSolver()
    front.solve(A, b)
    # Column 0 holds rows 0, 1, 4; move its last entry to row 5.  A is the
    # object the specialization was built from, so only the stored copy of
    # the pattern tells the two apart.
    assert A.indices[2] == 4
    A.indices[2] = 5
    x = front.solve(A, b)
    assert len(ingests) == 2
    assert front.stats.specializations == 2 and front.stats.structure_hits == 0
    np.testing.assert_allclose(A.to_dense() @ x, b, rtol=1e-12)


def test_other_inputs_take_the_ingest_path(ingests):
    A = laplacian_2d(5)
    S = A.to_scipy()
    b = np.ones(A.n)
    front = SpecializedSolver(method="cholesky")
    x = front.solve(S, b)
    # A duplicate-carrying CSC of the same matrix: the diagonal of column 0
    # split into two entries that sum to it.
    dup = sp.csc_matrix(
        (
            np.concatenate([[S.data[0] / 2, S.data[0] / 2], S.data[1:]]),
            np.concatenate([[0], S.indices]),
            np.concatenate([[0], S.indptr[1:] + 1]),
        ),
        shape=S.shape,
    )
    assert dup.nnz == S.nnz + 1 and S.indices[0] == 0
    others = {"csr": S.tocsr(), "dense": S.toarray(), "duplicates": dup}
    for name, other in others.items():
        np.testing.assert_allclose(front.solve(other, b), x, rtol=1e-12, err_msg=name)
    assert len(ingests) == 4
    assert front.stats.specializations == 1 and front.stats.structure_hits == 3
    # float32 values are another specialization (the source dtype is in its key).
    front.solve(S.astype(np.float32), b)
    front.solve(S.astype(np.float32), b)
    assert len(ingests) == 6
    assert front.stats.specializations == 2 and front.stats.structure_hits == 4


def test_repeat_counters_are_the_ingest_paths():
    A = laplacian_2d(6)
    S = A.to_scipy()
    rng = np.random.default_rng(8)
    rhs = [rng.normal(size=A.n) for _ in range(4)]
    S2 = S.copy()
    S2.data *= 2.0
    counts, answers = [], []
    for repeat in (True, False):
        front = SpecializedSolver(method="cholesky")
        if not repeat:
            front._repeat = lambda *args, **kwargs: None
        answers.append([front.solve(M, b) for M, b in zip((S, S, S2, S2), rhs)])
        counts.append(front.stats.as_dict())
    assert counts[0] == counts[1]
    np.testing.assert_array_equal(answers[0], answers[1])
    assert counts[0]["specializations"] == 1 and counts[0]["structure_hits"] == 3
    assert counts[0]["value_hits"] == 2 and counts[0]["refactorizations"] == 1


def test_eviction_drops_the_repeat_too():
    front = SpecializedSolver(method="cholesky", max_specializations=1)
    A, B = laplacian_2d(4), laplacian_2d(5)
    for M in (A, B, A):
        front.solve(M, np.ones(M.n))
    assert front.stats.specializations == 3 and front.stats.structure_hits == 0
    assert sum(len(specs) for specs in front._repeats.values()) == 1
    front.clear()
    assert not front._repeats
