"""A warm step is one native call: ``repro_warm_step`` against the composed step.

On a serial C module with the native helper loaded, ``SparseLinearSolver.step``
runs the value check, the gather, the factorization and the solve entry in one
call of ``repro_warm_step`` (``native.c``), and ``SpecializedSolver.solve``'s
repeat path adds the pattern check to the same call.  Everything else composes
the same step in Python.  These tests hold the fused step to the composed one
of the same solver: the same bits, the same errors, the same ``_factored``
transitions and the same counters.
"""

import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from repro.compiler.codegen.c_backend import c_compiler_available
from repro.compiler.options import SympilerOptions
from repro.frontend import SpecializedSolver
from repro.service.session import SolverService
from repro.solvers.linear_solver import SparseLinearSolver
from repro.sparse.csc import CSCMatrix
from repro.sparse.generators import (
    laplacian_2d,
    laplacian_3d,
    saddle_point_indefinite,
    unsymmetric_diag_dominant,
)
from repro.sparse.permutation import Permutation
from repro.symbolic import native

pytestmark = pytest.mark.skipif(not c_compiler_available(), reason="needs a C compiler")

#: (method, matrix, option overrides, the domain loop the factorization must run).
CASES = {
    "cholesky-supernodal": ("cholesky", lambda: laplacian_3d(6), {}, "supernodal-cholesky"),
    "cholesky-simplicial": ("cholesky", lambda: laplacian_3d(6), {"enable_vs_block": False}, "simplicial-cholesky"),
    "ldlt-supernodal": ("ldlt", lambda: laplacian_3d(6), {}, "supernodal-cholesky"),
    "ldlt-simplicial": ("ldlt", lambda: saddle_point_indefinite(60, 20, seed=3), {}, "simplicial-cholesky"),
    "lu": ("lu", lambda: unsymmetric_diag_dominant(90, seed=4), {}, "simplicial-lu"),
}


def _solver(case, A=None):
    method, build, overrides, role = CASES[case]
    solver = SparseLinearSolver(build() if A is None else A, method=method, options=SympilerOptions(**overrides))
    assert solver.factorization.loop.role == role
    return solver


def _pair(case):
    """Two solvers of one system: ``fused`` steps natively, ``composed`` never does."""
    A = CASES[case][1]()
    fused, composed = _solver(case, A), _solver(case, A)
    assert fused._warm is not None
    composed._warm = None
    return A, fused, composed


def _native_calls(solver) -> list:
    """The statuses of ``solver``'s native calls, appended as they return."""
    statuses, warm = [], solver._warm

    def counted(*args):
        statuses.append(warm(*args))
        return statuses[-1]

    solver._warm = counted
    return statuses


def _state(solver) -> list:
    """The snapshot and the owned factor arrays, copied."""
    return [solver._values.copy(), *(f.copy() for f in solver._outputs)]


def _assert_same_state(a, b) -> None:
    for x, y in zip(a, b, strict=True):
        assert np.array_equal(x, y)


# --------------------------------------------------------------------------- #
# The solver's step
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("case", sorted(CASES))
def test_the_fused_step_is_bitwise_the_composed_step(case):
    A, fused, composed = _pair(case)
    statuses = _native_calls(fused)
    rng = np.random.default_rng(1)
    scaled = A.data * 1.5
    # Unchanged values, new values, unchanged again, and back to the first.
    for values in (A.data, scaled, scaled, A.data.copy()):
        b = rng.normal(size=A.n)
        ours, theirs = fused.step(values, b), composed.step(values, b)
        assert ours[1] == theirs[1]
        assert np.array_equal(ours[0], theirs[0])
        _assert_same_state(_state(fused), _state(composed))
    assert statuses == [native.WARM_SOLVED, native.WARM_REFACTORED, native.WARM_SOLVED, native.WARM_REFACTORED]
    assert fused.A is fused._A_current and np.array_equal(fused.A.data, A.data)


def test_negative_zero_equals_zero():
    A = laplacian_2d(8)
    values = A.data.copy()
    values[1] = 0.0  # an explicit zero off the diagonal
    A = A.with_values(values)
    solver = SparseLinearSolver(A)
    statuses = _native_calls(solver)
    b = np.ones(A.n)
    flipped = values.copy()
    flipped[1] = -0.0
    x, refactorized = solver.step(flipped, b)
    assert not refactorized and statuses == [native.WARM_SOLVED]
    assert not np.signbit(solver._values[1])
    assert np.array_equal(x, SparseLinearSolver(A).solve(b))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("case", ["cholesky-supernodal", "lu"])
def test_a_non_finite_value_is_refused_before_anything_is_written(case, bad):
    A, fused, composed = _pair(case)
    values = A.data * 2.0
    values[7] = bad
    before = _state(fused)
    errors = []
    for solver in (fused, composed):
        with pytest.raises(ValueError, match="is not finite") as info:
            solver.step(values, np.ones(A.n))
        errors.append(str(info.value))
        assert solver._factored
    assert errors[0] == errors[1]
    _assert_same_state(_state(fused), before)
    # The solver carries on from the values it had.
    b = np.arange(A.n, dtype=np.float64)
    ours, theirs = fused.step(A.data, b), composed.step(A.data, b)
    assert not ours[1] and np.array_equal(ours[0], theirs[0])


@pytest.mark.parametrize("case", ["cholesky-supernodal", "cholesky-simplicial"])
def test_an_indefinite_value_set_leaves_the_solver_without_factors(case):
    A, fused, composed = _pair(case)
    statuses = _native_calls(fused)
    column = A.n // 2
    rows, cols = A.indices, np.repeat(np.arange(A.n), np.diff(A.indptr))
    bad = A.data.copy()
    bad[(rows == column) | (cols == column)] = 0.0
    bad[(rows == column) & (cols == column)] = -1.0
    b = np.ones(A.n)
    errors = []
    for solver in (fused, composed):
        for _ in range(2):  # without factors, the same values factorize (and fail) again
            with pytest.raises(ValueError, match=r"^matrix is not positive definite at column \d+$") as info:
                solver.step(bad, b)
            errors.append(str(info.value))
            assert not solver._factored
        with pytest.raises(RuntimeError, match="no factors"):
            solver.solve(b)
    assert len(set(errors)) == 1
    failed_at = int(errors[0].rsplit(" ", 1)[1])
    assert statuses == [failed_at + 1] * 2
    ours, theirs = fused.step(A.data, b), composed.step(A.data, b)
    assert ours[1] and theirs[1] and np.array_equal(ours[0], theirs[0])
    assert fused._factored and statuses[-1] == native.WARM_REFACTORED
    _assert_same_state(_state(fused), _state(composed))


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda v: np.repeat(v, 2)[::2], id="strided"),
        pytest.param(lambda v: _read_only(v.copy()), id="read-only"),
        pytest.param(lambda v: v.astype(np.float32), id="float32"),
        pytest.param(lambda v: list(v), id="list"),
    ],
)
def test_other_inputs_compose_the_step_to_the_same_bits(make):
    A, fused, composed = _pair("cholesky-supernodal")
    statuses = _native_calls(fused)
    b = np.linspace(0.0, 1.0, A.n)
    for values in (A.data * 1.25, A.data * 1.25, A.data):
        ours, theirs = fused.step(make(values), make(b)), composed.step(make(values), make(b))
        assert ours[1] == theirs[1] and np.array_equal(ours[0], theirs[0])
    assert statuses == []


def test_zero_length_inputs_fail_alike():
    A, fused, composed = _pair("lu")
    statuses = _native_calls(fused)
    for values, b in ((np.empty(0), np.ones(A.n)), (A.data * 2.0, np.empty(0))):
        errors = []
        for solver in (fused, composed):
            with pytest.raises(ValueError) as info:
                solver.step(values, b)
            errors.append(str(info.value))
        assert errors[0] == errors[1]
    assert statuses == []


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def test_threads_on_one_solver_each_get_their_own_answer():
    """More threads than cores, two value sets: every answer is its own system's."""
    A, fused, composed = _pair("ldlt-supernodal")
    systems = [(A.data * (1.0 + k % 2), np.cos(np.arange(A.n) + k)) for k in range(4)]
    expected = [composed.step(values, b)[0] for values, b in systems]
    failures = []

    def run(k):
        values, b = systems[k]
        for _ in range(40):
            x, _ = fused.step(values, b)
            if not np.array_equal(x, expected[k]):
                failures.append(k)

    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(systems))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


def test_tracing_records_one_numeric_span_per_step():
    from repro import observe

    A, fused, _ = _pair("lu")
    observe.enable()
    try:
        observe.get_tracer().clear()
        fused.step(A.data * 2.0, np.ones(A.n))
        fused.step(A.data * 2.0, np.ones(A.n))
        spans = [sp for sp in observe.get_tracer().drain() if sp.name == "numeric"]
    finally:
        observe.disable()
    assert [(sp.attrs["op"], sp.attrs["refactorized"]) for sp in spans] == [("step", True), ("step", False)]
    assert {sp.attrs["kernel"] for sp in spans} == {"lu"}


# --------------------------------------------------------------------------- #
# The front end's repeat path
# --------------------------------------------------------------------------- #
def _shuffled(A: CSCMatrix) -> CSCMatrix:
    """``A`` symmetrically permuted at random: the same shape and nnz, another pattern."""
    B = Permutation(np.random.default_rng(0).permutation(A.n)).symmetric_permute(A)
    assert B.shape == A.shape and B.nnz == A.nnz and not B.pattern_equal(A)
    return B


def test_a_candidate_of_another_pattern_falls_through_to_the_right_one():
    A = laplacian_2d(7, shift=0.1)
    B = _shuffled(A)
    front = SpecializedSolver(method="cholesky")
    b = np.ones(A.n)
    for M in (A, B):
        front.solve(M.to_scipy(), b)
    solvers = [spec.solver for spec in front._cache]
    statuses = [_native_calls(s) for s in solvers]
    for M in (B, A, B):
        x = front.solve(M.to_scipy(), b)
        assert np.array_equal(x, SparseLinearSolver(M).solve(b))
    assert front.stats.specializations == 2 and front.stats.structure_hits == 3
    assert front.stats.value_hits == 3 and front.stats.refactorizations == 0
    # B is tried against A's specialization first, and passes through untouched.
    assert statuses[0] == [native.WARM_OTHER_PATTERN, native.WARM_SOLVED, native.WARM_OTHER_PATTERN]
    assert statuses[1] == [native.WARM_SOLVED, native.WARM_SOLVED]


@pytest.mark.parametrize("indices", ["int32", "int64"])
def test_both_index_widths_are_checked_natively(indices):
    A = laplacian_2d(6)
    S = A.to_scipy()
    if indices == "int64":
        S = sp.csc_matrix((S.data, S.indices.astype(np.int64), S.indptr.astype(np.int64)), shape=S.shape)
    front = SpecializedSolver(method="cholesky")
    b = np.ones(A.n)
    x = front.solve(A, b)
    statuses = _native_calls(next(iter(front._cache)).solver)
    for M in (S, A.copy()):
        assert np.array_equal(front.solve(M, b), x)
    assert statuses == [native.WARM_SOLVED, native.WARM_SOLVED]


def test_the_front_end_counts_a_failed_repeat_as_a_structure_hit():
    A = laplacian_2d(6)
    front = SpecializedSolver(method="cholesky")
    b = np.ones(A.n)
    front.solve(A, b)
    values = A.data.copy()
    values[0] = np.nan
    with pytest.raises(ValueError, match="is not finite"):
        front.solve(A.with_values(values), b)
    assert front.stats.structure_hits == 1 and front.stats.refactorizations == 0


def _front_script():
    """One scripted sequence of front-end calls: ``(answers, errors, stats)``."""
    A = laplacian_2d(6)
    S = A.to_scipy()
    B = _shuffled(A)
    B = B.with_values(B.data * 1.5)
    bad = A.data.copy()
    bad[3] = np.inf
    # Inputs the native check leaves to the composed one: strided values,
    # read-only values and indices, and indices of two dtypes.
    strided = sp.csc_matrix((np.repeat(S.data, 2)[::2], S.indices, S.indptr), shape=S.shape)
    read_only = S.copy()
    for array in (read_only.data, read_only.indices):
        array.flags.writeable = False
    mixed = S.copy()
    mixed.indptr = mixed.indptr.astype(np.int64)
    calls = [
        (S, None), (S, None), (A.with_values(A.data * 2.0), None), (A.copy(), None),
        (A.with_values(bad), None), (S, None), (B, "cholesky"), (B.to_scipy(), "cholesky"),
        (S.toarray(), None), (S.tocsr(), None), (strided, None), (read_only, None), (mixed, None),
        (S, "ldlt"), (S, "ldlt"), (S, "pcg"), (S, "pcg"),
    ]
    front = SpecializedSolver()
    answers, errors = [], []
    for k, (M, method) in enumerate(calls):
        b = np.sin(np.arange(A.n) + k)
        try:
            answers.append(front.solve(M, b, method=method))
        except ValueError as exc:
            errors.append(str(exc))
    return answers, errors, front.stats.as_dict()


def _count_native_steps(monkeypatch) -> list:
    """Whether each ``_native_step`` call ran natively, appended as they return."""
    ran, native_step = [], SparseLinearSolver._native_step

    def counted(self, *args):
        out = native_step(self, *args)
        ran.append(out is not None)
        return out

    monkeypatch.setattr(SparseLinearSolver, "_native_step", counted)
    return ran


def test_front_end_answers_and_counters_match_the_composed_path(monkeypatch):
    ran = _count_native_steps(monkeypatch)
    fused = _front_script()
    assert sum(ran) >= 6 and not all(ran)
    monkeypatch.setattr(SparseLinearSolver, "_native_step", lambda self, *args: None)
    composed = _front_script()
    for x, y in zip(fused[0], composed[0], strict=True):
        assert np.array_equal(x, y)
    assert fused[1:] == composed[1:]
    assert fused[2]["structure_hits"] > 0 and fused[2]["value_hits"] > 0 and fused[2]["refactorizations"] > 0


# --------------------------------------------------------------------------- #
# The service
# --------------------------------------------------------------------------- #
def _service_script():
    """One scripted sequence of service requests: ``(answers, errors, counters)``."""
    A = laplacian_2d(7, shift=0.2)
    U = unsymmetric_diag_dominant(50, seed=5)
    bad = A.data.copy()
    bad[2] = np.nan
    with SolverService() as service:
        handles = [service.register_pattern(A), service.register_pattern(U, kernel="lu")]
        requests = [
            (0, A.data), (0, A.data), (0, A.data * 2.0), (1, U.data), (0, bad), (1, U.data * 3.0),
            (0, A.data * 2.0), (1, U.data * 3.0),
        ]
        answers, errors = [], []
        for k, (h, values) in enumerate(requests):
            rhs = np.cos(np.arange(handles[h].n) + k)
            if k % 2:
                future = service.submit(handles[h], values, rhs)
                if future.exception() is None:
                    answers.append(future.result())
                else:
                    errors.append(str(future.exception()))
                continue
            try:
                answers.append(service.solve(handles[h], values, rhs))
            except ValueError as exc:
                errors.append(str(exc))
        stats = service.stats()
    per_pattern = sorted(p["solves"] for p in stats["patterns"].values())
    kept = ("counters", "solves", "batch_size_histogram", "coalescing_ratio", "max_batch_size")
    return answers, errors, ({key: stats[key] for key in kept}, per_pattern, stats["latency"]["count"])


def test_service_answers_and_counters_match_the_composed_path(monkeypatch):
    ran = _count_native_steps(monkeypatch)
    fused = _service_script()
    assert ran == [True] * 7  # and the non-finite request raised from the native step
    monkeypatch.setattr(SparseLinearSolver, "_native_step", lambda self, *args: None)
    composed = _service_script()
    for x, y in zip(fused[0], composed[0], strict=True):
        assert np.array_equal(x, y)
    assert fused[1:] == composed[1:]
    counters = fused[2][0]["counters"]
    assert counters["solves_failed"] == 1 and counters["refactorizations"] == 2 and counters["value_hits"] == 5
