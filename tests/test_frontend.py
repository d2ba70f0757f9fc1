"""Tests for the lazy-specializing front end (`repro.solve` and friends)."""

import numpy as np
import pytest
import scipy.sparse as sp

import repro
from repro.compiler.codegen.c_backend import c_compiler_available, disk_cache_stats
from repro.compiler.options import SympilerOptions
from repro.compiler.sympiler import Sympiler
from repro.frontend import (
    AUTO_METHODS,
    IngestedMatrix,
    SpecializedSolver,
    as_csc,
    ingest,
    probe_structure,
    structure_fingerprint,
    sympiled,
)
from repro.service.session import SolverService
from repro.solvers.batched import BatchedSolver
from repro.solvers.cg import preconditioned_conjugate_gradient
from repro.solvers.linear_solver import SparseLinearSolver
from repro.sparse.coo import COOMatrix, TripletBuilder
from repro.sparse.csc import CSCMatrix
from repro.sparse.generators import (
    laplacian_2d,
    random_spd,
    saddle_point_indefinite,
    unsymmetric_diag_dominant,
)
from repro.sparse.permutation import Permutation


def _shared_misses() -> int:
    from repro.compiler.sympiler import _SHARED_CACHE

    return _SHARED_CACHE.stats.misses


# --------------------------------------------------------------------------- #
# Ingest layer
# --------------------------------------------------------------------------- #
class TestIngest:
    def test_csc_passthrough_is_identity(self):
        A = laplacian_2d(6)
        ing = ingest(A)
        assert ing.csc is A  # same object, no copy
        assert ing.source_format == "csc"
        assert as_csc(A) is A

    def test_scipy_formats(self):
        A = laplacian_2d(6)
        S = A.to_scipy()
        for form, tag in ((S.tocsc(), "scipy"), (S.tocsr(), "scipy"), (S.tocoo(), "scipy")):
            ing = ingest(form)
            assert ing.source_format == tag
            assert ing.csc.pattern_equal(A)
            np.testing.assert_array_equal(ing.csc.data, A.data)

    def test_coo_matrix(self):
        builder = TripletBuilder(3, 3)
        for i, j, v in [(0, 0, 4.0), (1, 1, 5.0), (2, 2, 6.0), (1, 0, 1.0)]:
            builder.add(i, j, v)
        coo = builder.to_coo()
        ing = ingest(coo)
        assert ing.source_format == "coo"
        np.testing.assert_array_equal(ing.csc.to_dense(), coo.to_csc().to_dense())

    def test_triplet_tuples(self):
        rows = np.array([0, 1, 1])
        cols = np.array([0, 0, 1])
        vals = np.array([4.0, 1.0, 3.0])
        a = as_csc((rows, cols, vals))
        b = as_csc((rows, cols, vals, (2, 2)))
        c = as_csc((vals, (rows, cols)))  # scipy-style
        ref = np.array([[4.0, 0.0], [1.0, 3.0]])
        for M in (a, b, c):
            np.testing.assert_array_equal(M.to_dense(), ref)

    def test_dense_array(self):
        D = np.array([[4.0, 1.0], [1.0, 3.0]])
        ing = ingest(D)
        assert ing.source_format == "dense"
        np.testing.assert_array_equal(ing.csc.to_dense(), D)

    def test_rejects_garbage(self):
        with pytest.raises(TypeError):
            ingest("not a matrix")
        with pytest.raises(TypeError):
            ingest(np.ones(5))  # 1-D

    def test_fingerprint_is_structural(self):
        A = laplacian_2d(6)
        B = A.with_values(A.data * 3.0)
        C = laplacian_2d(7)
        assert structure_fingerprint(A) == structure_fingerprint(B)
        assert structure_fingerprint(A) != structure_fingerprint(C)

    def test_dtype_recorded_before_coercion(self):
        D = np.array([[4, 1], [1, 3]], dtype=np.float32)
        ing = ingest(D)
        assert ing.dtype == "float32"
        assert ing.csc.data.dtype == np.float64
        assert isinstance(ing, IngestedMatrix)


# --------------------------------------------------------------------------- #
# Structural probes and auto-selection
# --------------------------------------------------------------------------- #
class TestProbes:
    def test_spd_routes_to_cholesky(self):
        assert probe_structure(laplacian_2d(8)).method == "cholesky"
        assert probe_structure(random_spd(40, 0.05, seed=1)).method == "cholesky"

    def test_symmetric_indefinite_routes_to_ldlt(self):
        assert probe_structure(saddle_point_indefinite(30, 10)).method == "ldlt"

    def test_unsymmetric_routes_to_lu(self):
        assert probe_structure(unsymmetric_diag_dominant(40)).method == "lu"

    def test_large_spd_routes_to_cholesky(self):
        # No size cutoff: 4096 SPD columns take the direct route, bitwise the
        # explicit solver's answer, never IC(0)-preconditioned CG.
        A = laplacian_2d(64)
        b = np.ones(A.n)
        front = SpecializedSolver()
        x = front.solve(A.to_scipy(), b)
        assert front.stats.methods == {"cholesky": 1}
        np.testing.assert_array_equal(x, SparseLinearSolver(A, ordering="mindeg").solve(b))

    def test_large_unsymmetric_stays_lu(self):
        # Size alone never moves a route.
        A = unsymmetric_diag_dominant(4096)
        assert probe_structure(A).method == "lu"

    def test_probe_report_fields(self):
        report = probe_structure(laplacian_2d(6))
        assert report.square and report.symmetric_pattern and report.symmetric_values
        assert report.positive_diagonal
        assert report.n == 36
        assert report.method in AUTO_METHODS
        assert report.reason

    def test_a_missing_or_nonpositive_diagonal_entry_is_not_positive(self):
        # from_dense stores no zeros: the first matrix has no (1, 1) entry.
        for dense in ([[2.0, 1.0], [1.0, 0.0]], [[2.0, 1.0], [1.0, -3.0]]):
            report = probe_structure(CSCMatrix.from_dense(np.array(dense)))
            assert not report.positive_diagonal and report.method == "ldlt"

    def test_rejects_non_square(self):
        rect = CSCMatrix.from_dense(np.ones((3, 2)))
        with pytest.raises(ValueError):
            probe_structure(rect)


# --------------------------------------------------------------------------- #
# Auto-selection is bitwise-identical to the explicit APIs, per route
# --------------------------------------------------------------------------- #
class TestAutoSelectionBitwise:
    def test_cholesky_route(self, rng):
        A = random_spd(48, 0.06, seed=7)
        b = rng.normal(size=A.n)
        front = SpecializedSolver()
        x = front.solve(A.to_scipy(), b)
        x_ref = SparseLinearSolver(A, method="cholesky", ordering="mindeg").solve(b)
        assert front.stats.methods == {"cholesky": 1}
        np.testing.assert_array_equal(x, x_ref)

    def test_ldlt_route(self, rng):
        K = saddle_point_indefinite(24, 8, seed=2)
        b = rng.normal(size=K.n)
        front = SpecializedSolver()
        x = front.solve(K.to_scipy(), b)
        x_ref = SparseLinearSolver(K, method="ldlt", ordering="mindeg").solve(b)
        assert front.stats.methods == {"ldlt": 1}
        np.testing.assert_array_equal(x, x_ref)

    def test_lu_route(self, rng):
        J = unsymmetric_diag_dominant(40, seed=3)
        b = rng.normal(size=J.n)
        front = SpecializedSolver()
        x = front.solve(J.to_scipy(), b)
        x_ref = SparseLinearSolver(J, method="lu", ordering="mindeg").solve(b)
        assert front.stats.methods == {"lu": 1}
        np.testing.assert_array_equal(x, x_ref)

    def test_pcg_route(self):
        A = laplacian_2d(9)
        b = np.ones(A.n)
        front = SpecializedSolver(method="pcg")
        x = front.solve(A.to_scipy(), b)
        ref = preconditioned_conjugate_gradient(A, b)
        assert front.stats.methods == {"pcg": 1}
        assert front.last_cg_result.converged
        np.testing.assert_array_equal(x, ref.x)

    def test_pcg_that_does_not_converge_raises(self):
        A = laplacian_2d(30)
        b = np.ones(A.n)
        front = SpecializedSolver()
        with pytest.raises(RuntimeError, match=r"did not converge: relative residual 1\.\d+ after 3 iterations"):
            front.solve(A, b, method="pcg", max_iterations=3)
        # The iterate is still there to inspect, and enough iterations converge.
        assert not front.last_cg_result.converged and front.last_cg_result.iterations == 3
        x = front.solve(A, b, method="pcg")
        assert front.last_cg_result.converged
        assert np.linalg.norm(A.matvec(x) - b) <= 1e-8 * np.linalg.norm(b)

    @pytest.mark.parametrize("max_iterations", [1, 3, 10])
    @pytest.mark.parametrize(
        "backend",
        ["python", pytest.param("c", marks=pytest.mark.skipif(not c_compiler_available("cc"), reason="no C compiler"))],
    )
    def test_the_pcg_error_names_the_last_iterate(self, backend, max_iterations):
        A = laplacian_2d(30)
        front = SpecializedSolver(options=SympilerOptions(backend=backend))
        with pytest.raises(RuntimeError, match="pcg did not converge") as raised:
            front.solve(A, np.ones(A.n), method="pcg", max_iterations=max_iterations)
        result = front.last_cg_result
        assert not result.converged and result.iterations == max_iterations
        assert f"relative residual {result.final_residual:.3g} after {max_iterations} iterations" in str(raised.value)
        assert result.final_residual > 1e-8

    def test_explicit_method_override_wins(self, rng):
        # Probes would choose cholesky for this SPD matrix; method= pins ldlt.
        A = random_spd(30, 0.08, seed=5)
        b = rng.normal(size=A.n)
        front = SpecializedSolver()
        x = front.solve(A, b, method="ldlt")
        x_ref = SparseLinearSolver(A, method="ldlt", ordering="mindeg").solve(b)
        assert front.stats.methods == {"ldlt": 1}
        np.testing.assert_array_equal(x, x_ref)

    def test_instance_method_pins_route(self, rng):
        A = random_spd(30, 0.08, seed=6)
        b = rng.normal(size=A.n)
        front = SpecializedSolver(method="lu")
        x = front.solve(A, b)
        x_ref = SparseLinearSolver(A, method="lu", ordering="mindeg").solve(b)
        np.testing.assert_array_equal(x, x_ref)

    def test_unknown_method_rejected(self):
        front = SpecializedSolver()
        with pytest.raises(ValueError):
            front.solve(laplacian_2d(4), np.ones(16), method="qr")
        with pytest.raises(ValueError):
            SpecializedSolver(method="qr")


class TestCholeskyEscape:
    def test_heuristic_misdetection_falls_back_to_ldlt(self):
        # Symmetric with a positive diagonal — the cheap SPD heuristic says
        # cholesky — but indefinite (eigenvalues 3, -1).
        D = np.array([[1.0, 2.0], [2.0, 1.0]])
        front = SpecializedSolver()
        x = front.solve(D, np.ones(2))
        assert front.stats.cholesky_escapes == 1
        assert front.stats.methods == {"ldlt": 1}
        np.testing.assert_allclose(D @ x, np.ones(2), atol=1e-12)

    def test_explicit_cholesky_still_escapes_like_auto(self):
        # The escape keys on the numeric breakdown, not on who chose the
        # method; the result must still solve the system.
        D = np.array([[1.0, 2.0], [2.0, 1.0]])
        front = SpecializedSolver()
        x = front.solve(D, np.ones(2), method="cholesky")
        np.testing.assert_allclose(D @ x, np.ones(2), atol=1e-12)


# --------------------------------------------------------------------------- #
# The pattern-only plan: no symbolic work after construction
# --------------------------------------------------------------------------- #
_SYMBOLIC_CALLS = (
    (Permutation, "symmetric_permute"),
    (CSCMatrix, "transpose"),
    (COOMatrix, "to_csc"),
    (CSCMatrix, "validate"),
)

_ROUTES = {
    "cholesky": lambda: random_spd(40, 0.06, seed=21),
    "ldlt": lambda: saddle_point_indefinite(24, 8, seed=22),
    "lu": lambda: unsymmetric_diag_dominant(40, seed=23),
}

_BACKENDS = [
    "python",
    pytest.param(
        "c", marks=pytest.mark.skipif(not c_compiler_available(), reason="no C compiler")
    ),
]


@pytest.fixture()
def symbolic_calls(monkeypatch):
    """Call counts of the symbolic / trust-boundary routines, by name."""
    counts = {name: 0 for _, name in _SYMBOLIC_CALLS}

    def counted(name, original):
        def spy(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return spy

    for owner, name in _SYMBOLIC_CALLS:
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    return counts


@pytest.mark.parametrize("backend", _BACKENDS)
@pytest.mark.parametrize("method", sorted(_ROUTES))
class TestWarmCallsDoNoSymbolicWork:
    """A warm call moves values: gathers, compiled kernels, nothing else.

    ``validate`` may run once per call — the ingest of a non-CSC input is
    the trust boundary — and never on a matrix the stack built itself.
    """

    @staticmethod
    def _assert_numeric_only(counts, *, validations):
        """Check the counts since the last check (or reset), then zero them."""
        assert counts["validate"] <= validations
        assert {**counts, "validate": 0} == dict.fromkeys(counts, 0)
        counts.update(dict.fromkeys(counts, 0))

    def test_specialized_solver_warm_calls(self, method, backend, symbolic_calls, rng):
        A = _ROUTES[method]()
        S, b = A.to_scipy(), rng.normal(size=A.n)
        front = SpecializedSolver(method=method, options=SympilerOptions(backend=backend))
        front.solve(S, b)  # cold: specialize
        S2 = S.copy()
        S2.data *= 1.5
        symbolic_calls.update(dict.fromkeys(symbolic_calls, 0))
        x = front.solve(S2, b)  # warm, new values
        assert front.stats.refactorizations == 1
        self._assert_numeric_only(symbolic_calls, validations=1)
        front.solve(S2, rng.normal(size=A.n))  # warm, rhs only
        assert front.stats.value_hits == 1
        self._assert_numeric_only(symbolic_calls, validations=1)
        assert np.linalg.norm(S2 @ x - b) <= 1e-8 * np.linalg.norm(b)

    def test_solver_factorize(self, method, backend, symbolic_calls, rng):
        A = _ROUTES[method]()
        solver = SparseLinearSolver(A, method=method, options=SympilerOptions(backend=backend))
        A2 = A.with_values(A.data * 1.5)
        P2 = solver.permutation.symmetric_permute(A2)
        expected = solver.factorization.factorize(P2)
        symbolic_calls.update(dict.fromkeys(symbolic_calls, 0))
        solver.factorize(A2)  # a CSCMatrix: no ingest, so no validation either
        self._assert_numeric_only(symbolic_calls, validations=0)
        b = rng.normal(size=A.n)
        x = solver.solve(b)
        solver.factorize(A2.to_scipy())
        self._assert_numeric_only(symbolic_calls, validations=1)
        # The gather reproduces the symbolic permutation bit for bit, and the
        # owned factors are what the artifact computes from it.
        np.testing.assert_array_equal(solver.A_permuted.data, P2.data)
        assert solver.A_permuted.pattern_equal(P2)
        L = getattr(expected, "L", expected)
        np.testing.assert_array_equal(solver.L.data, L.data)
        assert solver.L.pattern_equal(L)
        for ours, theirs in ((solver.d, getattr(expected, "d", None)), (solver.U, getattr(expected, "U", None))):
            assert (ours is None) == (theirs is None)
            if ours is not None:
                np.testing.assert_array_equal(getattr(ours, "data", ours), getattr(theirs, "data", theirs))
        np.testing.assert_array_equal(solver.solve(b), x)
        self._assert_numeric_only(symbolic_calls, validations=0)
        assert solver.residual(x, b) < 1e-8

    def test_refactorization_writes_into_the_plan_buffers(self, method, backend, rng):
        # The solver holds the same pattern-sized blocks after every call
        # (nothing for the allocator to shuffle); only the factor it hands
        # out is a fresh object, so an earlier result is never overwritten.
        A = _ROUTES[method]()
        solver = SparseLinearSolver(A, method=method, options=SympilerOptions(backend=backend))
        permuted, work = solver.A_permuted.data, solver._w
        outputs = solver._outputs
        L1 = solver.L
        before = L1.data.copy()
        L2 = solver.factorize(A.with_values(A.data * 1.5))
        assert solver.A_permuted.data is permuted and solver._w is work
        # The kernel's outputs are owned too: the same arrays, overwritten.
        assert solver._outputs is outputs and solver._L.data is outputs[0]
        assert L2 is not L1 and not np.shares_memory(L2.data, L1.data)
        np.testing.assert_array_equal(L1.data, before)
        b = rng.normal(size=A.n)
        assert solver.residual(solver.solve(b), b) < 1e-8


# --------------------------------------------------------------------------- #
# Lazy specialization: warm calls are numeric-only
# --------------------------------------------------------------------------- #
class TestLazySpecialization:
    def test_second_call_zero_compiles_zero_inspections(self, rng):
        A = random_spd(40, 0.06, seed=9)
        S = A.to_scipy()
        front = SpecializedSolver()
        front.solve(S, rng.normal(size=A.n))  # cold: specialize
        misses_before = _shared_misses()
        disk_before = disk_cache_stats().as_dict()
        x = front.solve(S, rng.normal(size=A.n))  # warm: numeric only
        assert _shared_misses() == misses_before  # zero symbolic inspections
        disk_after = disk_cache_stats().as_dict()
        assert disk_after["compiles"] == disk_before["compiles"]
        assert disk_after["py_writes"] == disk_before["py_writes"]
        assert front.stats.specializations == 1
        assert front.stats.structure_hits == 1
        assert np.isfinite(x).all()

    def test_same_values_reuse_factors(self, rng):
        A = random_spd(30, 0.08, seed=10)
        b1, b2 = rng.normal(size=A.n), rng.normal(size=A.n)
        front = SpecializedSolver()
        front.solve(A, b1)
        refact_before = front.stats.refactorizations
        front.solve(A, b2)
        assert front.stats.refactorizations == refact_before
        assert front.stats.value_hits >= 1

    def test_value_hits_count_only_genuine_reuse(self, rng):
        A = random_spd(30, 0.08, seed=10)
        front = SpecializedSolver()
        front.solve(A, rng.normal(size=A.n))  # cold: factorizes, reuses nothing
        assert front.stats.value_hits == 0
        front.solve(A, rng.normal(size=A.n))  # warm, same values
        assert front.stats.value_hits == 1

    def test_in_place_value_mutation_is_not_a_value_hit(self):
        # A CSCMatrix is ingested as the caller's own object: mutating its
        # data in place between calls must refactorize, not compare the
        # array with itself and solve with the old factors.
        A = laplacian_2d(10)
        b = np.ones(A.n)
        front = SpecializedSolver()
        front.solve(A, b)
        for refactorizations in (1, 2):  # after the cold call, after a refactor
            A.data *= 2.0
            x = front.solve(A, b)
            assert front.stats.refactorizations == refactorizations
            assert front.stats.value_hits == 0
            assert np.linalg.norm(A.matvec(x) - b) < 1e-10

    @pytest.mark.parametrize("backend", _BACKENDS)
    def test_failed_refactorization_is_never_reused(self, backend):
        # The solver counts as without factors from before the kernel runs,
        # so a kernel that raises leaves none: the same values again must fail again
        # (not count as a value hit), a direct solve must refuse, and good
        # values must recover.
        A = laplacian_2d(6)
        b = np.ones(A.n)
        front = SpecializedSolver(method="cholesky", options=SympilerOptions(backend=backend))
        front.solve(A, b)
        bad = A.with_values(-A.data)
        for _ in range(2):
            with pytest.raises(ValueError, match="not positive definite"):
                front.solve(bad, b)
        assert front.stats.value_hits == 0 and front.stats.refactorizations == 0
        x = front.solve(A, b)
        assert front.stats.refactorizations == 1
        assert np.linalg.norm(A.matvec(x) - b) < 1e-10

        solver = SparseLinearSolver(A, options=SympilerOptions(backend=backend))
        with pytest.raises(ValueError, match="not positive definite"):
            solver.factorize(bad)
        with pytest.raises(RuntimeError, match="no factors"):
            solver.solve(b)
        solver.factorize(A)
        assert solver.residual(solver.solve(b), b) < 1e-10

    @pytest.mark.skipif(not c_compiler_available("cc"), reason="no C compiler available")
    def test_threads_with_different_values_each_solve_their_own_system(self):
        # The C kernels release the GIL and the solver's buffers are in
        # place, so without the warm step's per-solver lock one thread's
        # gather lands in the middle of another's factorization (seen as
        # "not positive definite" on SPD input, or as a wrong answer).
        import sys
        import threading

        A = laplacian_2d(40, shift=0.1)
        b = np.ones(A.n)
        front = SpecializedSolver(method="cholesky", options=SympilerOptions(backend="c"))
        front.solve(A, b)
        failures = []

        def run(scale):
            mine = A.with_values(A.data * scale)
            try:
                for _ in range(200):
                    x = front.solve(mine, b)
                    residual = np.linalg.norm(mine.matvec(x) - b) / np.linalg.norm(b)
                    assert residual <= 1e-10, residual
            except Exception as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        # One thread more than this box has cores, switching often.
        threads = [threading.Thread(target=run, args=(scale,)) for scale in (1.0, 1.5, 2.0)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not failures, failures[0]

    def test_new_values_refactorize_without_respecializing(self, rng):
        A = random_spd(30, 0.08, seed=11)
        b = rng.normal(size=A.n)
        front = SpecializedSolver()
        x1 = front.solve(A, b)
        x2 = front.solve(A.with_values(A.data * 2.0), b)
        assert front.stats.specializations == 1
        assert front.stats.refactorizations == 1
        np.testing.assert_allclose(x2, x1 / 2.0, atol=1e-8)

    def test_warm_pcg_route_zero_compiles(self):
        A = laplacian_2d(8)
        b = np.ones(A.n)
        front = SpecializedSolver(method="pcg")
        front.solve(A, b)
        misses_before = _shared_misses()
        front.solve(A, b * 2.0)
        assert _shared_misses() == misses_before
        assert front.stats.structure_hits == 1

    def test_distinct_structures_specialize_separately(self, rng):
        front = SpecializedSolver()
        for n in (5, 6, 7):
            A = laplacian_2d(n)
            front.solve(A, rng.normal(size=A.n))
        assert front.stats.specializations == 3
        assert front.cache_info()["size"] == 3

    def test_repeat_check_is_exact_in_either_index_dtype(self, rng):
        # scipy hands in int32 indices: they are compared against the
        # specialization's int32 copy, int64 ones against its int64 copy,
        # and a same-size pattern that differs is a new structure either way.
        S = laplacian_2d(6).to_scipy().tocsc()
        assert S.indices.dtype == np.int32
        front = SpecializedSolver()
        front.solve(S, rng.normal(size=S.shape[0]))
        (spec,) = front._cache
        assert spec.narrow[0].dtype == spec.narrow[1].dtype == np.int32
        wide = S.copy()
        wide.indptr, wide.indices = S.indptr.astype(np.int64), S.indices.astype(np.int64)
        for A in (S, wide):
            front.solve(A, rng.normal(size=S.shape[0]))
        assert front.stats.specializations == 1 and front.stats.structure_hits == 2
        perm = rng.permutation(S.shape[0])
        shuffled = S[perm][:, perm].tocsc()
        shuffled.sort_indices()
        assert shuffled.indices.dtype == np.int32 and shuffled.nnz == S.nnz
        front.solve(shuffled, rng.normal(size=S.shape[0]))
        assert front.stats.specializations == 2 and front.stats.structure_hits == 2

    def test_lru_eviction(self, rng):
        front = SpecializedSolver(max_specializations=2)
        for n in (5, 6, 7):
            A = laplacian_2d(n)
            front.solve(A, rng.normal(size=A.n))
        assert front.cache_info()["size"] == 2
        # Oldest structure (n=5) was evicted; solving it again respecializes.
        A = laplacian_2d(5)
        front.solve(A, rng.normal(size=A.n))
        assert front.stats.specializations == 4

    def test_clear(self):
        front = SpecializedSolver()
        A = laplacian_2d(5)
        front.solve(A, np.ones(A.n))
        front.clear()
        assert front.cache_info()["size"] == 0

    def test_module_level_solve_uses_default_instance(self):
        A = laplacian_2d(5)
        before = repro.frontend.default_frontend().stats.specializations
        x = repro.solve(A, np.ones(A.n))
        assert np.isfinite(x).all()
        after = repro.frontend.default_frontend().stats.specializations
        assert after >= before


# --------------------------------------------------------------------------- #
# The @sympiled decorator
# --------------------------------------------------------------------------- #
class TestSympiledDecorator:
    def test_fixed_pattern_changing_values_loop(self):
        A0 = laplacian_2d(6)

        @sympiled
        def step(scale):
            return A0.with_values(A0.data * scale), np.ones(A0.n)

        x1 = step(1.0)
        x2 = step(2.0)
        np.testing.assert_allclose(x2, x1 / 2.0, atol=1e-8)
        info = step.cache_info()
        assert info["specializations"] == 1
        assert info["refactorizations"] == 1

    def test_with_arguments(self, rng):
        A = random_spd(24, 0.1, seed=13)

        @sympiled(method="ldlt", ordering="natural")
        def system():
            return A, np.ones(A.n)

        x = system()
        x_ref = SparseLinearSolver(A, method="ldlt", ordering="natural").solve(
            np.ones(A.n)
        )
        np.testing.assert_array_equal(x, x_ref)
        assert system.solver.method == "ldlt"

    def test_rejects_non_pair_return(self):
        @sympiled
        def broken():
            return laplacian_2d(4)

        with pytest.raises(TypeError):
            broken()


# --------------------------------------------------------------------------- #
# Ingest wired into the explicit APIs (satellite: scipy/COO everywhere)
# --------------------------------------------------------------------------- #
class TestIngestInExplicitAPIs:
    def test_sparse_linear_solver_scipy_bitwise(self, rng):
        A = laplacian_2d(7)
        b = rng.normal(size=A.n)
        x_csc = SparseLinearSolver(A).solve(b)
        x_scipy = SparseLinearSolver(A.to_scipy()).solve(b)
        np.testing.assert_array_equal(x_scipy, x_csc)

    def test_sparse_linear_solver_csc_object_unchanged(self):
        # The historical path: a CSCMatrix input is used as-is, no copy.
        A = laplacian_2d(6)
        solver = SparseLinearSolver(A)
        assert solver.A is A

    def test_refactorize_accepts_scipy(self, rng):
        A = laplacian_2d(6)
        solver = SparseLinearSolver(A)
        b = rng.normal(size=A.n)
        x1 = solver.solve(b)
        solver.factorize((A.to_scipy() * 2.0).tocsc())
        np.testing.assert_allclose(solver.solve(b), x1 / 2.0, atol=1e-8)

    def test_batched_solver_scipy_scenarios_bitwise(self, rng):
        A = laplacian_2d(6)
        scales = (1.0, 2.5, 4.0)
        csc_scenarios = [A.with_values(A.data * s) for s in scales]
        scipy_scenarios = [(A.to_scipy() * s).tocsc() for s in scales]
        b = rng.normal(size=A.n)

        batched_csc = BatchedSolver(A)
        batched_scipy = BatchedSolver(A.to_scipy())
        xs_csc = [h.solve(b) for h in batched_csc.factorize_batch(csc_scenarios)]
        xs_scipy = [h.solve(b) for h in batched_scipy.factorize_batch(scipy_scenarios)]
        for x_csc, x_scipy in zip(xs_csc, xs_scipy):
            np.testing.assert_array_equal(x_scipy, x_csc)

    def test_batched_solver_mixed_forms(self):
        A = laplacian_2d(5)
        handles = BatchedSolver(A).factorize_batch(
            [A, A.to_scipy().tocsr(), (A.to_scipy() * 2.0).tocoo()]
        )
        assert all(h.ok for h in handles)

    def test_service_register_pattern_scipy(self):
        A = laplacian_2d(6)
        svc = SolverService()
        try:
            handle = svc.register_pattern(A.to_scipy(), ordering="natural")
            x = svc.solve(handle, A.data, np.ones(A.n))
            svc_ref = svc.register_pattern(A, ordering="natural")
            assert svc_ref.handle_id == handle.handle_id  # same fingerprint
            np.testing.assert_allclose(A.matvec(x), np.ones(A.n), atol=1e-7)
        finally:
            svc.close()


def _complex_entry_points():
    """Each place a caller's matrix values or ``b`` become float64, fed a complex input, and the sparse containers."""
    A = laplacian_2d(6)
    S = (A.to_scipy() + 1j * sp.eye(A.n)).tocsc()
    T = S.tocoo()
    b = np.ones(A.n)

    def repeat_with_complex_b():
        front = SpecializedSolver()
        front.solve(A.to_scipy(), b)
        return front.solve(A.to_scipy(), b + 1j)  # the warm path's pattern match, then b

    return {
        "solve-scipy": lambda: repro.solve(S, b),
        "solve-coo-triplets": lambda: repro.solve((T.row, T.col, T.data), b),
        "solve-scipy-triplets": lambda: repro.solve((T.data, (T.row, T.col)), b),
        "solve-dense": lambda: repro.solve(S.toarray(), b),
        "solve-b": lambda: SpecializedSolver().solve(A, b + 1j),
        "solve-b-repeat": repeat_with_complex_b,
        "SparseLinearSolver": lambda: SparseLinearSolver(S),
        "SparseLinearSolver.factorize": lambda: SparseLinearSolver(A).factorize(S),
        "SparseLinearSolver.solve": lambda: SparseLinearSolver(A).solve(b + 1j),
        "SparseLinearSolver.solve_many": lambda: SparseLinearSolver(A).solve_many(np.ones((A.n, 2)) + 1j),
        "BatchedSolver.factorize_batch": lambda: BatchedSolver(A).factorize_batch(
            np.ones((2, A.nnz), dtype=complex), permuted_values=True
        ),
        "CSCMatrix": lambda: CSCMatrix(A.n, A.n, A.indptr, A.indices, A.data + 1j),
        "CSCMatrix.from_dense": lambda: CSCMatrix.from_dense(S.toarray()),
        "COOMatrix": lambda: COOMatrix(A.n, A.n, T.row, T.col, T.data),
    }


_COMPLEX_ENTRY_POINTS = _complex_entry_points()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", sorted(_COMPLEX_ENTRY_POINTS))
def test_complex_input_is_refused_naming_its_dtype(entry):
    # NumPy would keep only the real parts, warning with ComplexWarning (an error here).
    with pytest.raises(ValueError, match="complex dtype complex128"):
        _COMPLEX_ENTRY_POINTS[entry]()


# --------------------------------------------------------------------------- #
# The thread count reaches the batch entries only
# --------------------------------------------------------------------------- #
def _thread_count_entries():
    from repro.compiler.artifacts import SympiledTriangularSolve
    from repro.solvers.batched import FactorHandle
    from repro.solvers.linear_solver import map_items
    from repro.solvers.newton import newton_raphson_fixed_pattern

    serial = {
        "repro.solve": repro.solve,
        "SpecializedSolver.solve": SpecializedSolver.solve,
        "SparseLinearSolver.solve": SparseLinearSolver.solve,
        "SparseLinearSolver.step": SparseLinearSolver.step,
        "SparseLinearSolver.solve_with_factors": SparseLinearSolver.solve_with_factors,
        "FactorHandle.solve": FactorHandle.solve,
        "preconditioned_conjugate_gradient": preconditioned_conjugate_gradient,
        "SympiledTriangularSolve.solve_arrays": SympiledTriangularSolve.solve_arrays,
        "newton_raphson_fixed_pattern": newton_raphson_fixed_pattern,
    }
    batch = {
        "BatchedSolver": BatchedSolver,
        "SparseLinearSolver.solve_many": SparseLinearSolver.solve_many,
        "map_items": map_items,
    }
    return serial, batch


_SERIAL_ENTRIES, _BATCH_ENTRIES = _thread_count_entries()


@pytest.mark.parametrize("name", sorted(_SERIAL_ENTRIES))
def test_a_serial_entry_takes_no_thread_count(name):
    """Every kernel is serial, so a ``num_threads`` here would reach no thread."""
    import inspect

    assert "num_threads" not in inspect.signature(_SERIAL_ENTRIES[name]).parameters


@pytest.mark.parametrize("name", sorted(_BATCH_ENTRIES))
def test_a_batch_entry_takes_a_thread_count(name):
    """The batch entries map independent items over ``map_items``, the one thread mechanism."""
    import inspect

    assert "num_threads" in inspect.signature(_BATCH_ENTRIES[name]).parameters


# --------------------------------------------------------------------------- #
# Property tests: generated matrices, probe vs. explicit API, bitwise
# --------------------------------------------------------------------------- #
_PROPERTY_CASES = [
    ("spd-random", lambda: random_spd(36, 0.08, seed=21), "cholesky"),
    ("spd-laplacian", lambda: laplacian_2d(7), "cholesky"),
    ("sym-indefinite", lambda: saddle_point_indefinite(20, 8, seed=22), "ldlt"),
    ("unsym-diag-dominant", lambda: unsymmetric_diag_dominant(44, seed=23), "lu"),
]


class TestSelectionProperties:
    @pytest.mark.parametrize(
        "make,expected", [(m, e) for _, m, e in _PROPERTY_CASES],
        ids=[name for name, _, _ in _PROPERTY_CASES],
    )
    def test_probe_matches_explicit_api_bitwise(self, make, expected, rng):
        A = make()
        b = rng.normal(size=A.n)
        assert probe_structure(A).method == expected
        front = SpecializedSolver()
        x = front.solve(sp.csc_matrix(A.to_scipy()), b)
        x_ref = SparseLinearSolver(A, method=expected, ordering="mindeg").solve(b)
        np.testing.assert_array_equal(x, x_ref)

    def test_large_sparse_goes_iterative(self):
        A = laplacian_2d(12)  # n = 144
        b = np.ones(A.n)
        front = SpecializedSolver(method="pcg")
        x = front.solve(A, b)
        ref = preconditioned_conjugate_gradient(A, b)
        assert front.stats.methods == {"pcg": 1}
        np.testing.assert_array_equal(x, ref.x)

    @pytest.mark.parametrize("method", ["cholesky", "ldlt", "pcg"])
    def test_override_beats_probe_everywhere(self, method, rng):
        A = laplacian_2d(7)  # probes say cholesky
        b = rng.normal(size=A.n)
        front = SpecializedSolver()
        x = front.solve(A, b, method=method)
        if method == "pcg":
            x_ref = preconditioned_conjugate_gradient(A, b).x
        else:
            x_ref = SparseLinearSolver(A, method=method, ordering="mindeg").solve(b)
        assert front.stats.methods == {method: 1}
        np.testing.assert_array_equal(x, x_ref)
