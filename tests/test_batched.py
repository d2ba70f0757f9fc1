"""Tests for the batched solver (``BatchedSolver``, ``map_items``, ensemble Newton).

The acceptance bar: ``factorize_batch`` over >= 8 value sets is bitwise
identical per item to sequential ``factorize`` on both ways items run (the
loop, threaded C), with per-item error isolation and deterministic result
ordering.
"""

import threading

import numpy as np
import pytest

from repro.compiler.cache import _cpu_count
from repro.compiler.codegen.c_backend import c_compiler_available, resolve_num_threads
from repro.compiler.options import SympilerOptions
from repro.solvers.batched import BatchedSolver
from repro.solvers.linear_solver import SparseLinearSolver
from repro.solvers.newton import newton_raphson_ensemble
from repro.sparse.generators import (
    laplacian_2d,
    laplacian_3d,
    saddle_point_indefinite,
    unsymmetric_diag_dominant,
)

needs_cc = pytest.mark.skipif(
    not c_compiler_available("cc"), reason="no C compiler available"
)

BATCH = 9  # >= 8 per the acceptance criterion


def _spd_scenarios(A, batch=BATCH):
    """Same-pattern SPD value sets (diagonal sweep keeps them SPD)."""
    out = []
    for b in range(batch):
        data = A.data.copy()
        diag_scale = 1.0 + 0.05 * b
        for j in range(A.n):
            sl = A.col_slice(j)
            rows = A.indices[sl.start : sl.stop]
            k = int(np.nonzero(rows == j)[0][0])
            data[sl.start + k] *= diag_scale
        out.append(A.with_values(data))
    return out


def _assert_bitwise_vs_sequential(batched: BatchedSolver, scenarios):
    seq = SparseLinearSolver(
        batched.A,
        method=batched.method,
        ordering="natural",
        options=batched.solver.options,
    )
    handles = batched.factorize_batch(scenarios)
    assert [h.index for h in handles] == list(range(len(scenarios)))
    for handle, M in zip(handles, scenarios):
        assert handle.ok
        seq.factorize(M)
        assert np.array_equal(handle.L.data, seq.L.data)
        if seq.d is not None:
            assert np.array_equal(handle.d, seq.d)
        if seq.U is not None:
            assert np.array_equal(handle.U.data, seq.U.data)
    return handles


class TestBitwiseIdentity:
    def test_python_simplicial_cholesky(self):
        A = laplacian_2d(9, shift=0.1)
        options = SympilerOptions(backend="python", enable_vs_block=False)
        batched = BatchedSolver(A, ordering="natural", options=options)
        _assert_bitwise_vs_sequential(batched, _spd_scenarios(A))

    def test_python_serial_supernodal_cholesky(self):
        A = laplacian_2d(9, shift=0.1)
        options = SympilerOptions(backend="python")  # VS-Block may participate
        batched = BatchedSolver(A, ordering="natural", options=options)
        _assert_bitwise_vs_sequential(batched, _spd_scenarios(A))

    def test_python_ldlt(self):
        K = saddle_point_indefinite(28, 10, seed=5)
        options = SympilerOptions(backend="python", enable_vs_block=False)
        batched = BatchedSolver(K, method="ldlt", ordering="natural", options=options)
        handles = _assert_bitwise_vs_sequential(batched, _spd_scenarios(K))
        assert all(h.d is not None for h in handles)

    def test_python_lu(self):
        J = unsymmetric_diag_dominant(50, seed=6)
        options = SympilerOptions(backend="python", enable_vs_block=False)
        batched = BatchedSolver(J, method="lu", ordering="natural", options=options)
        handles = _assert_bitwise_vs_sequential(
            batched, [J.with_values(J.data * (1.0 + 0.1 * b)) for b in range(BATCH)]
        )
        assert all(h.U is not None for h in handles)

    @needs_cc
    def test_c_threaded_cholesky(self):
        A = laplacian_2d(9, shift=0.1)
        options = SympilerOptions(backend="c")
        batched = BatchedSolver(A, ordering="natural", options=options, num_threads=4)
        assert batched.num_threads == 4
        _assert_bitwise_vs_sequential(batched, _spd_scenarios(A))

    @needs_cc
    def test_c_threaded_lu(self):
        J = unsymmetric_diag_dominant(60, seed=8)
        options = SympilerOptions(backend="c")
        batched = BatchedSolver(J, method="lu", ordering="natural", options=options, num_threads=2)
        _assert_bitwise_vs_sequential(
            batched, [J.with_values(J.data * (1.0 + 0.1 * b)) for b in range(BATCH)]
        )

    @needs_cc
    @pytest.mark.parametrize(
        "method,A",
        [("cholesky", laplacian_3d(9)), ("ldlt", saddle_point_indefinite(100, 60, coupling_per_row=5, seed=3))],
        ids=["llt-laplacian_3d", "ldlt-saddle_point"],
    )
    def test_every_supernode_update_kind_matches_python_on_one_and_two_threads(self, method, A):
        """Wide and width-1 target supernodes, each updated by wide and width-1
        descendants: the C panels agree with the python backend's to the bit,
        on one thread and on two."""
        scenarios = _spd_scenarios(A, batch=4)
        python = SparseLinearSolver(A, method=method, options=SympilerOptions(backend="python"))
        expected = []
        for M in scenarios:
            python.factorize(M)
            expected.append((python.L.data.copy(), python.d))
        for num_threads in (1, 2):
            options = SympilerOptions(backend="c")
            batched = BatchedSolver(A, method=method, options=options, num_threads=num_threads)
            for handle, (L, d) in zip(batched.factorize_batch(scenarios), expected):
                assert handle.ok and np.array_equal(handle.L.data, L)
                assert (handle.d is None) == (d is None) and (d is None or np.array_equal(handle.d, d))
        T = batched.solver._factorization.constants
        width = T["_C_sup_end"] - T["_C_sup_start"]
        target = np.repeat(np.arange(width.size), np.diff(T["_C_desc_ptr"]))
        kinds = set(zip(width[target] > 1, width[T["_C_desc_sup"]] > 1))
        assert kinds == {(True, True), (True, False), (False, True), (False, False)}

    @needs_cc
    def test_generated_c_work_buffers_are_thread_local(self):
        """The reentrancy contract the threaded path relies on."""
        A = laplacian_2d(6, shift=0.1)
        options = SympilerOptions(backend="c")
        artifact = BatchedSolver(A, ordering="natural", options=options).solver._factorization
        assert "_Thread_local" in artifact.source


class TestErrorIsolation:
    @pytest.mark.parametrize("backend", ["python", pytest.param("c", marks=needs_cc)])
    def test_singular_item_is_isolated_loop(self, backend):
        K = saddle_point_indefinite(24, 8, seed=2)
        options = SympilerOptions(backend=backend, enable_vs_block=False)
        batched = BatchedSolver(K, method="ldlt", ordering="natural", options=options)
        scenarios = _spd_scenarios(K)
        scenarios[3] = K.with_values(np.zeros(K.nnz))
        handles = batched.factorize_batch(scenarios)
        assert [h.ok for h in handles] == [i != 3 for i in range(BATCH)]
        assert "singular" in str(handles[3].error)
        # Failed handles refuse to solve but keep their error chained.
        with pytest.raises(RuntimeError, match="batch item 3"):
            handles[3].solve(np.ones(K.n))
        # Healthy neighbours still solve to full accuracy.
        b = np.ones(K.n)
        x = handles[2].solve(b)
        r = scenarios[2].matvec(x) - b
        assert np.linalg.norm(r) < 1e-7

    @needs_cc
    def test_singular_item_is_isolated_threads(self):
        K = saddle_point_indefinite(24, 8, seed=2)
        options = SympilerOptions(backend="c")
        batched = BatchedSolver(K, method="ldlt", ordering="natural", options=options, num_threads=2)
        scenarios = _spd_scenarios(K)
        scenarios[0] = K.with_values(np.zeros(K.nnz))
        handles = batched.factorize_batch(scenarios)
        assert not handles[0].ok and all(h.ok for h in handles[1:])
        assert "singular" in str(handles[0].error)


class TestFacade:
    def test_rejects_pattern_mismatch(self):
        A = laplacian_2d(6, shift=0.1)
        B = laplacian_2d(7, shift=0.1)
        batched = BatchedSolver(A, options=SympilerOptions())
        with pytest.raises(ValueError, match="scenario 0"):
            batched.factorize_batch([B])

    def test_accepts_raw_value_array_batch_with_explicit_flag(self):
        A = laplacian_2d(6, shift=0.1)
        options = SympilerOptions(backend="python", enable_vs_block=False)
        batched = BatchedSolver(A, ordering="natural", options=options)
        permuted = batched.solver.A_permuted
        values = np.stack([permuted.data * (1.0 + 0.1 * b) for b in range(4)])
        # Raw arrays are position-order ambiguous: the flag is mandatory.
        with pytest.raises(ValueError, match="permuted_values=True"):
            batched.factorize_batch(values)
        handles = batched.factorize_batch(values, permuted_values=True)
        assert all(h.ok for h in handles)
        with pytest.raises(ValueError, match="permuted pattern"):
            batched.factorize_batch(values[:, :-1], permuted_values=True)

    def test_value_gather_matches_symmetric_permute(self):
        """The precomputed gather is exactly symmetric_permute on values."""
        A = laplacian_2d(7, shift=0.1)
        batched = BatchedSolver(A, options=SympilerOptions())  # mindeg ordering
        rng = np.random.default_rng(11)
        M = A.with_values(A.data + 0.001 * rng.standard_normal(A.nnz))
        expected = batched.solver.permutation.symmetric_permute(M).data
        assert np.array_equal(batched.solver.permute_values(M.data), expected)

    def test_solve_many_matches_column_solves(self):
        A = laplacian_2d(7, shift=0.1)
        batched = BatchedSolver(A, options=SympilerOptions())
        B = np.eye(A.n)[:, :5]
        X = batched.solve_many(B)
        for k in range(5):
            assert np.array_equal(X[:, k], batched.solver.solve(B[:, k]))

    def test_resolve_num_threads(self):
        assert resolve_num_threads(None) == 1
        assert resolve_num_threads(3) == 3
        assert resolve_num_threads(0) >= 1
        with pytest.raises(ValueError):
            resolve_num_threads(-1)
        with pytest.raises(ValueError, match="non-negative"):
            BatchedSolver(laplacian_2d(4), num_threads=-2)

    @pytest.mark.parametrize("num_threads", [1, 2])
    @pytest.mark.parametrize("backend", ["python", pytest.param("c", marks=needs_cc)])
    def test_empty_batch(self, backend, num_threads):
        A = laplacian_2d(5, shift=0.1)
        options = SympilerOptions(backend=backend)
        batched = BatchedSolver(A, ordering="natural", options=options, num_threads=num_threads)
        assert batched.factorize_batch([]) == []


class TestEnsembleNewton:
    @staticmethod
    def _make_scenario(A, diag_positions, s):
        """A mildly nonlinear scenario: F(x) = A x + c tanh(x) - b_s."""
        rng = np.random.default_rng(100 + s)
        b = rng.standard_normal(A.n)
        c = 0.2 + 0.05 * s

        def residual(x):
            return A.matvec(x) + c * np.tanh(x) - b

        def jacobian(x):
            data = A.data.copy()
            data[diag_positions] += c / np.cosh(x) ** 2
            return A.with_values(data)

        return residual, jacobian

    def _diag_positions(self, A):
        return np.array(
            [
                A.indptr[j] + int(np.nonzero(A.col_rows(j) == j)[0][0])
                for j in range(A.n)
            ]
        )

    def test_ensemble_converges_all_scenarios(self):
        A = unsymmetric_diag_dominant(40, seed=21)
        dp = self._diag_positions(A)
        fns = [self._make_scenario(A, dp, s) for s in range(5)]
        results = newton_raphson_ensemble(
            [f for f, _ in fns],
            [j for _, j in fns],
            [np.zeros(A.n)] * 5,
            method="lu",
            tol=1e-10,
            max_iterations=30,
        )
        assert len(results) == 5
        for s, res in enumerate(results):
            assert res.converged, f"scenario {s} did not converge"
            assert res.factorizations >= 1
            F, _ = fns[s]
            assert np.linalg.norm(F(res.x)) <= 1e-10

    def test_ensemble_isolates_singular_scenario(self):
        A = unsymmetric_diag_dominant(30, seed=22)
        dp = self._diag_positions(A)
        good = [self._make_scenario(A, dp, s) for s in range(3)]

        def bad_jacobian(x):
            return A.with_values(np.zeros(A.nnz))

        residuals = [good[0][0], good[1][0], good[2][0]]
        jacobians = [good[0][1], bad_jacobian, good[2][1]]
        results = newton_raphson_ensemble(
            residuals,
            jacobians,
            [np.zeros(A.n)] * 3,
            method="lu",
            tol=1e-10,
            max_iterations=20,
        )
        assert results[0].converged and results[2].converged
        assert not results[1].converged
        assert results[1].factorizations == 0

    def test_ensemble_validates_lengths_and_empty(self):
        with pytest.raises(ValueError, match="equal length"):
            newton_raphson_ensemble([lambda x: x], [], [])
        assert newton_raphson_ensemble([], [], []) == []


class TestThreadCountIsACallArgument:
    def test_thread_counts_share_one_artifact(self):
        A = laplacian_2d(6, shift=0.1)
        first = BatchedSolver(A, num_threads=1)
        second = BatchedSolver(A, num_threads=4)
        # The thread count changes no generated code: same artifact, a cache hit.
        assert second.solver._factorization is first.solver._factorization

    def test_facade_threads_follow_the_argument_despite_cache_hit(self):
        A = laplacian_2d(6, shift=0.1)
        BatchedSolver(A, num_threads=1)
        again = BatchedSolver(A, num_threads=3)
        # The second construction hits the shared artifact cache (first used
        # at num_threads=1); the batched solver must still honour the request.
        assert again.num_threads == 3

    @pytest.mark.parametrize("entry", ["solve_many", "factorize_batch"])
    @pytest.mark.parametrize(
        "argument, env, expected",
        [(3, "5", 3), (None, "5", 5), (None, None, 1), (0, None, "cpus")],
        ids=["argument-wins", "env-when-unset", "one-by-default", "zero-is-one-per-cpu"],
    )
    def test_batch_entries_map_with_argument_then_env_then_one(self, entry, argument, env, expected, monkeypatch):
        from repro.solvers import batched as batched_module
        from repro.solvers import linear_solver

        if env is None:
            monkeypatch.delenv("REPRO_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("REPRO_NUM_THREADS", env)
        seen = []
        honest = linear_solver.map_items

        def recording(fn, items, *, artifact, num_threads):
            seen.append(num_threads)
            return honest(fn, items, artifact=artifact, num_threads=num_threads)

        monkeypatch.setattr(linear_solver, "map_items", recording)
        monkeypatch.setattr(batched_module, "map_items", recording)
        A = laplacian_2d(5, shift=0.1)
        if entry == "solve_many":
            SparseLinearSolver(A).solve_many(np.ones((A.n, 2)), num_threads=argument)
        else:
            BatchedSolver(A, num_threads=argument).factorize_batch(_spd_scenarios(A, batch=2))
        assert seen == [_cpu_count() if expected == "cpus" else expected]

    def test_a_batch_regenerates_no_code(self):
        """Batching reuses the one compiled kernel: no cache miss, no cc, no module rewrite."""
        from repro.compiler.codegen.c_backend import disk_cache_stats

        A = laplacian_2d(9, shift=0.1)
        batched = BatchedSolver(A, ordering="natural", num_threads=2)
        disk_before = disk_cache_stats().as_dict()
        misses_before = batched.solver.cache_stats.misses
        assert all(handle.ok for handle in batched.factorize_batch(_spd_scenarios(A)))
        disk_after = disk_cache_stats().as_dict()
        assert disk_after["compiles"] == disk_before["compiles"]
        assert disk_after["py_writes"] == disk_before["py_writes"]
        assert batched.solver.cache_stats.misses == misses_before


class TestThreadResolution:
    """The one precedence of the batch entries' thread count: argument, then ``REPRO_NUM_THREADS``, then 1."""

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "7")
        assert resolve_num_threads(3) == 3

    def test_env_override_applies_when_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "7")
        assert resolve_num_threads(None) == 7

    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_NUM_THREADS", raising=False)
        assert resolve_num_threads(None) == 1

    def test_zero_means_one_per_cpu(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "0")
        assert resolve_num_threads(None) == _cpu_count()
        assert resolve_num_threads(0) == _cpu_count()

    def test_zero_counts_the_cpus_this_process_may_run_on(self, cpus, monkeypatch):
        # One CPU in the affinity mask of a machine with more: one worker, the count the build uses.
        cpus(1)
        monkeypatch.setenv("REPRO_NUM_THREADS", "0")
        assert _cpu_count() == 1
        assert resolve_num_threads(0) == resolve_num_threads(None) == 1
        assert BatchedSolver(laplacian_2d(5, shift=0.1), num_threads=0).num_threads == 1

    @needs_cc
    def test_zero_starts_no_thread_on_one_allowed_cpu(self, cpus, monkeypatch):
        A = laplacian_2d(6, shift=0.1)
        solver = SparseLinearSolver(A, options=SympilerOptions(backend="c"))
        B = np.ones((A.n, 3))
        cpus(1)
        started, start = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread) or start(thread))
        X = solver.solve_many(B, num_threads=0)
        assert started == []
        assert all(solver.residual(X[:, k], B[:, k]) <= 1e-10 for k in range(3))

    def test_garbage_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "many")
        with pytest.raises(ValueError, match="REPRO_NUM_THREADS"):
            resolve_num_threads(None)

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            resolve_num_threads(-2)

    @pytest.mark.parametrize(
        "env, expected",
        [
            ("abc", "REPRO_NUM_THREADS must be an integer, got 'abc'"),
            ("-1", "num_threads must be non-negative"),
            ("", 1),  # blank is unset
            (" 2 ", 2),
        ],
    )
    def test_one_parser_of_the_environment(self, env, expected, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", env)
        if isinstance(expected, str):
            with pytest.raises(ValueError, match=expected):
                resolve_num_threads(None)
            return
        assert resolve_num_threads(None) == expected

    def test_batch_argument_then_env_then_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "5")
        A = laplacian_2d(8, shift=0.1)
        options = SympilerOptions(backend="python")
        assert BatchedSolver(A, options=options).num_threads == 5
        assert BatchedSolver(A, options=options, num_threads=3).num_threads == 3
        monkeypatch.delenv("REPRO_NUM_THREADS")
        assert BatchedSolver(A, options=options).num_threads == 1
        assert BatchedSolver(A, options=options, num_threads=0).num_threads == _cpu_count()


class TestEnsembleFirstScenarioSingular:
    def test_singular_first_jacobian_is_isolated_not_fatal(self):
        """Solver construction happens outside batch isolation; guard it."""
        A = unsymmetric_diag_dominant(30, seed=23)
        dp = TestEnsembleNewton._diag_positions(TestEnsembleNewton(), A)
        good = [TestEnsembleNewton._make_scenario(A, dp, s) for s in range(2)]

        def bad_jacobian(x):
            return A.with_values(np.zeros(A.nnz))

        results = newton_raphson_ensemble(
            [good[0][0], good[0][0], good[1][0]],
            [bad_jacobian, good[0][1], good[1][1]],
            [np.zeros(A.n)] * 3,
            method="lu",
            tol=1e-10,
            max_iterations=20,
        )
        assert not results[0].converged
        assert results[1].converged and results[2].converged
