"""Serving-layer tests: registration, solves on the caller's thread, admission, eviction, metrics."""

from __future__ import annotations

import gc
import inspect
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from repro.compiler.codegen.c_backend import c_compiler_available, disk_cache_stats
from repro import observe
from repro.compiler.options import SympilerOptions
from repro.observe import percentile
from repro.observe.registry import get_registry
from repro.observe.exporters import prometheus_text, snapshot
from repro.observe.registry import MetricsRegistry
from repro.service import (
    PatternEvictedError,
    ServiceClient,
    ServiceClosedError,
    ServiceOverloadedError,
    ShardFleet,
    SolverService,
)
from repro.service.admission import RETRY_AFTER_SECONDS, AdmissionController
from repro.solvers.linear_solver import SparseLinearSolver
from repro.frontend import SpecializedSolver
from repro.sparse.generators import (
    fem_stencil_2d,
    laplacian_2d,
    saddle_point_indefinite,
    unsymmetric_diag_dominant,
)


_BACKENDS = [
    "python",
    pytest.param(
        "c",
        marks=pytest.mark.skipif(
            not c_compiler_available("cc"), reason="no C compiler available"
        ),
    ),
]


def _service(**kwargs):
    kwargs.setdefault("options", SympilerOptions(enable_vs_block=False))
    return SolverService(**kwargs)


def _count(svc, name):
    """One named counter of ``svc``, as its ``stats()`` reports it (0 when never bumped)."""
    return svc.stats()["counters"].get(name, 0)


class TestRegistration:
    def test_register_returns_metadata(self):
        A = laplacian_2d(8, shift=0.1)
        with _service() as svc:
            handle = svc.register_pattern(A)
            assert handle.kernel == "cholesky"
            assert handle.n == A.n and handle.nnz == A.nnz
            assert handle.factor_nnz > 0
            assert len(handle.fingerprint) == 16
            assert len(handle.handle_id) == 16

    def test_repeat_registration_shares_the_entry(self):
        A = laplacian_2d(8, shift=0.1)
        with _service() as svc:
            first = svc.register_pattern(A)
            second = svc.register_pattern(A)
            assert first.handle_id == second.handle_id
            assert _count(svc, "registrations") == 2
            assert _count(svc, "compile_warm") >= 1

    def test_distinct_options_register_distinct_entries(self):
        A = laplacian_2d(8, shift=0.1)
        with _service() as svc:
            first = svc.register_pattern(A)
            second = svc.register_pattern(
                A, options=SympilerOptions(enable_vs_block=False, enable_vi_prune=False)
            )
            assert first.handle_id != second.handle_id

    def test_concurrent_registration_collapses_to_one_compile(self):
        """Racing registrations of one pattern share one entry and artifacts."""
        A = fem_stencil_2d(8, shift=0.3)
        with _service() as svc:
            barrier = threading.Barrier(4)
            handles = [None] * 4
            errors = []

            def register(i):
                try:
                    barrier.wait(timeout=10)
                    handles[i] = svc.register_pattern(A)
                except Exception as exc:  # pragma: no cover - failure detail
                    errors.append(exc)

            threads = [threading.Thread(target=register, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not errors
            assert all(h is not None for h in handles)
            assert len({h.handle_id for h in handles}) == 1
            # One build: exactly one cold registration, the rest warm/coalesced.
            assert _count(svc, "compile_cold") <= 1
            assert _count(svc, "registrations") == 4

    def test_closed_service_rejects_registration(self):
        svc = _service()
        svc.close()
        with pytest.raises(ServiceClosedError):
            svc.register_pattern(laplacian_2d(6, shift=0.1))

    def test_default_ordering_is_mindeg(self):
        A = laplacian_2d(8, shift=0.1)
        options = SympilerOptions(enable_vs_block=False)
        b = np.cos(np.arange(A.n))
        with _service(options=options) as svc:
            handle = svc.register_pattern(A)
            assert handle.ordering == "mindeg"
            assert handle.handle_id == svc.register_pattern(A, ordering="mindeg").handle_id
            x = svc.solve(handle, A.data, b)
        ref = SparseLinearSolver(A, ordering="mindeg", options=options)
        assert np.array_equal(x, ref.solve(b))

    def test_scipy_and_dense_inputs_register_the_same_pattern(self):
        A = laplacian_2d(7, shift=0.1)
        with _service() as svc:
            handle = svc.register_pattern(A)
            for other in (A.to_scipy(), A.to_dense()):
                assert svc.register_pattern(other).handle_id == handle.handle_id
            assert svc.stats()["registered_patterns"] == 1

    def test_max_patterns_below_one_registers_no_collector(self):
        before = sorted(get_registry().collect())
        with pytest.raises(ValueError):
            SolverService(max_patterns=0)
        assert sorted(get_registry().collect()) == before


class TestSolve:
    def test_solve_matches_direct_solver(self):
        A = laplacian_2d(9, shift=0.1)
        with _service() as svc:
            handle = svc.register_pattern(A, ordering="natural")
            rhs = np.linspace(1.0, 2.0, A.n)
            x = svc.solve(handle, A.data, rhs)
            ref = SparseLinearSolver(
                A, ordering="natural", options=SympilerOptions(enable_vs_block=False)
            )
            assert np.array_equal(x, ref.solve(rhs))

    def test_the_cholesky_kernel_reads_only_the_lower_triangle(self):
        """An entry stored above the diagonal alone is never read: ``x`` solves ``tril(A)`` mirrored."""
        import scipy.sparse as sp

        S = laplacian_2d(10, shift=0.1).to_scipy().tolil()
        S[0, 5] = 7.0  # (5, 0) stays out of the pattern
        S = S.tocsc()
        b = np.ones(S.shape[0])
        with _service() as svc:
            handle = svc.register_pattern(S, kernel="cholesky")
            x = svc.solve(handle, S.data, b)
        mirrored = sp.tril(S) + sp.tril(S, -1).T
        assert np.linalg.norm(mirrored @ x - b) <= 1e-12 * np.linalg.norm(b)
        assert np.linalg.norm(S @ x - b) > 1.0

    def test_sequential_submits_are_bitwise_identical_to_the_solver(self):
        """Every submit returns a resolved future holding the solver's bits."""
        A = laplacian_2d(9, shift=0.1)
        scales = 1.0 + 0.05 * np.arange(10)
        rhs_list = [np.sin(np.arange(A.n) * 0.1 * (k + 1)) for k in range(10)]
        ref = SparseLinearSolver(
            A, ordering="natural", options=SympilerOptions(enable_vs_block=False)
        )
        expected = []
        for s, b in zip(scales, rhs_list):
            ref.factorize(A.with_values(A.data * s))
            expected.append(ref.solve(b))
        with _service() as svc:
            handle = svc.register_pattern(A, ordering="natural")
            futures = [svc.submit(handle, A.data * s, b) for s, b in zip(scales, rhs_list)]
            assert all(f.done() for f in futures)
            stats = svc.stats()
        for future, x in zip(futures, expected):
            assert np.array_equal(future.result(), x)
        # Every solve is a dispatch of its own.
        assert stats["batch_size_histogram"] == {"1": 10}
        assert stats["coalescing_ratio"] == 1.0

    def test_complex_input_is_refused_naming_its_dtype(self):
        """Complex values or a complex rhs raise; neither is solved as its real part."""
        A = laplacian_2d(8, shift=0.1)
        rhs = np.ones(A.n)
        with _service() as svc:
            handle = svc.register_pattern(A)
            for call in (svc.solve, svc.submit):
                with pytest.raises(ValueError, match="values has complex dtype complex128"):
                    call(handle, A.data * (1 + 1j), rhs)
                with pytest.raises(ValueError, match="rhs has complex dtype complex128"):
                    call(handle, A.data, rhs + 1j)
            assert svc.admission.in_flight == 0
            assert np.isfinite(svc.solve(handle, A.data, rhs)).all()

    def test_per_request_error_isolation(self):
        """A singular request fails alone; the requests around it complete."""
        A = laplacian_2d(7, shift=0.1)
        bad = A.data.copy()
        bad[:] = 0.0  # zero matrix: the Cholesky kernel must reject it
        with _service() as svc:
            handle = svc.register_pattern(A)
            rhs = np.ones(A.n)
            futures = [
                svc.submit(handle, A.data, rhs),
                svc.submit(handle, bad, rhs),
                svc.submit(handle, A.data * 2.0, rhs),
            ]
            good0 = futures[0].result()
            good2 = futures[2].result()
            with pytest.raises(Exception):
                futures[1].result()
        assert np.isfinite(good0).all() and np.isfinite(good2).all()
        assert np.allclose(good0, good2 * 2.0, atol=1e-8)
        assert _count(svc, "solves_failed") == 1
        assert _count(svc, "solves_ok") == 2

    def test_shape_validation_raises_synchronously(self):
        A = laplacian_2d(6, shift=0.1)
        with _service() as svc:
            handle = svc.register_pattern(A)
            with pytest.raises(ValueError):
                svc.submit(handle, A.data[:-1], np.ones(A.n))
            with pytest.raises(ValueError):
                svc.submit(handle, A.data, np.ones(A.n - 1))
            # Failed validation must not leak admission slots.
            assert svc.admission.in_flight == 0

    def test_zero_copy_out_row_is_the_result(self):
        """solve(out=...) writes the solution into the caller's buffer."""
        A = laplacian_2d(6, shift=0.1)
        ref = SparseLinearSolver(A, ordering="natural")
        rhs = np.ones(A.n)
        block = np.empty((2, A.n))
        x = ref.solve(rhs, out=block[1])
        assert x.base is block
        assert np.array_equal(block[1], ref.solve(rhs))

    def test_the_answer_does_not_alias_the_callers_buffers(self):
        """The caller may refill both buffers as soon as submit returns."""
        A = laplacian_2d(8, shift=0.1)
        with _service() as svc:
            handle = svc.register_pattern(A)
            values, rhs = A.data * 2.0, np.ones(A.n)
            expected = svc.solve(handle, values, rhs).copy()
            future = svc.submit(handle, values, rhs)
            values[:] = 0.0
            rhs[:] = 5.0
            assert np.array_equal(future.result(), expected)


_SYSTEMS = {
    "cholesky": lambda: laplacian_2d(8, shift=0.1),
    "ldlt": lambda: saddle_point_indefinite(24, 8, seed=3),
    "lu": lambda: unsymmetric_diag_dominant(50, seed=4),
}


class TestSinglePath:
    """Service, front end and solver are one numeric path (the warm step)."""

    @pytest.mark.parametrize("backend", _BACKENDS)
    @pytest.mark.parametrize("kernel", sorted(_SYSTEMS))
    def test_service_frontend_and_solver_agree_bitwise(self, kernel, backend):
        A = _SYSTEMS[kernel]()
        options = SympilerOptions(backend=backend)
        rng = np.random.default_rng(7)
        # New values, the same again (sweeps only), new values, back again.
        scales = (1.5, 1.5, 0.75, 1.5)
        steps = [(A.data * s, rng.standard_normal(A.n)) for s in scales]
        solver = SparseLinearSolver(A, method=kernel, ordering="mindeg", options=options)
        front = SpecializedSolver(method=kernel, ordering="mindeg", options=options)
        front.solve(A, np.ones(A.n))  # specialize on A's own values, as the other two do
        with SolverService(options=options) as svc:
            handle = svc.register_pattern(A, kernel=kernel, ordering="mindeg")
            for values, b in steps:
                x, _ = solver.step(values, b)
                assert np.linalg.norm(A.with_values(values).matvec(x) - b) < 1e-8
                assert np.array_equal(front.solve(A.with_values(values), b), x)
                assert np.array_equal(svc.solve(handle, values, b, timeout=30), x)
            counters = svc.stats()["counters"]
        assert counters["refactorizations"] == front.stats.refactorizations == 3
        assert counters["value_hits"] == 1

    def test_unchanged_values_run_no_factorization(self):
        A = laplacian_2d(8, shift=0.1)
        b = np.ones(A.n)
        with _service() as svc:
            handle = svc.register_pattern(A)

            def counts():
                counters = svc.stats()["counters"]
                return counters.get("refactorizations", 0), counters.get("value_hits", 0)

            svc.solve(handle, A.data * 2.0, b, timeout=30)
            assert counts() == (1, 0)
            svc.solve(handle, A.data * 2.0, 2.0 * b, timeout=30)
            assert counts() == (1, 1)  # same values: the solve entry only
            svc.solve(handle, A.data * 3.0, b, timeout=30)
            assert counts() == (2, 1)  # changed values: exactly one kernel run

    @pytest.mark.parametrize("backend", _BACKENDS)
    def test_failed_values_fail_alone_and_again(self, backend):
        A = laplacian_2d(7, shift=0.1)
        b = np.ones(A.n)
        good, bad = A.data * 2.0, np.zeros(A.nnz)
        options = SympilerOptions(backend=backend, enable_vs_block=False)
        with _service(options=options) as svc:
            handle = svc.register_pattern(A)
            futures = [svc.submit(handle, v, b) for v in (good, bad, bad, good)]
            first, last = futures[0].result(), futures[3].result()
            for failed in futures[1:3]:
                # The repeat finds the snapshot holding its own values but no
                # factors behind them: it must fail again, not solve.
                with pytest.raises(ValueError):
                    failed.result()
            counters = svc.stats()["counters"]
        assert np.array_equal(first, last)
        assert np.linalg.norm(A.with_values(good).matvec(last) - b) < 1e-10
        assert counters["solves_ok"] == 2 and counters["solves_failed"] == 2
        # The failure's successor refactorized although its values had been
        # factorized two requests earlier.
        assert counters["refactorizations"] == 2 and counters.get("value_hits", 0) == 0


class TestHandleIds:
    """A handle's wire id stands in for the handle everywhere."""

    def test_the_id_solves_and_evicts_like_the_handle(self):
        A = laplacian_2d(7, shift=0.1)
        b = np.ones(A.n)
        with _service() as svc:
            handle = svc.register_pattern(A)
            by_id = svc.solve(handle.handle_id, A.data * 2.0, b)
            assert np.array_equal(by_id, svc.solve(handle, A.data * 2.0, b))
            assert svc.evict(handle.handle_id)
            with pytest.raises(PatternEvictedError):
                svc.solve(handle.handle_id, A.data, b)

    def test_an_unknown_id_is_refused_without_taking_a_slot(self):
        with _service() as svc:
            assert not svc.evict("0" * 16)
            with pytest.raises(PatternEvictedError):
                svc.submit("0" * 16, np.ones(3), np.ones(3))
            assert svc.admission.in_flight == 0
            assert _count(svc, "solves_failed") == 0


class TestAdmission:
    def test_backpressure_rejects_with_retry_after(self, park_solve):
        """A request waiting on its solver's lock still holds its slot."""
        A = laplacian_2d(6, shift=0.1)
        with _service(max_in_flight=2) as svc:
            handle = svc.register_pattern(A)
            waiting = []
            with park_solve(svc, handle, A.data, np.ones(A.n)) as parked:
                behind = threading.Thread(
                    target=lambda: waiting.append(svc.submit(handle, A.data, np.ones(A.n)))
                )
                behind.start()
                deadline = time.monotonic() + 10
                while svc.admission.in_flight < 2 and time.monotonic() < deadline:
                    time.sleep(0.001)
                assert svc.admission.in_flight == 2 and not waiting
                with pytest.raises(ServiceOverloadedError) as excinfo:
                    svc.submit(handle, A.data, np.ones(A.n))
                assert excinfo.value.retry_after == RETRY_AFTER_SECONDS
            behind.join(timeout=30)
            assert not behind.is_alive()
            assert np.array_equal(parked.future.result(), waiting[0].result())
            assert svc.admission.in_flight == 0

    def test_slots_release_after_completion(self):
        A = laplacian_2d(6, shift=0.1)
        with _service(max_in_flight=4) as svc:
            handle = svc.register_pattern(A)
            futures = [svc.submit(handle, A.data, np.ones(A.n)) for _ in range(4)]
            for f in futures:
                f.result(timeout=30)
            assert svc.admission.in_flight == 0

    def test_a_failed_solve_gives_its_slot_back(self):
        A = laplacian_2d(6, shift=0.1)
        with _service(max_in_flight=1) as svc:
            handle = svc.register_pattern(A)
            failed = svc.submit(handle, np.zeros(A.nnz), np.ones(A.n))
            assert failed.exception() is not None
            assert svc.admission.in_flight == 0
            # The one slot is free again: a good request is admitted and solves.
            x = svc.solve(handle, A.data, np.ones(A.n))
            assert np.linalg.norm(A.matvec(x) - np.ones(A.n)) < 1e-10
            assert _count(svc, "rejected") == 0

    def test_a_rejection_is_counted(self, park_solve):
        A = laplacian_2d(6, shift=0.1)
        with _service(max_in_flight=1) as svc:
            handle = svc.register_pattern(A)
            with park_solve(svc, handle, A.data, np.ones(A.n)):
                with pytest.raises(ServiceOverloadedError) as caught:
                    svc.submit(handle, A.data, np.ones(A.n))
                assert svc.admission.in_flight == 1
            assert caught.value.retry_after == RETRY_AFTER_SECONDS
            assert _count(svc, "rejected") == 1
            assert svc.health()["rejected"] == 1


class TestEviction:
    def test_explicit_eviction_invalidates_handles(self):
        A = laplacian_2d(7, shift=0.1)
        with _service() as svc:
            handle = svc.register_pattern(A)
            assert svc.evict(handle)
            assert not svc.evict(handle)  # idempotent
            with pytest.raises(PatternEvictedError):
                svc.solve(handle, A.data, np.ones(A.n))

    def test_eviction_then_reregistration_is_warm(self, monkeypatch, tmp_path):
        """The disk cache makes evict → re-register a zero-recompile path."""
        monkeypatch.setenv("REPRO_SYMPILER_CACHE", str(tmp_path))
        # A (pattern, options) pair no other test compiles: the first
        # registration must actually generate code (the in-memory artifact
        # cache is process-wide) for the cold/warm contrast to be real.
        A = laplacian_2d(11, shift=0.3)
        with _service() as svc:
            handle = svc.register_pattern(A)
            assert not handle.warm  # fresh cache dir: the compile generated code
            assert svc.evict(handle)
            before = disk_cache_stats().as_dict()
            handle2 = svc.register_pattern(A)
            after = disk_cache_stats().as_dict()
            assert handle2.warm
            assert after["py_writes"] == before["py_writes"]
            assert after["compiles"] == before["compiles"]
            # And the fresh handle solves correctly.
            x = svc.solve(handle2, A.data, np.ones(A.n))
            assert np.isfinite(x).all()

    def test_a_warm_registration_reads_warm_while_another_thread_compiles(self, monkeypatch):
        """``warm`` counts only the code the registering thread generated."""
        import repro.service.session as session

        A = laplacian_2d(8, shift=0.15)
        with _service() as svc:
            svc.register_pattern(A)  # the shared artifact cache now holds its kernels
        build = session.SparseLinearSolver

        def build_while_another_thread_compiles(*args, **kwargs):
            # Another thread's `cc` finishes inside this registration's window.
            other = threading.Thread(target=disk_cache_stats().bump, args=("compiles",))
            other.start()
            other.join()
            return build(*args, **kwargs)

        monkeypatch.setattr(session, "SparseLinearSolver", build_while_another_thread_compiles)
        with _service() as svc:
            assert svc.register_pattern(A).warm
            assert (_count(svc, "compile_warm"), _count(svc, "compile_cold")) == (1, 0)

    def test_lru_budget_evicts_oldest_pattern(self):
        with _service(max_patterns=2) as svc:
            h1 = svc.register_pattern(laplacian_2d(6, shift=0.1))
            h2 = svc.register_pattern(laplacian_2d(7, shift=0.1))
            h3 = svc.register_pattern(laplacian_2d(8, shift=0.1))
            assert _count(svc, "patterns_evicted") == 1
            with pytest.raises(PatternEvictedError):
                A = laplacian_2d(6, shift=0.1)
                svc.solve(h1, A.data, np.ones(A.n))
            for h, side in ((h2, 7), (h3, 8)):
                A = laplacian_2d(side, shift=0.1)
                assert np.isfinite(svc.solve(h, A.data, np.ones(A.n))).all()

    def test_solving_touches_the_lru_order(self):
        with _service(max_patterns=2) as svc:
            h1 = svc.register_pattern(laplacian_2d(6, shift=0.1))
            svc.register_pattern(laplacian_2d(7, shift=0.1))
            A1 = laplacian_2d(6, shift=0.1)
            svc.solve(h1, A1.data, np.ones(A1.n))  # h1 becomes most recent
            svc.register_pattern(laplacian_2d(8, shift=0.1))
            # h2 (least recently used) fell out; h1 survived.
            assert np.isfinite(svc.solve(h1, A1.data, np.ones(A1.n))).all()


class TestMetricsAndStats:
    def test_stats_snapshot_shape(self):
        A = laplacian_2d(7, shift=0.1)
        with _service() as svc:
            handle = svc.register_pattern(A)
            for i in range(6):
                svc.submit(handle, A.data * (1 + 0.1 * i), np.ones(A.n))
            stats = svc.stats()
        assert stats["registered_patterns"] == 1
        assert stats["solves"] == 6
        assert stats["counters"]["solves_ok"] == 6
        assert stats["counters"]["batches"] == 6
        assert stats["batch_size_histogram"] == {"1": 6}
        assert stats["coalescing_ratio"] == 1.0 and stats["max_batch_size"] == 1
        latency = stats["latency"]
        assert latency["count"] == 6
        assert latency["p50_seconds"] <= latency["p95_seconds"]
        pattern = stats["patterns"][handle.handle_id]
        assert pattern["solves"] == 6
        assert "mode" not in pattern and "execution_strategy" not in pattern

    def test_rejections_are_counted(self, park_solve):
        A = laplacian_2d(6, shift=0.1)
        with _service(max_in_flight=1) as svc:
            handle = svc.register_pattern(A)
            with park_solve(svc, handle, A.data, np.ones(A.n)):
                with pytest.raises(ServiceOverloadedError):
                    svc.submit(handle, A.data, np.ones(A.n))
                assert _count(svc, "rejected") == 1

    def test_health_counts_the_outcomes(self):
        A = laplacian_2d(6, shift=0.1)
        with _service() as svc:
            handle = svc.register_pattern(A)
            svc.submit(handle, A.data, np.ones(A.n))
            svc.submit(handle, np.zeros(A.nnz), np.ones(A.n))
            health = svc.health()
        assert health["status"] == "ok"
        assert health["registered_patterns"] == 1
        assert (health["solves_ok"], health["solves_failed"], health["rejected"]) == (1, 1, 0)
        assert health["in_flight"] == 0
        assert svc.health()["status"] == "closed"

    def test_close_takes_the_collector_out_of_the_registry(self):
        before = sorted(get_registry().collect())
        svc = _service()
        (added,) = set(sorted(get_registry().collect())) - set(before)
        assert added.startswith("service")
        svc.close()
        assert sorted(get_registry().collect()) == before

    def test_every_request_records_one_latency_sample(self):
        A = laplacian_2d(6, shift=0.1)
        with _service() as svc:
            handle = svc.register_pattern(A)
            for k in range(3):
                svc.solve(handle, A.data * (1.0 + k), np.ones(A.n))
            latency = svc.stats()["latency"]
        assert latency["count"] == 3
        assert 0.0 < latency["p50_seconds"] <= latency["p95_seconds"]

    def test_percentile_helper(self):
        assert percentile([], 95.0) == 0.0
        assert percentile([3.0], 50.0) == 3.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == pytest.approx(2.5)
        with pytest.raises(ValueError):
            percentile([1.0], 200.0)

    def test_metrics_thread_safety(self):
        """N threads x M solves: every outcome and every latency sample is recorded once."""
        threads_n, solves_m = 8, 25
        A = laplacian_2d(6, shift=0.1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with _service() as svc:
                handle = svc.register_pattern(A)

                def drive(worker):
                    for k in range(solves_m):
                        svc.solve(handle, A.data * (1.0 + 0.01 * (worker + k)), np.ones(A.n))

                threads = [threading.Thread(target=drive, args=(w,)) for w in range(threads_n)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                stats = svc.stats()
        finally:
            sys.setswitchinterval(interval)
        total = threads_n * solves_m
        counters = stats["counters"]
        assert counters["solves_ok"] == total and "solves_failed" not in counters
        assert counters["refactorizations"] + counters.get("value_hits", 0) == total
        assert stats["latency"]["count"] == total
        assert stats["patterns"][handle.handle_id]["solves"] == total
        assert stats["batch_size_histogram"] == {"1": total}


class TestConcurrentTraffic:
    def test_many_threads_same_pattern_all_solve_correctly(self):
        A = fem_stencil_2d(7, shift=0.3)
        ref = SparseLinearSolver(
            A, ordering="natural", options=SympilerOptions(enable_vs_block=False)
        )
        base = ref.solve(np.ones(A.n))
        results = {}
        errors = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with _service(max_in_flight=128) as svc:
                handle = svc.register_pattern(A)

                def drive(worker):
                    try:
                        scale = 1.0 + 0.01 * worker
                        x = svc.solve(handle, A.data * scale, np.ones(A.n), timeout=30)
                        results[worker] = x * scale
                    except Exception as exc:  # pragma: no cover - failure detail
                        errors.append(exc)

                threads = [threading.Thread(target=drive, args=(w,)) for w in range(16)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                stats = svc.stats()
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert len(results) == 16
        for x in results.values():
            assert np.allclose(x, base, atol=1e-8)
        # Every caller's solve was counted: no update was lost between them.
        assert stats["patterns"][handle.handle_id]["solves"] == 16
        assert stats["counters"]["solves_ok"] == stats["counters"]["batches"] == 16

    def test_sustained_load_recompiles_nothing(self):
        """The amortization invariant the serving layer exists for."""
        A = laplacian_2d(8, shift=0.1)
        with _service() as svc:
            handle = svc.register_pattern(A)
            svc.solve(handle, A.data, np.ones(A.n))  # warm-up
            disk_before = disk_cache_stats().as_dict()
            cache = svc.stats()["artifact_cache"]
            misses_before = cache["misses"]
            futures = [
                svc.submit(handle, A.data * (1 + 0.01 * i), np.ones(A.n))
                for i in range(20)
            ]
            for f in futures:
                f.result(timeout=30)
            disk_after = disk_cache_stats().as_dict()
            cache_after = svc.stats()["artifact_cache"]
        assert disk_after["compiles"] == disk_before["compiles"]
        assert disk_after["py_writes"] == disk_before["py_writes"]
        assert cache_after["misses"] == misses_before


    @pytest.mark.skipif(not c_compiler_available("cc"), reason="no C compiler available")
    def test_two_patterns_sharing_one_so_solve_side_by_side(self):
        """Two callers, one pattern each, in one loaded ``.so`` at the same time."""
        options = SympilerOptions(backend="c", enable_vs_block=False)
        systems = [laplacian_2d(9, shift=0.1), fem_stencil_2d(7, shift=0.3)]
        refs = [SparseLinearSolver(A, options=options) for A in systems]
        answers, errors = [[], []], []
        with _service(options=options) as svc:
            handles = [svc.register_pattern(A) for A in systems]
            shared = {
                svc._entries[h.handle_id].solver.compiled_artifacts[0].module.shared_object
                for h in handles
            }
            assert len(shared) == 1
            barrier = threading.Barrier(2)

            def drive(k):
                A = systems[k]
                try:
                    barrier.wait(timeout=10)
                    for i in range(20):
                        values, b = A.data * (1.0 + 0.05 * i), np.cos(np.arange(A.n) + i)
                        answers[k].append((values, b, svc.solve(handles[k], values, b)))
                except Exception as exc:  # pragma: no cover - failure detail
                    errors.append(exc)

            threads = [threading.Thread(target=drive, args=(k,)) for k in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        assert not errors
        for ref, solved in zip(refs, answers):
            assert len(solved) == 20
            for values, b, x in solved:
                assert np.array_equal(x, ref.step(values, b)[0])


class TestArtifactLifetime:
    """The shared memo owns nothing: each pattern's solver holds its artifacts."""

    def test_eviction_leaves_the_artifacts_in_the_shared_memo(self):
        A = laplacian_2d(10, shift=0.4)
        options = SympilerOptions(enable_vs_block=False)
        with _service(options=options) as svc:
            handle = svc.register_pattern(A, ordering="natural")
            stats = svc._entries[handle.handle_id].solver.artifact_cache.stats
            assert svc.evict(handle)
            misses = stats.misses
            SparseLinearSolver(A, method="cholesky", ordering="natural", options=options)
            assert stats.misses == misses

    def test_evict_and_close_let_the_solver_go(self):
        A, B = laplacian_2d(7, shift=0.1), laplacian_2d(8, shift=0.1)
        svc = _service()
        try:
            handles = [svc.register_pattern(M) for M in (A, B)]
            svc.solve(handles[0], A.data, np.ones(A.n), timeout=30)
            refs = [weakref.ref(svc._entries[h.handle_id].solver) for h in handles]
            assert svc.evict(handles[0])
            gc.collect()
            assert refs[0]() is None and refs[1]() is not None
        finally:
            svc.close()
        gc.collect()
        assert refs[1]() is None

    @pytest.mark.skipif(not c_compiler_available("cc"), reason="no C compiler available")
    def test_a_request_parked_on_an_evicted_pattern_still_solves(self, park_solve):
        A = laplacian_2d(9, shift=0.2)
        options = SympilerOptions(backend="c", enable_vs_block=False)
        ref = SparseLinearSolver(A, ordering="natural", options=options)
        values, b = A.data * 1.5, np.cos(np.arange(A.n))
        with _service(options=options) as svc, _service(options=options) as sibling:
            handle = svc.register_pattern(A, ordering="natural")
            sibling_handle = sibling.register_pattern(A, ordering="natural")
            # Parked inside its solver's step, the request holds the only
            # reference left to the evicted pattern's solver and kernels.
            with park_solve(svc, handle, values, b) as parked:
                assert svc.evict(handle)
                gc.collect()
            assert np.array_equal(parked.future.result(), ref.step(values, b)[0])
            for k in range(3):
                new_values = A.data * (1.0 + k)
                x = sibling.solve(sibling_handle, new_values, b, timeout=30)
                assert np.array_equal(x, ref.step(new_values, b)[0])


class TestServiceLifecycle:
    def test_the_service_starts_no_thread(self):
        """Each solve runs on its caller's thread and is over when submit returns."""
        A = laplacian_2d(7, shift=0.1)
        before = threading.active_count()
        svc = _service(options=SympilerOptions(backend="python", enable_vs_block=False))
        handle = svc.register_pattern(A)
        assert threading.active_count() == before
        for k in range(10):
            future = svc.submit(handle, A.data * (1.0 + k), np.ones(A.n))
            assert future.done() and np.isfinite(future.result()).all()
        assert threading.active_count() == before
        svc.close()
        assert threading.active_count() == before

    def test_close_is_idempotent_and_rejects_new_work(self):
        A = laplacian_2d(6, shift=0.1)
        svc = _service()
        handle = svc.register_pattern(A)
        svc.close()
        svc.close()
        with pytest.raises(ServiceClosedError):
            svc.submit(handle, A.data, np.ones(A.n))

    def test_close_lets_a_running_solve_finish(self, park_solve):
        A = laplacian_2d(7, shift=0.1)
        values, b = A.data * 1.5, np.ones(A.n)
        ref = SparseLinearSolver(
            A, ordering="mindeg", options=SympilerOptions(enable_vs_block=False)
        )
        svc = _service()
        handle = svc.register_pattern(A)
        with park_solve(svc, handle, values, b) as parked:
            svc.close()
            assert svc.stats()["registered_patterns"] == 0
        assert np.array_equal(parked.future.result(), ref.step(values, b)[0])
        with pytest.raises(ServiceClosedError):
            svc.submit(handle, values, b)

    def test_context_manager_closes(self):
        with _service() as svc:
            pass
        with pytest.raises(ServiceClosedError):
            svc.register_pattern(laplacian_2d(6, shift=0.1))


class TestSettableValues:
    """A value no product caller sets is a constant, not a parameter."""

    @pytest.mark.parametrize(
        "target, allowed",
        [
            (ShardFleet, ["shards", "backend", "max_in_flight", "max_patterns", "cache_dir", "trace"]),
            (SolverService, ["options", "max_in_flight", "max_patterns"]),
            (AdmissionController, ["max_in_flight"]),
            (ServiceClient, ["address", "timeout"]),
            (observe.enable, []),
            (ServiceClient.trace_spans, ["self"]),
            (snapshot, []),
            (prometheus_text, []),
            (MetricsRegistry.snapshot, ["self"]),
            (observe.write_chrome_trace, ["path"]),
            (MetricsRegistry.to_prometheus, ["self"]),
            (SpecializedSolver, ["method", "ordering", "options", "max_specializations"]),
            (SparseLinearSolver, ["A", "method", "ordering", "options"]),
        ],
        ids=lambda v: getattr(v, "__qualname__", None),
    )
    def test_signature_has_only_the_kept_parameters(self, target, allowed):
        assert list(inspect.signature(target).parameters) == allowed
