"""The unified observability layer: spans, registry, exporters, wire verb.

What is proven here:

* span nesting and trace identity (parent/child/sibling relationships),
* the zero-cost-when-disabled contract (shared no-op object, nothing
  recorded, ``capture()`` returning None),
* explicit cross-thread propagation — both directly (``capture``/``attach``)
  and through the production pool boundary (the pool threads of a
  ``BatchedSolver`` batch) — and the service's solves, which need none of it
  because they run on the caller's thread,
* exporter determinism (snapshot / Prometheus text / Chrome trace) and the
  Fig. 8/9 amortization breakdown arithmetic,
* the four legacy stats surfaces appearing through pull-mode collectors, and
* the service's ``metrics`` wire verb end to end.

Every test that enables tracing goes through the ``tracing`` fixture, which
restores the disabled default on exit — tracing state is process-global.
"""

import json
import threading

import numpy as np
import pytest

from repro import observe
from repro.compiler.codegen.c_backend import c_compiler_available
from repro.observe import trace as observe_trace
from repro.observe.registry import (
    MetricsRegistry,
    Reservoir,
    get_registry,
    percentile,
)
from repro.sparse.generators import laplacian_2d

needs_cc = pytest.mark.skipif(
    not (c_compiler_available("cc") or c_compiler_available("gcc")),
    reason="no C compiler available",
)


@pytest.fixture()
def tracing():
    """Enable tracing for one test; restore the disabled default afterwards."""
    observe.enable()
    observe.reset()
    yield observe.get_tracer()
    observe.disable()
    observe.reset()


def _span_by_name(tracer, name):
    matches = [sp for sp in tracer.spans() if sp.name == name]
    assert matches, f"no span named {name!r} recorded"
    return matches[-1]


# --------------------------------------------------------------------------- #
# Span mechanics
# --------------------------------------------------------------------------- #
class TestSpans:
    def test_nesting_records_parent_and_trace(self, tracing):
        with observe.span("outer") as outer:
            with observe.span("inner"):
                pass
        inner = _span_by_name(tracing, "inner")
        assert inner.parent_id == outer.span_id
        assert inner.trace_id == outer.trace_id
        assert _span_by_name(tracing, "outer").parent_id is None

    def test_sibling_roots_get_distinct_traces(self, tracing):
        with observe.span("first"):
            pass
        with observe.span("second"):
            pass
        first = _span_by_name(tracing, "first")
        second = _span_by_name(tracing, "second")
        assert first.trace_id != second.trace_id

    def test_duration_and_attrs(self, tracing):
        with observe.span("timed", kernel="cholesky") as sp:
            sp.set(extra=3)
        recorded = _span_by_name(tracing, "timed")
        assert recorded.duration >= 0.0
        assert recorded.attrs == {"kernel": "cholesky", "extra": 3}

    def test_exception_marks_span_and_propagates(self, tracing):
        with pytest.raises(ValueError):
            with observe.span("failing"):
                raise ValueError("boom")
        assert _span_by_name(tracing, "failing").attrs["error"] == "ValueError"

    def test_disabled_is_shared_noop(self):
        assert not observe.enabled()
        a = observe.span("anything", key="value")
        b = observe.span("other")
        assert a is b  # one shared object, no allocation per call
        with a as sp:
            assert sp.set(x=1) is sp
        assert observe.capture() is None
        assert len(observe.get_tracer()) == 0

    def test_enable_disable_roundtrip(self):
        assert not observe.enabled()
        observe.enable()
        try:
            assert observe.enabled()
            with observe.span("while-enabled"):
                pass
            assert len(observe.get_tracer()) == 1
        finally:
            observe.disable()
            observe.reset()
        assert not observe.enabled()

    def test_span_counters_accumulate(self, tracing):
        before = observe.phase_totals().get("counted", {"calls": 0})["calls"]
        for _ in range(3):
            with observe.span("counted"):
                pass
        totals = observe.phase_totals()["counted"]
        assert totals["calls"] == before + 3
        assert totals["seconds"] >= 0.0


# --------------------------------------------------------------------------- #
# Cross-thread propagation
# --------------------------------------------------------------------------- #
class TestThreadPropagation:
    def test_capture_attach_joins_trace(self, tracing):
        worker_ids = {}

        def worker(ctx):
            with observe.attach(ctx):
                with observe.span("worker-side") as sp:
                    worker_ids["trace"] = sp.trace_id
                    worker_ids["parent"] = sp.parent_id

        with observe.span("submitter") as outer:
            t = threading.Thread(target=worker, args=(observe.capture(),))
            t.start()
            t.join()
        assert worker_ids["trace"] == outer.trace_id
        assert worker_ids["parent"] == outer.span_id

    def test_attach_none_is_noop(self, tracing):
        with observe.attach(None):
            with observe.span("orphan") as sp:
                assert sp.parent_id is None

    @needs_cc
    def test_batch_pool_threads_join_the_trace(self, tracing):
        from repro.compiler.options import SympilerOptions
        from repro.solvers.batched import BatchedSolver

        A = laplacian_2d(6, shift=0.1)
        options = SympilerOptions(backend="c")
        batched = BatchedSolver(A, ordering="natural", options=options, num_threads=2)
        scenarios = [A.with_values(A.data * s) for s in (1.0, 2.0, 3.0)]
        with observe.span("batch-submit") as outer:
            handles = batched.factorize_batch(scenarios)
        assert all(h.ok for h in handles)
        items = [sp for sp in tracing.spans() if sp.name == "numeric" and sp.trace_id == outer.trace_id]
        assert len(items) == 3
        assert all(sp.parent_id == outer.span_id for sp in items)
        # The items ran on the pool's threads, not on the caller's.
        assert threading.current_thread().name not in {sp.thread for sp in items}


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_labeled_counters_render_deterministically(self):
        reg = MetricsRegistry()
        reg.counter("solves", kernel="cholesky").inc()
        reg.counter("solves", kernel="cholesky").inc()
        reg.counter("solves", kernel="lu").inc()
        snap = reg.snapshot()
        assert snap["counters"]['solves{kernel="cholesky"}'] == 2.0
        assert snap["counters"]['solves{kernel="lu"}'] == 1.0

    def test_reservoir_summary_is_one_consistent_copy(self):
        res = Reservoir(maxlen=16)
        for v in range(1, 11):
            res.observe(float(v))
        summary = res.summary(qs=(50.0, 95.0))
        assert summary["count"] == 10
        assert summary["mean_seconds"] == pytest.approx(5.5)
        assert summary["p50_seconds"] <= summary["p95_seconds"]
        # Sliding window: the count keeps the lifetime total.
        for v in range(100):
            res.observe(float(v))
        assert res.summary()["count"] == 110

    def test_percentile_has_one_home(self):
        from repro.service import metrics as service_metrics

        assert observe.percentile is percentile
        assert not hasattr(service_metrics, "percentile")
        assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == pytest.approx(2.5)
        assert percentile([], 95.0) == 0.0

    def test_collector_names_autosuffix_and_unregister(self):
        reg = MetricsRegistry()
        first = reg.register_collector("svc", lambda: {"x": 1})
        second = reg.register_collector("svc", lambda: {"x": 2})
        assert (first, second) == ("svc", "svc_2")
        assert reg.collect() == {"svc": {"x": 1}, "svc_2": {"x": 2}}
        assert reg.unregister_collector("svc_2")
        assert list(reg.collect()) == ["svc"]

    def test_raising_collector_never_breaks_a_scrape(self):
        reg = MetricsRegistry()

        def bad():
            raise RuntimeError("adapter broke")

        reg.register_collector("bad", bad)
        out = reg.collect()
        assert "RuntimeError" in out["bad"]["collector_error"]
        # Prometheus export skips the error string but still succeeds.
        text = reg.to_prometheus()
        assert text.endswith("\n")
        assert "adapter broke" not in text

    def test_default_collectors_installed(self):
        collectors = get_registry().collect()
        for name in ("artifact_cache", "disk_cache", "frontend"):
            assert name in collectors, f"default collector {name!r} missing"
        assert "compiles" in collectors["disk_cache"]
        assert "specializations" in collectors["frontend"]


# --------------------------------------------------------------------------- #
# Exporters
# --------------------------------------------------------------------------- #
class TestExporters:
    def test_snapshot_is_json_serialisable(self):
        doc = observe.snapshot()
        round_tripped = json.loads(json.dumps(doc))
        assert set(round_tripped) == {"counters", "collectors"}

    def test_prometheus_text_is_deterministic(self):
        reg = MetricsRegistry()
        reg.counter("a", phase="x").inc(2)
        reg.register_collector("cache", lambda: {"hits": 3, "name": "skipme"})
        text = reg.to_prometheus(prefix="repro")
        assert text == reg.to_prometheus(prefix="repro")
        assert "# TYPE repro_a counter" in text
        assert 'repro_a{phase="x"} 2' in text
        assert "repro_cache_hits 3" in text
        assert "skipme" not in text  # strings stay JSON-only

    def test_chrome_trace_loads_and_nests(self, tracing, tmp_path):
        with observe.span("parent", kernel="cholesky"):
            with observe.span("child"):
                pass
        path = tmp_path / "trace.json"
        observe.write_chrome_trace(path)
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert len(events) == 2
        assert all(e["ph"] == "X" for e in events)
        child = next(e for e in events if e["name"] == "child")
        parent = next(e for e in events if e["name"] == "parent")
        assert child["args"]["parent_id"] is not None
        assert child["args"]["trace_id"] == parent["args"]["trace_id"]
        assert parent["args"]["kernel"] == "cholesky"

    def test_breakdown_groups_and_amortization(self, tracing):
        base = observe.breakdown()
        with observe.span("inspect"):
            pass
        with observe.span("numeric"):
            pass
        with observe.span("numeric"):
            pass
        data = observe.breakdown()
        groups = data["groups"]
        assert set(groups) == set(observe.PHASE_GROUPS)
        insp_calls = groups["inspection"]["calls"] - base["groups"]["inspection"]["calls"]
        num_calls = groups["numeric"]["calls"] - base["groups"]["numeric"]["calls"]
        assert (insp_calls, num_calls) == (1, 2)
        # symbolic = inspection + lowering + codegen + cc, never numeric.
        assert data["symbolic_seconds"] == pytest.approx(
            sum(groups[g]["seconds"] for g in ("inspection", "lowering", "codegen", "cc"))
        )
        rendered = observe.format_breakdown(data)
        assert "inspection" in rendered and "numeric" in rendered
        assert "symbolic" in rendered

    def test_parent_spans_never_double_count(self):
        # "compile" wraps inspect/lower/codegen and "native-build" nests
        # inside "ordering" or "inspect"; both must stay out of the groups so
        # no second counts.
        grouped = {p for phases in observe.PHASE_GROUPS.values() for p in phases}
        assert "compile" not in grouped
        assert "native-build" not in grouped


# --------------------------------------------------------------------------- #
# Pipeline integration (python backend)
# --------------------------------------------------------------------------- #
class TestPipelineIntegration:
    def test_frontend_solve_traces_the_pipeline(self, tracing):
        import repro.compiler.sympiler as sympiler_module
        from repro.compiler.cache import ArtifactCache
        from repro.compiler.options import SympilerOptions
        from repro.frontend.specialized import SpecializedSolver

        A = laplacian_2d(8, shift=0.1)
        b = np.cos(np.arange(A.n, dtype=np.float64))
        shared_before = sympiler_module._SHARED_CACHE
        sympiler_module._SHARED_CACHE = ArtifactCache()
        try:
            front = SpecializedSolver(options=SympilerOptions(backend="python"))
            x_cold = front.solve(A, b)
            x_warm = front.solve(A, b)
        finally:
            sympiler_module._SHARED_CACHE = shared_before
        assert np.array_equal(x_cold, x_warm)
        names = {sp.name for sp in tracing.spans()}
        for expected in ("probe", "specialize", "compile", "inspect",
                         "codegen", "numeric"):
            assert expected in names, f"span {expected!r} missing from {names}"
        # The numeric span nests under the pipeline via the explicit
        # kernel/op attributes rather than positional guesswork.
        numeric = _span_by_name(tracing, "numeric")
        assert numeric.attrs["op"] in ("solve", "factorize")
        assert "fingerprint" in numeric.attrs

    def test_tracing_never_changes_results(self):
        from repro.compiler.cache import ArtifactCache
        from repro.compiler.options import SympilerOptions
        from repro.compiler.sympiler import Sympiler

        A = laplacian_2d(7, shift=0.1)
        sym = Sympiler(SympilerOptions(backend="python"), cache=ArtifactCache())
        chol = sym.compile("cholesky", A)
        plain = chol.factorize(A)
        observe.enable()
        try:
            traced = chol.factorize(A)
        finally:
            observe.disable()
            observe.reset()
        assert np.array_equal(plain.data, traced.data)


# --------------------------------------------------------------------------- #
# Service integration
# --------------------------------------------------------------------------- #
class TestServiceIntegration:
    def test_service_metrics_register_as_collectors(self):
        from repro.service.metrics import ServiceMetrics

        m1, m2 = ServiceMetrics(), ServiceMetrics()
        n1 = m1.register_collector()
        n2 = m2.register_collector()
        try:
            assert n1 != n2 and n2.startswith("service")
            assert m1.register_collector() == n1  # idempotent
            m1.incr("solves_ok", 5)
            snap = get_registry().collect()
            assert snap[n1]["counters"]["solves_ok"] == 5
        finally:
            m1.unregister_collector()
            m2.unregister_collector()
        names = get_registry().collect()
        assert n1 not in names and n2 not in names

    def test_latency_snapshot_quantiles_are_consistent(self):
        from repro.service.metrics import ServiceMetrics

        metrics = ServiceMetrics()
        for v in (0.001, 0.002, 0.003, 0.010):
            metrics.observe_request(True, v)
        latency = metrics.snapshot()["latency"]
        assert latency["count"] == 4
        assert latency["p50_seconds"] <= latency["p95_seconds"]

    def test_dispatch_spans_join_submitter_traces(self, tracing):
        from repro.compiler.options import SympilerOptions
        from repro.service.session import SolverService

        A = laplacian_2d(8, shift=0.1)
        service = SolverService(options=SympilerOptions(backend="python"))
        try:
            handle = service.register_pattern(A)
            with observe.span("client-call") as outer:
                x = service.solve(
                    handle.handle_id,
                    A.data,
                    np.ones(A.n, dtype=np.float64),
                )
            assert np.isfinite(x).all()
        finally:
            service.close()
        dispatch = _span_by_name(tracing, "dispatch")
        # The solve ran on the submitter's thread, inside its open span.
        assert dispatch.trace_id == outer.trace_id
        assert dispatch.parent_id == outer.span_id
        assert dispatch.thread == outer.thread == threading.current_thread().name
        assert not [sp for sp in tracing.spans() if sp.name == "coalesce"]

    def test_metrics_wire_verb_serves_prometheus(self):
        from repro.compiler.options import SympilerOptions
        from repro.service.client import ServiceClient
        from repro.service.session import SolverService
        from repro.service.wire import serve_background

        A = laplacian_2d(8, shift=0.1)
        service = SolverService(options=SympilerOptions(backend="python"))
        server, thread = serve_background(service, host="127.0.0.1", port=0)
        try:
            with ServiceClient(server.server_address) as client:
                handle = client.register_pattern(A)
                client.solve(handle, A.data, np.ones(A.n, dtype=np.float64))
                text = client.metrics_text()
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5.0)
        assert "# TYPE" in text
        solve_lines = [
            line for line in text.splitlines()
            if line.startswith("repro_service") and "solves_ok" in line
        ]
        assert solve_lines, f"no service solve counter in:\n{text}"
        assert all(float(line.rsplit(None, 1)[1]) >= 1 for line in solve_lines)


# --------------------------------------------------------------------------- #
# CLI and probe surfaces
# --------------------------------------------------------------------------- #
class TestCliSurfaces:
    def test_observe_main_prints_breakdown(self, capsys, tmp_path, monkeypatch):
        from repro.observe.__main__ import main

        monkeypatch.setenv("REPRO_SYMPILER_CACHE", str(tmp_path / "cache"))
        trace_path = tmp_path / "trace.json"
        json_path = tmp_path / "snap.json"
        rc = main([
            "--grid", "8", "--solves", "3", "--backend", "python",
            "--trace-out", str(trace_path), "--json", str(json_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "phase" in out and "numeric" in out and "symbolic" in out
        assert not observe.enabled()  # the CLI restores the disabled default
        trace_doc = json.loads(trace_path.read_text())
        assert trace_doc["traceEvents"], "trace should carry events"
        doc = json.loads(json_path.read_text())
        assert doc["breakdown"]["numeric_seconds"] > 0.0
        assert doc["workload"]["solves"] == 3

    def test_cache_probe_json_embeds_registry(self, capsys, tmp_path, monkeypatch):
        from repro.compiler.cache_probe import main

        monkeypatch.setenv("REPRO_SYMPILER_CACHE", str(tmp_path / "cache"))
        rc = main(["--backend", "python", "--json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        collectors = report["observe"]["collectors"]
        for name in ("artifact_cache", "disk_cache", "frontend"):
            assert name in collectors
        assert collectors["disk_cache"]["py_writes"] == report["py_writes"]
