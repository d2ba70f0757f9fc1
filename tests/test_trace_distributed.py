"""Distributed tracing and health across process scales.

Covers the cross-process span-context contract (client headers → server
``attach_remote`` → merged Chrome trace), the
``health``/``trace``/``ping`` wire verbs, the service's lifecycle counters,
and the Prometheus relabeling edge cases (quote/backslash escaping,
pre-existing labels).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import observe
from repro.compiler.options import SympilerOptions
from repro.service import ServiceClient, SolverService, serve_background
from repro.sparse.generators import fem_stencil_2d, laplacian_2d


@pytest.fixture()
def tracing():
    """Enable tracing for one test; restore the disabled default afterwards."""
    observe.enable()
    observe.reset()
    yield observe.get_tracer()
    observe.disable()
    observe.reset()


@pytest.fixture()
def served():
    service = SolverService(options=SympilerOptions(enable_vs_block=False))
    server, thread = serve_background(service)
    yield server.server_address, service
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    service.close()


def _solve_once(client, A):
    handle = client.register_pattern(A)
    rhs = np.linspace(0.5, 1.5, A.n)
    x = client.solve(handle, A.data, rhs)
    return handle, rhs, x


class TestWireTraceHeaders:
    def test_empty_when_disabled(self):
        observe.disable()
        assert observe.wire_trace_headers() == {}

    def test_empty_outside_any_span(self, tracing):
        assert observe.wire_trace_headers() == {}

    def test_carries_current_context_inside_span(self, tracing):
        with observe.span("request"):
            headers = observe.wire_trace_headers()
        assert set(headers) == {"trace_id", "parent_id"}
        assert isinstance(headers["trace_id"], int)
        assert isinstance(headers["parent_id"], int)

    def test_attach_remote_parents_new_spans(self, tracing):
        with observe.attach_remote(7001, 7002):
            with observe.span("serve"):
                pass
        serve = [sp for sp in tracing.spans() if sp.name == "serve"][0]
        assert serve.trace_id == 7001
        assert serve.parent_id == 7002

    def test_attach_remote_noop_on_missing_or_bad_ids(self, tracing):
        with observe.attach_remote(None, None):
            with observe.span("solo"):
                pass
        solo = [sp for sp in tracing.spans() if sp.name == "solo"][0]
        assert solo.parent_id is None


class TestWireTracePropagation:
    def test_shard_side_spans_share_client_trace_id(self, served, tracing):
        address, _ = served
        A = laplacian_2d(8, shift=0.1)
        with ServiceClient(address) as client:
            _solve_once(client, A)
        spans = tracing.spans()
        client_solve = [sp for sp in spans if sp.name == "wire-solve"]
        serves = [sp for sp in spans if sp.name == "serve"]
        assert client_solve and serves
        trace_id = client_solve[0].trace_id
        # The server-side serve span joined the client's trace through the
        # wire headers (not through thread-local inheritance: it ran on the
        # server's handler thread).
        solve_serves = [sp for sp in serves if sp.trace_id == trace_id]
        assert solve_serves
        assert any(sp.parent_id == client_solve[0].span_id for sp in solve_serves)

    def test_dispatch_is_a_child_of_serve(self, served, tracing):
        """Over the wire, the solve runs inside the server's ``serve`` span."""
        address, _ = served
        A = laplacian_2d(8, shift=0.1)
        with ServiceClient(address) as client:
            _solve_once(client, A)
        spans = tracing.spans()
        client_solve = [sp for sp in spans if sp.name == "wire-solve"][0]
        dispatch = [sp for sp in spans if sp.name == "dispatch"][0]
        serve = [sp for sp in spans if sp.span_id == dispatch.parent_id][0]
        assert serve.name == "serve" and serve.attrs["op"] == "solve"
        assert serve.parent_id == client_solve.span_id
        assert dispatch.trace_id == serve.trace_id == client_solve.trace_id
        assert dispatch.thread == serve.thread

    def test_disabled_tracing_sends_no_trace_keys(self, served):
        observe.disable()
        address, _ = served
        A = laplacian_2d(6, shift=0.1)
        with ServiceClient(address) as client:
            _solve_once(client, A)
            payload = client.trace_spans()
        assert payload["enabled"] is False
        assert payload["spans"] == []


class TestTraceVerb:
    def test_drain_is_destructive(self, served, tracing):
        address, _ = served
        A = laplacian_2d(6, shift=0.1)
        with ServiceClient(address) as client:
            _solve_once(client, A)
            payload = client.trace_spans()
            assert payload["enabled"] is True
            assert payload["spans"]
            assert all(
                {"name", "trace_id", "span_id", "start"} <= set(sp)
                for sp in payload["spans"]
            )
            again = client.trace_spans()
        # The solve's spans left with the first drain; the only residue is
        # the serve span wrapping that drain request itself.
        assert all(
            sp["name"] == "serve" and sp["attrs"].get("op") == "trace"
            for sp in again["spans"]
        )


class TestPingAndHealth:
    def test_ping_info_carries_server_clocks(self, served):
        address, _ = served
        with ServiceClient(address) as client:
            info = client.ping_info()
        assert info["pong"] is True
        assert "server_wall_time" in info and "server_monotonic" in info
        assert info["rtt_seconds"] >= 0.0

    def test_clock_offset_is_small_in_one_host(self, served):
        address, _ = served
        with ServiceClient(address) as client:
            offset = client.estimate_clock_offset()
        # Same machine, same clock: the NTP-style estimate must land within
        # the round-trip noise, nowhere near a real inter-host skew.
        assert abs(offset) < 1.0

    def test_health_at_service_and_client_scale(self, served):
        address, service = served
        A = laplacian_2d(6, shift=0.1)
        local = service.health()
        assert local["status"] == "ok"
        assert local["uptime_seconds"] >= 0.0
        with ServiceClient(address) as client:
            client.register_pattern(A)
            doc = client.health()
        assert doc["status"] == "ok"
        assert doc["registered_patterns"] >= 1
        assert doc["wire_version"] in (1, 2)
        assert "pid" in doc and "tracing_enabled" in doc

    def test_closed_service_reports_closed(self):
        service = SolverService(options=SympilerOptions(enable_vs_block=False))
        service.close()
        assert service.health()["status"] == "closed"


class TestLifecycleCounters:
    """Each service lifecycle edge is one counter, pulled by the ``service`` collector."""

    def test_a_registration_is_counted_cold_or_warm(self):
        with SolverService(options=SympilerOptions(enable_vs_block=False)) as service:
            handle = service.register_pattern(laplacian_2d(6, shift=0.1))
            counters = service.stats()["counters"]
            assert counters["registrations"] == 1
            warm, cold = counters.get("compile_warm", 0), counters.get("compile_cold", 0)
            assert (warm, cold) == ((1, 0) if handle.warm else (0, 1))

    def test_an_explicit_eviction_is_counted_with_its_reason(self):
        with SolverService(options=SympilerOptions(enable_vs_block=False)) as service:
            handle = service.register_pattern(laplacian_2d(6, shift=0.1))
            assert service.evict(handle)
            assert not service.evict(handle)  # a second evict drops nothing
            counters = service.stats()["counters"]
            assert counters["patterns_evicted"] == 1
            assert counters["patterns_evicted_explicit"] == 1

    def test_the_lifecycle_counters_reach_the_snapshot(self):
        with SolverService(options=SympilerOptions(enable_vs_block=False)) as service:
            handle = service.register_pattern(laplacian_2d(6, shift=0.1))
            service.evict(handle)
            counters = observe.snapshot()["collectors"][service._collector_name]["counters"]
            assert counters["registrations"] == 1
            assert counters["patterns_evicted"] == 1


class TestRelabelEscaping:
    def test_quotes_and_backslashes_are_escaped(self):
        text = 'metric 1.0\n'
        out = observe.relabel_prometheus_text(text, path='C:\\x "y"')
        assert 'path="C:\\\\x \\"y\\""' in out

    def test_existing_labels_survive_and_win(self):
        text = 'm{shard="3",op="solve"} 2.0\n'
        out = observe.relabel_prometheus_text(text, shard="9", zone="eu")
        line = [l for l in out.splitlines() if l.startswith("m{")][0]
        assert 'shard="3"' in line and 'shard="9"' not in line
        assert 'zone="eu"' in line and 'op="solve"' in line

    def test_quoted_value_containing_braces_and_equals(self):
        text = 'm{msg="a=b}c"} 1\n'
        out = observe.relabel_prometheus_text(text, shard="0")
        line = [l for l in out.splitlines() if l.startswith("m{")][0]
        assert 'msg="a=b}c"' in line and 'shard="0"' in line

    def test_malformed_line_passes_through(self):
        text = 'broken{unterminated="x 1\n'
        out = observe.relabel_prometheus_text(text, shard="0")
        assert 'broken{unterminated="x 1' in out


class TestFleetDistributedTrace:
    def test_merged_trace_spans_multiple_processes(self, tmp_path, tracing):
        import os

        from repro.service.fleet import ShardFleet

        mats = [laplacian_2d(8, shift=0.1), fem_stencil_2d(7, shift=0.2)]
        with ShardFleet(2, cache_dir=tmp_path, trace=True) as fleet:
            handles = [fleet.register_pattern(A) for A in mats]
            futures = []
            for i in range(8):
                A = mats[i % 2]
                rhs = np.sin(np.arange(A.n, dtype=np.float64) + i)
                futures.append(fleet.submit(handles[i % 2], A.data, rhs))
            for future in futures:
                assert np.isfinite(future.result(timeout=60)).all()
            health = fleet.health()
            doc = fleet.chrome_trace()
        assert health["status"] == "ok"
        assert health["shards_healthy"] == 2
        local_pid = os.getpid()
        span_events = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        shard_pids = {e["pid"] for e in span_events if e["pid"] != local_pid}
        assert len(shard_pids) >= 2
        client_traces = {
            e["args"]["trace_id"]
            for e in span_events
            if e["pid"] == local_pid and e["name"] == "wire-submit"
        }
        shard_traces = {
            e["args"]["trace_id"]
            for e in span_events
            if e["pid"] != local_pid
        }
        # Client request spans and shard-side serve spans joined on trace id.
        assert client_traces & shard_traces
