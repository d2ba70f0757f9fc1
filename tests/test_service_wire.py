"""Wire-protocol tests: framing edge cases and socket round trips."""

from __future__ import annotations

import io
import re
from dataclasses import asdict
import threading
import time

import numpy as np
import pytest

from repro.compiler.codegen.c_backend import c_compiler_available
from repro.compiler.options import SympilerOptions
from repro.service import (
    PatternEvictedError,
    PatternHandle,
    ServiceClient,
    ServiceOverloadedError,
    SolverService,
    serve_background,
)
from repro.service.admission import RETRY_AFTER_SECONDS
from repro.service.wire import (
    MAGIC,
    MAX_HEADER_BYTES,
    WIRE_VERSION,
    ProtocolError,
    handle_request,
    recv_message,
    send_message,
)
from repro.solvers.linear_solver import SparseLinearSolver
from repro.sparse.generators import fem_stencil_2d, laplacian_2d


def _roundtrip(header, frames=()):
    buffer = io.BytesIO()
    send_message(buffer, header, frames)
    buffer.seek(0)
    return recv_message(buffer)


_FRAME_ARRAYS = [
    np.arange(5, dtype=np.float64),
    np.arange(6, dtype=np.int64),
    np.arange(4, dtype=np.int32),
    np.arange(3, dtype=np.float32),
    np.zeros(0, dtype=np.float64),  # empty frame
    np.zeros((0, 4), dtype=np.float64),  # empty 2-D frame
    np.array(3.25, dtype=np.float64),  # 0-d scalar frame
    np.arange(12, dtype=np.float64).reshape(3, 4),  # 2-D frame
    np.array([True, False, True]),  # bool frame
]


def _frame_id(array):
    return f"{array.dtype}-{array.shape}"


class _ShortReads:
    """A stream whose ``readinto`` hands over at most ``step`` bytes per call, as a socket may."""

    def __init__(self, raw, step=1):
        self._raw, self._step = io.BytesIO(raw), step

    def read(self, n):
        return self._raw.read(n)

    def readinto(self, view):
        return self._raw.readinto(view[: self._step])


class TestFraming:
    def test_header_only_roundtrip(self):
        header, frames = _roundtrip({"op": "ping", "x": 1.5, "s": "é"})
        assert header["op"] == "ping" and header["x"] == 1.5 and header["s"] == "é"
        assert frames == []

    @pytest.mark.parametrize("array", _FRAME_ARRAYS, ids=_frame_id)
    def test_frame_dtype_shape_roundtrip(self, array):
        _, frames = _roundtrip({"op": "x"}, [array])
        assert len(frames) == 1
        result = frames[0]
        assert result.dtype == array.dtype
        assert result.shape == array.shape
        assert np.array_equal(result, array)

    @pytest.mark.parametrize("array", _FRAME_ARRAYS, ids=_frame_id)
    def test_received_frames_are_writable(self, array):
        """Frames are decoded over a buffer of their own, so a solver can take them without a copy."""
        _, (first, second) = _roundtrip({"op": "x"}, [array, array])
        assert first.flags.writeable and second.flags.writeable
        first[...] = np.zeros_like(first)
        assert np.array_equal(second, array)  # no buffer is shared between frames

    def test_frames_reassemble_from_short_reads(self):
        a, b = np.arange(4, dtype=np.int64), np.linspace(0, 1, 7)
        buffer = io.BytesIO()
        send_message(buffer, {"op": "x", "s": "é"}, [a, b])
        header, frames = recv_message(_ShortReads(buffer.getvalue(), step=3))
        assert header["s"] == "é"
        assert np.array_equal(frames[0], a) and np.array_equal(frames[1], b)

    @pytest.mark.parametrize(
        "cut, message",
        [
            ("head", "truncated message head"),
            ("header", "mid-message"),
            ("before-frames", "mid-message"),
            ("first-frame", "mid-message"),
            ("between-frames", "mid-message"),
            ("second-frame", "mid-message"),
        ],
    )
    def test_a_short_read_anywhere_is_a_protocol_error(self, cut, message):
        import struct

        a, b = np.arange(4, dtype=np.int64), np.linspace(0, 1, 7)
        buffer = io.BytesIO()
        send_message(buffer, {"op": "x"}, [a, b])
        raw = buffer.getvalue()
        head = struct.calcsize(">4sBI")
        frames_at = head + struct.unpack(">4sBI", raw[:head])[2]
        assert len(raw) == frames_at + a.nbytes + b.nbytes
        end = {
            "head": head - 2,
            "header": frames_at - 3,
            "before-frames": frames_at,
            "first-frame": frames_at + a.nbytes // 2,
            "between-frames": frames_at + a.nbytes,
            "second-frame": len(raw) - 1,
        }[cut]
        for stream in (io.BytesIO(raw[:end]), _ShortReads(raw[:end])):
            with pytest.raises(ProtocolError, match=message):
                recv_message(stream)

    def test_noncontiguous_frame_is_sent_contiguously(self):
        base = np.arange(20, dtype=np.float64)
        strided = base[::2]
        _, frames = _roundtrip({"op": "x"}, [strided])
        assert np.array_equal(frames[0], strided)

    def test_multiple_frames_keep_order(self):
        a = np.arange(4, dtype=np.int64)
        b = np.linspace(0, 1, 7)
        _, frames = _roundtrip({"op": "x"}, [a, b])
        assert np.array_equal(frames[0], a)
        assert np.array_equal(frames[1], b)

    def test_float_payload_is_bit_exact(self):
        values = np.array([np.pi, -0.0, np.nextafter(1.0, 2.0), 1e-308])
        _, frames = _roundtrip({"op": "x"}, [values])
        assert values.tobytes() == frames[0].tobytes()

    def test_eof_returns_none(self):
        assert recv_message(io.BytesIO(b"")) is None

    def test_bad_magic_rejected(self):
        buffer = io.BytesIO()
        send_message(buffer, {"op": "ping"})
        raw = bytearray(buffer.getvalue())
        raw[:4] = b"EVIL"
        with pytest.raises(ProtocolError, match="magic"):
            recv_message(io.BytesIO(bytes(raw)))

    def test_truncated_frame_rejected(self):
        buffer = io.BytesIO()
        send_message(buffer, {"op": "x"}, [np.arange(10, dtype=np.float64)])
        raw = buffer.getvalue()[:-8]
        with pytest.raises(ProtocolError, match="mid-message"):
            recv_message(io.BytesIO(raw))

    def test_object_dtype_refused(self):
        buffer = io.BytesIO()
        send_message(buffer, {"op": "x", "frames": []})
        # Hand-craft a header announcing a disallowed dtype.
        import json
        import struct

        header = json.dumps(
            {"op": "x", "frames": [{"dtype": "object", "shape": [1]}]}
        ).encode()
        raw = struct.pack(">4sBI", MAGIC, WIRE_VERSION, len(header)) + header
        with pytest.raises(ProtocolError, match="dtype"):
            recv_message(io.BytesIO(raw))

    def test_overflowing_frame_shape_rejected(self):
        """A shape whose int64 product wraps must trip the size ceiling."""
        import json
        import struct

        header = json.dumps(
            {"op": "x", "frames": [{"dtype": "float64", "shape": [2**33, 2**33]}]}
        ).encode()
        raw = struct.pack(">4sBI", MAGIC, WIRE_VERSION, len(header)) + header
        with pytest.raises(ProtocolError, match="exceeds the limit"):
            recv_message(io.BytesIO(raw))

    def test_a_solve_is_answered_directly(self):
        """``solve`` returns the solution frame; a bad handle raises."""
        A = laplacian_2d(6, shift=0.1)
        service = SolverService(options=SympilerOptions(enable_vs_block=False))
        try:
            registered, _ = handle_request(
                service, {"op": "register", "n": A.n}, [A.indptr, A.indices, A.data]
            )
            handle = registered["handle"]["handle_id"]
            rhs = np.ones(A.n)
            response, frames = handle_request(
                service, {"op": "solve", "handle": handle}, [A.data, rhs]
            )
            assert response == {"ok": True}
            (x,) = frames
            ref = SparseLinearSolver(A, options=SympilerOptions(enable_vs_block=False))
            assert np.allclose(x, ref.solve(rhs), atol=1e-10)
            with pytest.raises(PatternEvictedError):
                handle_request(service, {"op": "solve", "handle": "deadbeef"}, [A.data, rhs])
        finally:
            service.close()

    def test_unknown_op_rejected(self):
        service = SolverService()
        try:
            with pytest.raises(ProtocolError, match="unknown operation"):
                handle_request(service, {"op": "fry"}, [])
        finally:
            service.close()


class TestEndToEnd:
    @pytest.fixture()
    def served(self):
        service = SolverService(options=SympilerOptions(enable_vs_block=False))
        server, thread = serve_background(service)
        yield server.server_address, service
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

    def test_register_solve_roundtrip(self, served):
        address, _ = served
        A = laplacian_2d(8, shift=0.1)
        ref = SparseLinearSolver(
            A, ordering="natural", options=SympilerOptions(enable_vs_block=False)
        )
        with ServiceClient(address) as client:
            assert client.ping()
            handle = client.register_pattern(A, ordering="natural")
            assert handle.n == A.n and handle.kernel == "cholesky"
            rhs = np.linspace(0.5, 1.5, A.n)
            x = client.solve(handle, A.data, rhs)
            assert np.array_equal(x, ref.solve(rhs))

    def test_a_new_values_solve_is_one_native_call(self, served):
        """Decoded frames are writable, so a wire request takes the solver's one-call warm step."""
        if not c_compiler_available():
            pytest.skip("needs a C compiler")
        address, service = served
        A = laplacian_2d(8, shift=0.1)
        rhs = np.linspace(0.5, 1.5, A.n)
        counts = {"native": 0, "factorize": 0, "solve": 0}
        with ServiceClient(address) as client:
            handle = client.register_pattern(A, ordering="natural")
            solver = service._entry_for(handle.handle_id).solver
            kernel, solve, warm = solver._kernel, solver._solve, solver._warm
            assert warm is not None

            def counted(name, call):
                def wrapped(*args):
                    counts[name] += 1
                    return call(*args)

                return wrapped

            solver._kernel, solver._solve = counted("factorize", kernel), counted("solve", solve)
            solver._warm = counted("native", warm)
            x = client.solve(handle, A.data * 2.0, rhs)
        assert counts == {"native": 1, "factorize": 0, "solve": 0}
        ref = SparseLinearSolver(A.with_values(A.data * 2.0), ordering="natural", options=service.options)
        assert np.array_equal(x, ref.solve(rhs))

    def test_complex_input_is_refused_naming_its_dtype(self, served):
        """The client refuses complex values or a complex rhs before anything goes on the wire."""
        address, _ = served
        A = laplacian_2d(8, shift=0.1)
        rhs = np.ones(A.n)
        with ServiceClient(address) as client:
            handle = client.register_pattern(A)
            for call in (client.solve, client.submit):
                with pytest.raises(ValueError, match="values has complex dtype complex128"):
                    call(handle, A.data * (1 + 1j), rhs)
                with pytest.raises(ValueError, match="rhs has complex dtype complex128"):
                    call(handle, A.data, rhs + 1j)
            # The connection is still in step: nothing half-sent.
            assert np.isfinite(client.solve(handle, A.data, rhs)).all()

    def test_solve_by_handle_id_string(self, served):
        address, _ = served
        A = laplacian_2d(7, shift=0.2)
        with ServiceClient(address) as client:
            handle = client.register_pattern(A)
            x = client.solve(handle.handle_id, A.data, np.ones(A.n))
            assert np.isfinite(x).all()

    def test_the_wire_handle_is_the_services_own(self, served):
        """One handle type: the client's handle equals the service's, field for field."""
        address, service = served
        A = laplacian_2d(7, shift=0.25)
        with ServiceClient(address) as client:
            remote = client.register_pattern(A)
        local = service.register_pattern(A)
        assert type(remote) is PatternHandle and type(local) is PatternHandle
        assert asdict(remote) == asdict(local)
        # The in-process service takes the client's handle, and its id string.
        x = service.solve(local, A.data, np.ones(A.n))
        for handle in (remote, remote.handle_id):
            assert np.array_equal(service.solve(handle, A.data, np.ones(A.n)), x)
        assert service.evict(remote.handle_id) and not service.evict(remote)

    def test_unknown_handle_maps_to_pattern_evicted(self, served):
        address, _ = served
        with ServiceClient(address) as client:
            with pytest.raises(PatternEvictedError):
                client.solve("deadbeefdeadbeef", np.ones(3), np.ones(3))

    def test_evict_over_the_wire(self, served):
        address, _ = served
        A = laplacian_2d(6, shift=0.1)
        with ServiceClient(address) as client:
            handle = client.register_pattern(A)
            assert client.evict(handle)
            assert not client.evict(handle)
            with pytest.raises(PatternEvictedError):
                client.solve(handle, A.data, np.ones(A.n))

    def test_stats_over_the_wire(self, served):
        address, _ = served
        A = fem_stencil_2d(6, shift=0.3)
        with ServiceClient(address) as client:
            handle = client.register_pattern(A)
            client.solve(handle, A.data, np.ones(A.n))
            stats = client.stats()
        assert stats["counters"]["solves_ok"] >= 1
        assert handle.handle_id in stats["patterns"]
        assert stats["registered_patterns"] >= 1

    def test_backpressure_maps_to_overloaded_error(self, park_solve):
        service = SolverService(
            options=SympilerOptions(enable_vs_block=False),
            max_in_flight=1,
        )
        server, thread = serve_background(service)
        try:
            A = laplacian_2d(6, shift=0.1)
            with ServiceClient(server.server_address) as blocker, ServiceClient(
                server.server_address
            ) as client:
                handle = blocker.register_pattern(A)
                # Fill the single slot with a solve parked inside its
                # solver's step, on the blocker connection's handler thread.
                with park_solve(service, handle) as held:
                    parked = blocker.submit(handle, A.data, np.ones(A.n))
                    assert held.entered.wait(timeout=10)
                    assert service.admission.in_flight == 1
                    with pytest.raises(ServiceOverloadedError) as excinfo:
                        client.solve(handle, A.data, np.ones(A.n))
                    assert excinfo.value.retry_after == RETRY_AFTER_SECONDS
                assert np.isfinite(blocker.result(parked, timeout=10)).all()
                service.close()
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_options_roundtrip_and_unknown_fields_refused(self, served):
        address, _ = served
        A = laplacian_2d(9, shift=0.15)
        with ServiceClient(address) as client:
            handle = client.register_pattern(
                A, options=SympilerOptions(enable_vs_block=False)
            )
            assert handle.n == A.n
            from repro.service.errors import ProtocolError

            # An option that never existed, the removed ones an old client may
            # still send and the server's own toolchain: refused by name, not
            # with a TypeError.
            for field in (
                "no_such_option",
                "c_compiler",
                "c_flags",
                "max_supernode_width",
                "transformation_order",
                "peel_single_nonzero_columns",
                "peel_colcount_threshold",
                "max_peeled_iterations",
                "vectorize_min_length",
                "blas_switch_avg_colcount",
                "small_kernel_max_width",
                "enable_low_level",
                "num_threads",
                "vs_block_min_avg_width",
                "vs_block_min_supernode_width",
                "wavefront_min_avg_width",
            ):
                with pytest.raises(ProtocolError, match=field):
                    client.register_pattern(A, options={field: 1})

    def test_concurrent_clients_solve_on_their_own_threads(self, served):
        address, service = served
        A = laplacian_2d(9, shift=0.1)
        with ServiceClient(address) as control:
            handle = control.register_pattern(A)
        results = {}
        errors = []

        def drive(worker):
            try:
                with ServiceClient(address) as client:
                    scale = 1.0 + 0.01 * worker
                    results[worker] = (
                        client.solve(handle, A.data * scale, np.ones(A.n)) * scale
                    )
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=drive, args=(w,)) for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors and len(results) == 8
        baseline = results[0]
        for x in results.values():
            assert np.allclose(x, baseline, atol=1e-8)
        assert service.stats()["counters"]["solves_ok"] >= 8

    def test_v2_timeout_orphans_only_that_request(self, served, park_solve):
        """A timed-out solve is abandoned by id: the late response is
        discarded as an orphan and the connection stays usable."""
        address, service = served
        A = laplacian_2d(6, shift=0.3)
        with ServiceClient(address, timeout=30.0) as client:
            handle = client.register_pattern(A)
            # Hold the answer back until the wait has given up: a solve run
            # on the connection thread can otherwise answer within the timeout.
            with park_solve(service, handle) as held:
                with pytest.raises(TimeoutError, match="abandoned"):
                    client.solve(handle, A.data, np.ones(A.n), timeout=0.000001)
                assert held.entered.wait(timeout=10)
            # Same connection, next request: still works.
            x = client.solve(handle, A.data, np.ones(A.n))
            assert np.isfinite(x).all()
            assert client.ping()
            deadline = time.monotonic() + 5.0
            while client.orphaned_responses < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert client.orphaned_responses >= 1

    def test_shutdown_op_stops_the_server(self):
        service = SolverService(options=SympilerOptions(enable_vs_block=False))
        server, thread = serve_background(service)
        with ServiceClient(server.server_address) as client:
            client.shutdown_server()
        thread.join(timeout=10)
        assert not thread.is_alive()
        server.server_close()


class TestPipelining:
    """Many id-tagged requests in flight on one connection."""

    @pytest.fixture()
    def served(self):
        service = SolverService(options=SympilerOptions(enable_vs_block=False))
        server, thread = serve_background(service)
        yield server.server_address, service
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

    def test_pipelined_submits_roundtrip_bitwise(self, served):
        """Many in-flight submits on ONE connection, resolved out of band,
        each bitwise-identical to the lock-step answer."""
        address, service = served
        A = laplacian_2d(9, shift=0.1)
        ref = SparseLinearSolver(
            A, ordering="natural", options=SympilerOptions(enable_vs_block=False)
        )
        with ServiceClient(address) as client:
            handle = client.register_pattern(A, ordering="natural")
            rhss = [np.linspace(0.1, 1.0 + w, A.n) for w in range(24)]
            futures = [client.submit(handle, A.data, rhs) for rhs in rhss]
            for rhs, future in zip(rhss, futures):
                x = client.result(future, timeout=60)
                assert np.array_equal(x, ref.solve(rhs))
        assert service.stats()["counters"]["solves_ok"] >= 24

    def test_many_threads_share_one_connection(self, served):
        """More submitting threads than cores on ONE client, with a short
        switch interval: every answer is the one for its own request (a
        crossed id or a lost pending entry would break bit-exactness)."""
        import sys

        address, _ = served
        A = laplacian_2d(8, shift=0.1)
        ref = SparseLinearSolver(
            A, ordering="natural", options=SympilerOptions(enable_vs_block=False)
        )
        mismatches, errors = [], []

        def drive(client, handle, worker):
            try:
                for k in range(6):
                    rhs = np.linspace(0.1, 1.0 + worker + 0.1 * k, A.n)
                    x = client.solve(handle, A.data, rhs, timeout=60)
                    if not np.array_equal(x, ref.solve(rhs)):
                        mismatches.append((worker, k))
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ServiceClient(address) as client:
                handle = client.register_pattern(A, ordering="natural")
                threads = [
                    threading.Thread(target=drive, args=(client, handle, w))
                    for w in range(8)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                assert not any(t.is_alive() for t in threads)
                assert client.orphaned_responses == 0
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not mismatches

    def test_submit_error_lands_in_the_future_not_the_connection(self, served):
        address, _ = served
        A = laplacian_2d(6, shift=0.2)
        with ServiceClient(address) as client:
            handle = client.register_pattern(A)
            bad = client.submit("deadbeefdeadbeef", np.ones(3), np.ones(3))
            with pytest.raises(PatternEvictedError):
                client.result(bad, timeout=30)
            # The connection is unaffected.
            good = client.submit(handle, A.data, np.ones(A.n))
            assert np.isfinite(client.result(good, timeout=30)).all()

    def test_cancelled_submit_leaves_the_connection_usable(self, served, park_solve):
        """cancel() on a submit future abandons that request only: its
        response is discarded as an orphan and the reader keeps reading."""
        address, service = served
        A = laplacian_2d(6, shift=0.2)
        with ServiceClient(address) as client:
            handle = client.register_pattern(A)
            # Hold the answer back until cancel() has won the race.
            with park_solve(service, handle) as held:
                future = client.submit(handle, A.data, np.ones(A.n))
                assert held.entered.wait(timeout=10)
                assert future.cancel()
            deadline = time.monotonic() + 10.0
            while client.orphaned_responses < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert client.orphaned_responses == 1
            assert client._reader.is_alive()
            assert client.ping()
            x = client.solve(handle, A.data, np.ones(A.n))
            assert np.isfinite(x).all()

    def test_close_with_a_cancelled_future_still_fails_the_rest(
        self, served, park_solve
    ):
        from repro.service.errors import ShardUnavailableError

        address, service = served
        A = laplacian_2d(6, shift=0.2)
        client = ServiceClient(address)
        handle = client.register_pattern(A)
        with park_solve(service, handle) as held:
            cancelled = client.submit(handle, A.data, np.ones(A.n))
            waiting = client.submit(handle, A.data, np.ones(A.n))
            assert held.entered.wait(timeout=10)
            assert cancelled.cancel()
            client.close()
            with pytest.raises(ShardUnavailableError):
                waiting.result(timeout=10)
        assert not client._reader.is_alive()

    def test_result_tells_a_late_answer_from_an_abandoned_request(self, served):
        """A response that lands as the local wait gives up is returned, and
        a remote TimeoutError is raised as what it is — neither is reported
        as an abandoned request."""
        from concurrent.futures import Future
        from concurrent.futures import TimeoutError as FutureTimeoutError

        class LandsAsTheWaitGivesUp(Future):
            def result(self, timeout=None):
                if timeout is not None:
                    self.set_result("late answer")
                    raise FutureTimeoutError()
                return super().result()

        address, _ = served
        with ServiceClient(address) as client:
            assert client.result(LandsAsTheWaitGivesUp(), timeout=0.01) == "late answer"
            remote = Future()
            remote.set_exception(TimeoutError("deadline exceeded server-side"))
            with pytest.raises(TimeoutError, match="server-side"):
                client.result(remote, timeout=0.01)

    def test_close_fails_pending_futures(self, served, park_solve):
        from repro.service.errors import ShardUnavailableError

        address, service = served
        A = laplacian_2d(6, shift=0.2)
        client = ServiceClient(address)
        handle = client.register_pattern(A)
        # Park a request inside its solver's step, then close.
        with park_solve(service, handle) as held:
            future = client.submit(handle, A.data, np.ones(A.n))
            assert held.entered.wait(timeout=10)
            client.close()
            with pytest.raises(ShardUnavailableError):
                future.result(timeout=10)


def _head(version=WIRE_VERSION, magic=MAGIC, header_len=None, header=b""):
    import struct

    size = len(header) if header_len is None else header_len
    return struct.pack(">4sBI", magic, version, size) + header


def _framed(header: dict, *, frame_bytes: bytes = b"", version=WIRE_VERSION):
    """A message with a hand-written manifest (send_message would refuse it)."""
    import json

    return _head(version, header=json.dumps(header).encode()) + frame_bytes


def _message(header: dict, frames=()):
    buffer = io.BytesIO()
    send_message(buffer, header, frames)
    return buffer.getvalue()


_F64 = {"dtype": "float64", "shape": [4]}

#: (raw bytes, what the peer does next, regex the server's answer must match).
#: ``answer=None``: the server owes no answer (it is still waiting for bytes
#: the peer never sends); ``then="open…"``: a request-level refusal — the
#: request's integer id is echoed and the connection must stay usable;
#: ``then="closed"``: a framing error — the server answers once (id null) and
#: drops the connection.
_HOSTILE = {
    "bad-magic": (_head(magic=b"EVIL", header=b"{}"), "closed", "magic"),
    "version-1": (_framed({"op": "ping"}, version=1), "closed", r"version 1 .*speaks 2"),
    "version-3": (_framed({"op": "ping"}, version=3), "closed", r"version 3 .*speaks 2"),
    "version-255": (
        _framed({"op": "ping"}, version=255),
        "closed",
        r"version 255 .*speaks 2",
    ),
    "oversize-header": (
        _head(header_len=MAX_HEADER_BYTES + 1),
        "closed",
        "exceeds the limit",
    ),
    "header-not-json": (_head(header=b"\xff{not json"), "closed", "undecodable"),
    "header-not-an-object": (_head(header=b"[1, 2]"), "closed", "not a JSON object"),
    "manifest-not-a-list": (_framed({"op": "x", "frames": 7}), "closed", "manifest"),
    "object-dtype": (
        _framed({"op": "x", "frames": [{"dtype": "object", "shape": [1]}]}),
        "closed",
        "dtype",
    ),
    "negative-shape": (
        _framed({"op": "x", "frames": [{"dtype": "float64", "shape": [-4]}]}),
        "closed",
        "negative",
    ),
    "overflowing-shape": (
        _framed({"op": "x", "frames": [{"dtype": "float64", "shape": [2**33, 2**33]}]}),
        "closed",
        "exceeds the limit",
    ),
    "truncated-frame-then-close": (
        _framed({"op": "solve", "frames": [_F64, _F64]}, frame_bytes=b"\0" * 40),
        "hangup",
        None,
    ),
    "head-then-half-open": (_head(header_len=64), "half-open", None),
    "solve-with-1-frame": (
        _message({"op": "solve", "handle": "x", "id": 5}, [np.ones(4)]),
        "open-id-5",
        "expects 2 frames",
    ),
    "solve-with-3-frames": (
        _message({"op": "solve", "handle": "x", "id": 5}, [np.ones(4)] * 3),
        "open-id-5",
        "expects 2 frames",
    ),
    "non-integer-id": (_message({"op": "ping", "id": "seven"}), "open", "request id"),
}


class TestHostilePeers:
    """Malformed bytes on a raw socket must leave the server serving."""

    @pytest.mark.parametrize("case", sorted(_HOSTILE))
    def test_server_survives_and_keeps_serving(self, case):
        import socket

        raw, then, answer = _HOSTILE[case]
        service = SolverService(options=SympilerOptions(enable_vs_block=False))
        server, thread = serve_background(service)
        peer = socket.create_connection(server.server_address, timeout=10.0)
        try:
            peer.sendall(raw)
            if then == "hangup":
                peer.close()
            stream = peer.makefile("rb") if answer is not None else None
            if stream is not None:
                response, frames = recv_message(stream)
                assert response["ok"] is False and frames == []
                assert response["kind"] == "protocol"
                assert response["id"] == (5 if then == "open-id-5" else None)
                assert re.search(answer, response["error"])
            if then == "closed":
                assert stream.read(1) == b""  # answered once, then dropped
            if then.startswith("open"):
                peer.sendall(_message({"op": "ping", "id": 9}))
                response, _ = recv_message(stream)
                assert response["pong"] is True and response["id"] == 9

            # A well-behaved client on the same server is unaffected.
            A = laplacian_2d(7, shift=0.1)
            ref = SparseLinearSolver(
                A, ordering="natural", options=SympilerOptions(enable_vs_block=False)
            )
            rhs = np.linspace(0.5, 1.5, A.n)
            with ServiceClient(server.server_address, timeout=30.0) as client:
                handle = client.register_pattern(A, ordering="natural")
                assert np.array_equal(client.solve(handle, A.data, rhs), ref.solve(rhs))
            assert thread.is_alive()
        finally:
            peer.close()
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


#: The places :func:`_mutate` corrupts, and the seeds the fuzzer runs on each.
_MUTATIONS = ("magic", "version", "header-length", "header-json", "array-count", "array-length", "truncation")
_SEEDS_PER_MUTATION = 10


def _mutate(message: bytes, kind: str, rng: np.random.Generator) -> bytes:
    """``message`` (one valid frame) corrupted in the place ``kind`` names."""
    import json

    raw = bytearray(message)
    header_len = int.from_bytes(raw[5:9], "big")
    if kind == "magic":
        raw[int(rng.integers(0, 4))] ^= int(rng.integers(1, 256))
    elif kind == "version":
        raw[4] = (WIRE_VERSION + int(rng.integers(1, 256))) % 256
    elif kind == "header-length":
        choices = (
            int(rng.integers(0, header_len)),
            int(rng.integers(header_len + 1, len(raw) + 64)),
            MAX_HEADER_BYTES + 1 + int(rng.integers(0, 2**31)),
        )
        raw[5:9] = choices[int(rng.integers(0, 3))].to_bytes(4, "big")
    elif kind == "header-json":
        for _ in range(int(rng.integers(1, 4))):
            raw[9 + int(rng.integers(0, header_len))] = int(rng.integers(0, 256))
    elif kind in ("array-count", "array-length"):
        header = json.loads(bytes(raw[9 : 9 + header_len]))
        manifest = header["frames"]
        k = int(rng.integers(0, len(manifest)))
        if kind == "array-count" and rng.integers(0, 2):
            manifest.insert(k, manifest[k])
        elif kind == "array-count":
            manifest.pop(k)
        else:
            size = manifest[k]["shape"][0]
            choices = (int(rng.integers(0, 2 * size)), -int(rng.integers(1, 5)), 2**40)
            manifest[k]["shape"] = [choices[int(rng.integers(0, 3))]]
        return _framed(header, frame_bytes=bytes(raw[9 + header_len :]))
    else:  # truncation
        raw = raw[: int(rng.integers(1, len(raw)))]
    return bytes(raw)


class TestWireFuzzer:
    """Seeded corruptions of a valid solve frame, each on a fresh connection."""

    @pytest.fixture(scope="class")
    def served(self):
        options = SympilerOptions(enable_vs_block=False)
        A = laplacian_2d(7, shift=0.1)
        rhs = np.linspace(0.5, 1.5, A.n)
        expected = SparseLinearSolver(A, ordering="natural", options=options).solve(rhs)
        server, thread = serve_background(SolverService(options=options))
        try:
            with ServiceClient(server.server_address, timeout=30.0) as client:
                handle = client.register_pattern(A, ordering="natural")
            yield server.server_address, thread, handle, A, rhs, expected
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    @pytest.mark.parametrize("kind", _MUTATIONS)
    def test_mutated_frames_leave_the_server_serving(self, served, kind):
        import socket

        address, thread, handle, A, rhs, expected = served
        valid = _message({"op": "solve", "handle": handle.handle_id, "id": 7}, [A.data, rhs])
        for s in range(_SEEDS_PER_MUTATION):
            seed = _MUTATIONS.index(kind) * _SEEDS_PER_MUTATION + s
            peer = socket.create_connection(address, timeout=10.0)
            try:
                peer.sendall(_mutate(valid, kind, np.random.default_rng(seed)))
                # The peer stays connected (possibly mid-message) while a
                # well-formed solve runs on a connection of its own.
                with ServiceClient(address, timeout=30.0) as client:
                    x = client.solve(handle, A.data, rhs)
                assert np.array_equal(x, expected), f"seed {seed}"
            finally:
                peer.close()
        assert thread.is_alive()


class TestToolchainIsTheServers:
    """A peer must not choose the command the server runs to compile a kernel."""

    def test_a_compiler_probe_is_refused_and_runs_nothing(self, tmp_path):
        import socket

        marker = tmp_path / "marker"
        service = SolverService(options=SympilerOptions(enable_vs_block=False))
        server, thread = serve_background(service)
        peer = socket.create_connection(server.server_address, timeout=30.0)
        try:
            A = laplacian_2d(5, shift=0.1)
            options = {"backend": "c", "c_compiler": "/bin/sh", "c_flags": ["-c", f"touch {marker}; exit 1"]}
            header = {"op": "register", "id": 3, "n": A.n, "kernel": "cholesky", "options": options}
            peer.sendall(_message(header, [A.indptr, A.indices, A.data]))
            response, frames = recv_message(peer.makefile("rb"))
            assert response["ok"] is False and response["kind"] == "protocol" and frames == []
            assert "c_compiler" in response["error"] and "c_flags" in response["error"]
            assert not marker.exists()
            # The toolchain fields are also refused one at a time.
            for field, value in (("c_compiler", "/bin/sh"), ("c_flags", ["-c", f"touch {marker}"])):
                with pytest.raises(ProtocolError, match=field):
                    handle_request(service, {**header, "options": {"backend": "c", field: value}}, [A.indptr, A.indices, A.data])
            assert not marker.exists()
        finally:
            peer.close()
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_the_client_sends_options_without_the_toolchain(self, tmp_path):
        service = SolverService(options=SympilerOptions(enable_vs_block=False))
        server, thread = serve_background(service)
        try:
            options = SympilerOptions(enable_vs_block=False, c_compiler="/bin/sh", c_flags=("-c", "exit 1"))
            with ServiceClient(server.server_address, timeout=30.0) as client:
                handle = client.register_pattern(laplacian_2d(5, shift=0.1), options=options)
            assert handle.n == 25
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


class TestOneSegmentPerMessage:
    """The 44 ms regression: a message must never wait out a delayed ACK."""

    def test_nodelay_on_both_ends_and_fast_ping(self):
        import socket
        import statistics

        service = SolverService(options=SympilerOptions(enable_vs_block=False))
        server, thread = serve_background(service)
        accepted = []
        handler_setup = server.RequestHandlerClass.setup

        def recording_setup(handler):
            handler_setup(handler)
            accepted.append(
                handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )

        server.RequestHandlerClass = type(
            "_Recording", (server.RequestHandlerClass,), {"setup": recording_setup}
        )
        try:
            with ServiceClient(server.server_address) as client:
                assert client.ping()
                assert (
                    client._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0
                )
                assert accepted and accepted[0] != 0
                samples = []
                for _ in range(20):
                    t0 = time.perf_counter()
                    assert client.ping()
                    samples.append(time.perf_counter() - t0)
            assert statistics.median(samples) < 0.010
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
