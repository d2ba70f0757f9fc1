"""The wire client: :class:`ServiceClient` mirrors the in-process service API.

One persistent connection per client, one request path: every call tags its
header with an id, sends it under the send lock and waits on a future that
the background reader thread resolves when the response carrying that id
arrives.  So one connection **pipelines** many requests — :meth:`submit`
returns a future immediately, the requests wait in the connection until the
server's connection thread reads and solves them, one after another — and
:meth:`solve` is literally ``submit(...).result(timeout)``.  A timed-out or
cancelled request is simply *abandoned*: its eventual response is recognized
by id and discarded (counted in :attr:`orphaned_responses`), so one slow
solve does not poison the connection.

Errors map back to the same consolidated exception types the in-process API
raises (:mod:`repro.service.errors`), so code moves between
``SolverService``, ``ServiceClient`` and ``ShardFleet`` unchanged:

* ``overloaded`` → :class:`~repro.service.errors.ServiceOverloadedError`
  (carrying the server's ``retry_after`` hint),
* ``evicted`` → :class:`~repro.service.errors.PatternEvictedError`,
* a broken connection → :class:`~repro.service.errors.ShardUnavailableError`
  (retryable — the fleet uses it to fail over),
* anything else → :class:`~repro.service.errors.RemoteServiceError` with the
  server-side message and kind.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import asdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.compiler.options import SympilerOptions
from repro.observe import trace as observe_trace
from repro.service.errors import (
    ProtocolError,
    RemoteServiceError,
    ShardUnavailableError,
    error_from_wire,
)
from repro.service.session import PatternHandle, handle_id_of
from repro.service.wire import TOOLCHAIN_OPTIONS, recv_message, send_message
from repro.sparse.csc import CSCMatrix
from repro.sparse.utils import require_real

__all__ = ["ServiceClient", "RemoteServiceError"]


def _solution_from(response: Dict, frames: List[np.ndarray]) -> np.ndarray:
    if len(frames) != 1:
        raise ProtocolError(f"solve response carried {len(frames)} frames")
    return np.array(frames[0], dtype=np.float64, copy=True)


class _Request(Future):
    """One in-flight request; resolves to ``decode(response, frames)``."""

    def __init__(self, request_id: int, decode: Callable) -> None:
        super().__init__()
        self.request_id = request_id
        self.decode = decode


class ServiceClient:
    """Talk to a running solver service over TCP or a Unix domain socket.

    ``address`` is ``(host, port)`` for TCP or a filesystem path string for
    a Unix socket.  The client is thread-safe and a context manager.

    ``timeout`` bounds the connect and is the default per-request timeout.
    The socket itself has no read timeout — the reader thread blocks until
    data arrives and timeouts are enforced per future, which is what makes a
    timeout recoverable instead of stream-corrupting.
    """

    def __init__(
        self,
        address: Union[Tuple[str, int], str],
        *,
        timeout: Optional[float] = 60.0,
    ) -> None:
        self.address = address
        self.timeout = timeout
        if isinstance(address, str):
            if not hasattr(socket, "AF_UNIX"):  # pragma: no cover - non-POSIX
                raise OSError("unix domain sockets are unavailable on this platform")
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.settimeout(timeout)
            self._sock.connect(address)
        else:
            host, port = address
            self._sock = socket.create_connection((host, int(port)), timeout=timeout)
            # A request is one small message the peer is waiting for: never
            # hold it back for coalescing with a segment that is not coming.
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock.settimeout(None)
        self._rfile = self._sock.makefile("rb")
        self._wfile = self._sock.makefile("wb")
        self._lock = threading.Lock()  # serializes sends
        self._closed = False
        self._broken_reason = ""
        #: In-flight requests by id, guarded by ``_plock``; the reader
        #: thread resolves or discards them.
        self._plock = threading.Lock()
        self._pending: Dict[int, _Request] = {}
        self._next_id = 0
        #: Responses whose request was abandoned (timed out or cancelled)
        #: before they arrived: discarded by id — the desync-recovery counter.
        self.orphaned_responses = 0
        self._reader = threading.Thread(
            target=self._reader_loop, name="repro-client-reader", daemon=True
        )
        self._reader.start()

    # ------------------------------------------------------------------ #
    # The one request path: tag with an id, send, wait on the future
    # ------------------------------------------------------------------ #
    def _reader_loop(self) -> None:
        # Whatever ends the loop — a closed socket, a garbled frame, a bug in
        # here — every pending future must hear about it.
        try:
            while True:
                message = recv_message(self._rfile)
                if message is None:
                    raise ShardUnavailableError("server closed the connection")
                self._resolve(*message)
        except Exception as exc:  # ProtocolError, OSError, ValueError, ...
            self._fail_pending(exc)

    def _resolve(self, response: Dict, frames: List[np.ndarray]) -> None:
        request_id = response.get("id")
        with self._plock:
            request = (
                self._pending.pop(request_id, None)
                if isinstance(request_id, int)
                else None
            )
        # Claim the future before resolving it: False means the caller
        # cancelled it, and True locks out a late cancel(), so set_result /
        # set_exception below cannot raise InvalidStateError.
        if request is None or not request.set_running_or_notify_cancel():
            # The orphaned frame of an abandoned (timed-out or cancelled)
            # request: discard it — only that request failed, the connection
            # stays synchronized by id.
            self.orphaned_responses += 1
            return
        try:
            if not response.get("ok"):
                raise error_from_wire(response)
            request.set_result(request.decode(response, frames))
        except Exception as exc:  # noqa: BLE001 - the future carries it
            request.set_exception(exc)

    def _fail_pending(self, exc: BaseException) -> None:
        # Mark the connection broken *before* draining: a request registered
        # after the drain must find the mark when it comes to send.
        with self._lock:
            if not self._closed and not self._broken_reason:
                self._broken_reason = f"{type(exc).__name__}: {exc}"
        with self._plock:
            pending = list(self._pending.values())
            self._pending.clear()
        if not isinstance(exc, ShardUnavailableError):
            exc = ShardUnavailableError(f"connection lost mid-request ({exc})")
        for request in pending:
            if request.set_running_or_notify_cancel():
                request.set_exception(exc)

    def _submit_raw(
        self,
        header: Dict,
        frames: Sequence[np.ndarray] = (),
        decode: Callable = lambda response, frames: (response, frames),
    ) -> _Request:
        """Send one id-tagged request; its future resolves to ``decode(...)``."""
        with self._plock:
            request = _Request(self._next_id, decode)
            self._next_id += 1
            self._pending[request.request_id] = request
        try:
            with self._lock:
                # ShardUnavailableError (a ConnectionError, retryable): the
                # fleet races requests against shard recovery, and a request
                # that grabbed a just-retired connection must fail over.
                if self._closed:
                    raise ShardUnavailableError("client is closed")
                if self._broken_reason:
                    raise ShardUnavailableError(
                        f"client connection is broken ({self._broken_reason}); "
                        "open a new ServiceClient"
                    )
                try:
                    send_message(
                        self._wfile, {**header, "id": request.request_id}, frames
                    )
                except BaseException:
                    # A partial write leaves the outbound stream unframed:
                    # the server drops the connection on the garbled message.
                    self._broken_reason = "send failed mid-frame"
                    raise
        except BaseException:
            with self._plock:
                self._pending.pop(request.request_id, None)
            raise
        return request

    def result(self, future: Future, *, timeout: Optional[float] = None) -> np.ndarray:
        """Wait on a :meth:`submit` future.

        On timeout the request is *abandoned*: the reader discards its
        eventual response by id, so only this request fails and the
        connection stays usable.
        """
        try:
            return future.result(timeout=timeout)
        except FutureTimeoutError:
            if future.done():
                # Not our timeout: the answer landed just as the wait gave
                # up, or the server itself answered with a TimeoutError.
                return future.result()
            with self._plock:
                self._pending.pop(getattr(future, "request_id", None), None)
            raise TimeoutError(
                f"no response within {timeout}s (request abandoned; the "
                "connection remains usable)"
            ) from None

    def _call(
        self, header: Dict, frames: Sequence[np.ndarray] = ()
    ) -> Tuple[Dict, List[np.ndarray]]:
        return self.result(self._submit_raw(header, frames), timeout=self.timeout)

    # ------------------------------------------------------------------ #
    # Public API (the SolverEndpoint surface)
    # ------------------------------------------------------------------ #
    def register_pattern(
        self,
        A,
        *,
        kernel: str = "cholesky",
        ordering: str = "mindeg",
        options: Optional[Union[SympilerOptions, Dict]] = None,
    ) -> PatternHandle:
        """Register ``A``'s pattern on the server; returns its handle.

        ``A`` may be anything the front-end ingest layer accepts
        (:class:`CSCMatrix`, ``scipy.sparse``, COO triplets, dense) — it is
        converted before the wire frames are built.  ``options`` travel
        without ``c_compiler`` / ``c_flags``: the server compiles with its own
        toolchain.
        """
        if not isinstance(A, CSCMatrix):
            from repro.frontend.ingest import as_csc

            A = as_csc(A)
        payload: Optional[Dict] = None
        if isinstance(options, SympilerOptions):
            payload = {k: v for k, v in asdict(options).items() if k not in TOOLCHAIN_OPTIONS}
        elif options is not None:
            payload = dict(options)
        header = {
            "op": "register",
            "n": A.n,
            "kernel": kernel,
            "ordering": ordering,
            "options": payload,
        }
        with observe_trace.span("wire-register", kernel=kernel, n=A.n):
            header.update(observe_trace.wire_trace_headers())
            response, _ = self._call(header, [A.indptr, A.indices, A.data])
        return PatternHandle(**response["handle"])

    def _send_solve(self, handle, values, rhs) -> _Request:
        # Called under the caller's span: the trace headers captured here
        # make every shard-side span a child of this request — the
        # cross-process trace edge.
        require_real(values, "values")
        require_real(rhs, "rhs")
        header = {"op": "solve", "handle": handle_id_of(handle)}
        header.update(observe_trace.wire_trace_headers())
        frames = [
            np.ascontiguousarray(values, dtype=np.float64),
            np.ascontiguousarray(rhs, dtype=np.float64),
        ]
        return self._submit_raw(header, frames, _solution_from)

    def submit(
        self,
        handle: Union[PatternHandle, str],
        values: np.ndarray,
        rhs: np.ndarray,
    ) -> Future:
        """Enqueue one solve; returns a future resolving to the solution.

        The request goes on the wire immediately and many submits can be in
        flight on one connection, so the client never waits a round trip
        between them.  The span covers sending only.
        """
        with observe_trace.span("wire-submit", handle=handle_id_of(handle)):
            return self._send_solve(handle, values, rhs)

    def solve(
        self,
        handle: Union[PatternHandle, str],
        values: np.ndarray,
        rhs: np.ndarray,
        *,
        timeout: Optional[float] = None,
    ) -> np.ndarray:
        """Solve one system: :meth:`submit` + :meth:`result`, one span."""
        with observe_trace.span("wire-solve", handle=handle_id_of(handle)):
            return self.result(
                self._send_solve(handle, values, rhs),
                timeout=self.timeout if timeout is None else timeout,
            )

    def stats(self) -> Dict:
        """The server's cumulative metrics snapshot."""
        response, _ = self._call({"op": "stats"})
        return response["stats"]

    def metrics_text(self) -> str:
        """The server's unified registry as Prometheus exposition text.

        Fetches the ``metrics`` wire verb: the server renders its default
        :class:`~repro.observe.registry.MetricsRegistry` (the service, disk
        cache, artifact cache and front-end collectors) in text format 0.0.4 and
        ships it as one ``uint8`` frame; this decodes it back to ``str``.
        """
        _, frames = self._call({"op": "metrics"})
        if len(frames) != 1:
            raise ProtocolError(f"metrics response carried {len(frames)} frames")
        return bytes(np.asarray(frames[0], dtype=np.uint8)).decode("utf-8")

    def evict(self, handle: Union[PatternHandle, str]) -> bool:
        """Explicitly evict a registered pattern server-side."""
        response, _ = self._call({"op": "evict", "handle": handle_id_of(handle)})
        return bool(response.get("evicted"))

    def ping(self) -> bool:
        """Liveness probe."""
        response, _ = self._call({"op": "ping"})
        return bool(response.get("pong"))

    def ping_info(self) -> Dict:
        """A timed liveness probe: the server's reply plus round-trip facts.

        The reply carries ``server_wall_time`` / ``server_monotonic`` /
        ``pid``; this adds the client-side send/recv wall clocks and
        ``rtt_seconds``, which is everything :meth:`estimate_clock_offset`
        needs from one probe.
        """
        sent_at = time.time()
        response, _ = self._call({"op": "ping"})
        received_at = time.time()
        info = dict(response)
        info["client_send_wall_time"] = sent_at
        info["client_recv_wall_time"] = received_at
        info["rtt_seconds"] = received_at - sent_at
        return info

    def estimate_clock_offset(self) -> float:
        """Estimate ``server_wall_clock - client_wall_clock`` in seconds.

        NTP-style: each of five timed pings brackets the server's reported wall time
        between the client's send and receive stamps; the sample with the
        smallest round-trip (least queueing noise) wins, and the offset is
        the server time minus the bracket midpoint.  Used by
        :meth:`ShardFleet.chrome_trace` to place every shard's spans on the
        fleet client's clock.
        """
        best_rtt: Optional[float] = None
        best_offset = 0.0
        for _ in range(5):
            info = self.ping_info()
            midpoint = (
                info["client_send_wall_time"] + info["client_recv_wall_time"]
            ) / 2.0
            if best_rtt is None or info["rtt_seconds"] < best_rtt:
                best_rtt = info["rtt_seconds"]
                best_offset = float(info["server_wall_time"]) - midpoint
        return best_offset

    def health(self) -> Dict:
        """The server's health document (uptime, wire version, load facts).

        Fetches the ``health`` wire verb: service-level liveness (uptime,
        registered patterns, in-flight count, solve counters)
        plus transport facts (wire version, server pid, server clocks,
        whether tracing is enabled server-side).
        """
        response, _ = self._call({"op": "health"})
        return response["health"]

    def trace_spans(self) -> Dict:
        """Drain the server's finished-span buffer.

        Returns ``{"pid": ..., "enabled": ..., "spans": [span dicts]}``.
        Each span is returned exactly once across calls, so repeated fleet
        trace merges never duplicate work.
        """
        _, frames = self._call({"op": "trace"})
        if len(frames) != 1:
            raise ProtocolError(f"trace response carried {len(frames)} frames")
        raw = bytes(np.asarray(frames[0], dtype=np.uint8)).decode("utf-8")
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise ProtocolError(f"undecodable trace payload: {exc}") from exc

    def shutdown_server(self) -> None:
        """Ask the server to shut down (it answers, then stops accepting)."""
        self._call({"op": "shutdown"})

    # ------------------------------------------------------------------ #
    def _teardown(self) -> None:
        for stream in (self._wfile, self._rfile):
            try:
                stream.close()
            except OSError:
                pass
        try:
            self._sock.close()
        except OSError:
            pass

    def close(self) -> None:
        """Close the connection (idempotent).

        Pending futures fail with :class:`ShardUnavailableError` as the
        reader thread observes the closed socket and drains them.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        try:
            # Unblock the reader thread's recv immediately.
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._teardown()
        if self._reader is not threading.current_thread():
            self._reader.join(timeout=1.0)

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
