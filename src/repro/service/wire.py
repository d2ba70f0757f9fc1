"""Stdlib-only wire transport: JSON headers + raw ndarray frames over sockets.

The protocol is deliberately tiny — one framing rule in both directions::

    b"RSRV" | version:u8 | header_len:u32 (big-endian)
    <header_len bytes of JSON>
    <frame 0 bytes> <frame 1 bytes> ...

The JSON header carries the operation and its scalar arguments plus a
``frames`` manifest (``[{"dtype": "float64", "shape": [n]}, ...]``); the
frames follow as raw C-order bytes, so a megabyte of matrix values crosses
the socket without base64 or pickle (and without trusting the peer with
arbitrary object deserialization).  Works identically over TCP
(:class:`socketserver.ThreadingTCPServer`) and Unix domain sockets.

Operations: ``register`` (pattern + values + kernel/options → the
:class:`~repro.service.session.PatternHandle`'s fields, which the client
rebuilds the handle from), ``solve`` (handle id + values + rhs → solution frame), ``stats``,
``metrics`` (the unified observability registry rendered as Prometheus text,
returned as a ``uint8`` frame), ``health`` (service liveness + uptime +
wire/pid/clock facts), ``trace`` (drain this process's finished-span buffer
— each span is served once — as a JSON ``uint8`` frame, what
:meth:`ShardFleet.chrome_trace` merges),
``evict``, ``ping`` and ``shutdown``.  Error responses carry ``ok: false``, a
``kind`` (the stable tags of :mod:`repro.service.errors` — ``"overloaded"``
includes ``retry_after`` for client backoff, ``"evicted"`` means
re-register), ``retryable`` and the server-side message.

**One protocol generation.**  The version byte is :data:`WIRE_VERSION`; a
message carrying any other value is refused with a :class:`ProtocolError`
naming both numbers and the connection is closed, so a stale or hostile
peer fails loudly instead of being half-understood.  There is no
negotiation.

**Request ids.**  A request may carry an integer ``id`` in its header; the
response echoes it (``null`` when the request had none).  Each connection
is served by one thread, which answers every message — a ``solve`` runs on
it through the service's ``solve`` — before it reads the next; a client
may still send many requests without waiting (they queue in the socket)
and must match responses by id.

**One write per message.**  :func:`send_message` emits the 9-byte head and
the JSON header as one write, the frames after it, then flushes once; both
ends of a TCP connection set ``TCP_NODELAY`` and write through a buffered
stream.  (A head that travels as its own small segment on a Nagle-enabled
socket waits for the peer's delayed ACK — ~40 ms per message on Linux.)

**Distributed tracing**: any request header may carry ``trace_id`` /
``parent_id`` (emitted by :func:`repro.observe.trace.wire_trace_headers` on
the client only while a span is open).  The server ``attach_remote``-s that
context around the operation, so shard-side spans join the caller's trace,
parented under the caller's request span.  When tracing is disabled the
headers carry no trace keys at all.
"""

from __future__ import annotations

import json
import math
import os
import socketserver
import struct
import threading
import time
from dataclasses import asdict
from dataclasses import fields as dataclass_fields
from typing import BinaryIO, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compiler.options import SympilerOptions
from repro.observe import trace as observe_trace
from repro.service.errors import ProtocolError, to_wire_error
from repro.service.session import SolverService
from repro.sparse.csc import CSCMatrix

__all__ = [
    "MAGIC",
    "WIRE_VERSION",
    "ProtocolError",
    "TOOLCHAIN_OPTIONS",
    "send_message",
    "recv_message",
    "handle_request",
    "SolverServiceServer",
    "serve_background",
]

MAGIC = b"RSRV"
#: The one protocol generation this build speaks; any other version byte is
#: refused by :func:`recv_message`.
WIRE_VERSION = 2
_HEAD = struct.Struct(">4sBI")

#: Hard ceilings so a corrupt or malicious peer fails loudly instead of
#: driving the server into a giant allocation.
MAX_HEADER_BYTES = 16 * 1024 * 1024
MAX_FRAME_BYTES = 1 << 31

#: Frame dtypes the server will materialize.  Object/str dtypes are refused
#: outright; everything numeric round-trips bit-exactly.
_ALLOWED_DTYPES = frozenset(
    ["float64", "float32", "int64", "int32", "int16", "uint8", "bool"]
)


# --------------------------------------------------------------------------- #
# Framing
# --------------------------------------------------------------------------- #
def send_message(
    stream: BinaryIO, header: Dict, frames: Sequence[np.ndarray] = ()
) -> None:
    """Write one framed message (header JSON + raw ndarray frames).

    The head and the JSON header leave as **one** write, so the 9-byte head
    never travels as its own segment; frames follow, then a single flush.
    """
    arrays = []
    for frame in frames:
        a = np.asarray(frame)
        if not a.flags["C_CONTIGUOUS"]:
            # ascontiguousarray would also promote 0-d to 1-d, corrupting the
            # shape manifest; only copy when the layout actually requires it.
            a = np.ascontiguousarray(a)
        arrays.append(a)
    header = dict(header)
    header["frames"] = [
        {"dtype": str(a.dtype), "shape": list(a.shape)} for a in arrays
    ]
    payload = json.dumps(header, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_HEADER_BYTES:
        raise ProtocolError(f"header of {len(payload)} bytes exceeds the limit")
    stream.write(_HEAD.pack(MAGIC, WIRE_VERSION, len(payload)) + payload)
    for a in arrays:
        if a.ndim == 0:
            stream.write(a.tobytes())  # 0-d buffers cannot be byte-cast
        elif a.size:  # zero-size views cannot be byte-cast (and carry no bytes)
            stream.write(memoryview(a).cast("B"))
    stream.flush()


def _read_exact(stream: BinaryIO, nbytes: int) -> bytearray:
    """The next ``nbytes`` of ``stream``, read into a fresh buffer.

    A ``bytearray``, so the frames decoded over it are writable arrays: a
    wire request's values and right-hand side reach the solver's one-call
    native warm step as they are, without a copy.
    """
    buffer = bytearray(nbytes)
    got = 0
    with memoryview(buffer) as view:
        while got < nbytes:
            n = stream.readinto(view[got:])
            if not n:
                raise ProtocolError(
                    f"connection closed mid-message ({nbytes - got} of {nbytes} "
                    "bytes missing)"
                )
            got += n
    return buffer


def recv_message(stream: BinaryIO) -> Optional[Tuple[Dict, List[np.ndarray]]]:
    """Read one framed message; ``None`` on clean EOF before a new message.

    Everything a peer can get wrong — magic, version byte, header size or
    encoding, the frames manifest, a short read — raises
    :class:`ProtocolError`; nothing else escapes.
    """
    head = stream.read(_HEAD.size)
    if not head:
        return None
    if len(head) < _HEAD.size:
        raise ProtocolError("truncated message head")
    magic, version, header_len = _HEAD.unpack(head)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r} (expected {MAGIC!r})")
    if version != WIRE_VERSION:
        raise ProtocolError(
            f"unsupported wire version {version} (this build speaks "
            f"{WIRE_VERSION})"
        )
    if header_len > MAX_HEADER_BYTES:
        raise ProtocolError(f"header of {header_len} bytes exceeds the limit")
    try:
        header = json.loads(_read_exact(stream, header_len).decode("utf-8"))
    except ValueError as exc:
        raise ProtocolError(f"undecodable header: {exc}") from exc
    if not isinstance(header, dict):
        raise ProtocolError("header is not a JSON object")
    try:
        manifest = [
            (str(spec.get("dtype")), tuple(int(s) for s in spec.get("shape", [])))
            for spec in header.get("frames", [])
        ]
    except (AttributeError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed frames manifest: {exc}") from exc
    frames: List[np.ndarray] = []
    for dtype_name, shape in manifest:
        if dtype_name not in _ALLOWED_DTYPES:
            raise ProtocolError(f"refusing frame dtype {dtype_name!r}")
        dtype = np.dtype(dtype_name)
        if any(s < 0 for s in shape):
            raise ProtocolError(f"negative frame dimension in {shape}")
        # math.prod on Python ints is overflow-free: a malicious shape like
        # [2**33, 2**33] must trip the size ceiling, not wrap around it.
        nbytes = math.prod(shape) * dtype.itemsize
        if nbytes > MAX_FRAME_BYTES:
            raise ProtocolError(f"frame of {nbytes} bytes exceeds the limit")
        raw = _read_exact(stream, nbytes)
        frames.append(np.frombuffer(raw, dtype=dtype).reshape(shape))
    return header, frames


# --------------------------------------------------------------------------- #
# Server-side operation dispatch
# --------------------------------------------------------------------------- #
#: The toolchain fields: they name the command the server runs to compile a
#: kernel, so no peer may choose them.  The server compiles with its own
#: (``REPRO_CC`` / ``REPRO_CFLAGS``, or ``SolverService(options=)``).
TOOLCHAIN_OPTIONS = frozenset({"c_compiler", "c_flags"})
_OPTION_FIELDS = {f.name for f in dataclass_fields(SympilerOptions)} - TOOLCHAIN_OPTIONS


def _options_from_wire(payload: Optional[Dict], toolchain: SympilerOptions) -> Optional[SympilerOptions]:
    """Rebuild a :class:`SympilerOptions` from a wire dict, on the toolchain of ``toolchain``.

    Toolchain and unknown keys are refused by name.
    """
    if not payload:
        return None
    refused = set(payload) & TOOLCHAIN_OPTIONS
    if refused:
        raise ProtocolError(f"option field(s) {sorted(refused)} are the server's own, not settable over the wire")
    unknown = set(payload) - _OPTION_FIELDS
    if unknown:
        raise ProtocolError(f"unknown option field(s): {sorted(unknown)}")
    return SympilerOptions(c_compiler=toolchain.c_compiler, c_flags=toolchain.c_flags).with_updates(**payload)


def handle_request(
    service: SolverService, header: Dict, frames: List[np.ndarray]
) -> Tuple[Dict, List[np.ndarray]]:
    """Execute one wire operation against ``service``.

    Returns ``(response_header, response_frames)``.  A ``solve`` runs on this
    thread inside the ``serve`` span, so its ``dispatch`` span is a child of
    ``serve`` in the remote caller's trace.  Raises for error paths (the
    connection handler maps exceptions to ``ok: false`` responses so one bad
    request never kills the connection, let alone the server).
    """
    with observe_trace.attach_remote(header.get("trace_id"), header.get("parent_id")):
        with observe_trace.span("serve", op=str(header.get("op"))):
            return _dispatch_op(service, header, frames)


def _dispatch_op(
    service: SolverService, header: Dict, frames: List[np.ndarray]
) -> Tuple[Dict, List[np.ndarray]]:
    op = header.get("op")
    if op == "ping":
        # Server-side clocks let one probe serve both the health surface
        # and the clock-offset estimator behind the merged fleet trace.
        return {
            "ok": True,
            "pong": True,
            "server_wall_time": time.time(),
            "server_monotonic": time.monotonic(),
            "pid": os.getpid(),
        }, []
    if op == "health":
        health = dict(service.health())
        health.update(
            {
                "wire_version": WIRE_VERSION,
                "pid": os.getpid(),
                "server_wall_time": time.time(),
                "server_monotonic": time.monotonic(),
                "tracing_enabled": observe_trace.enabled(),
            }
        )
        return {"ok": True, "health": health}, []
    if op == "trace":
        spans = observe_trace.get_tracer().drain()
        payload = {
            "pid": os.getpid(),
            "enabled": observe_trace.enabled(),
            "spans": [sp.as_dict() for sp in spans],
        }
        raw = np.frombuffer(
            json.dumps(payload, separators=(",", ":"), default=repr).encode("utf-8"),
            dtype=np.uint8,
        )
        return {"ok": True, "count": len(spans)}, [raw]
    if op == "stats":
        return {"ok": True, "stats": service.stats()}, []
    if op == "metrics":
        # Prometheus exposition text (the registry's collectors: service,
        # disk cache, artifact cache, front end) shipped as a uint8 frame
        # so the existing framing rules carry it without a new encoding.
        from repro.observe import prometheus_text

        text = prometheus_text()
        payload = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
        return (
            {"ok": True, "content_type": "text/plain; version=0.0.4"},
            [payload],
        )
    if op == "register":
        if len(frames) != 3:
            raise ProtocolError(
                "register expects 3 frames (indptr, indices, data), "
                f"got {len(frames)}"
            )
        indptr, indices, data = frames
        n = int(header.get("n", len(indptr) - 1))
        A = CSCMatrix(
            n,
            n,
            np.asarray(indptr, dtype=np.int64),
            np.asarray(indices, dtype=np.int64),
            np.asarray(data, dtype=np.float64),
        )
        handle = service.register_pattern(
            A,
            kernel=str(header.get("kernel", "cholesky")),
            ordering=str(header.get("ordering", "mindeg")),
            options=_options_from_wire(header.get("options"), service.options),
        )
        return {"ok": True, "handle": asdict(handle)}, []
    if op == "solve":
        if len(frames) != 2:
            raise ProtocolError(
                f"solve expects 2 frames (values, rhs), got {len(frames)}"
            )
        values, rhs = frames
        x = service.solve(
            str(header.get("handle", "")),
            np.asarray(values, dtype=np.float64).reshape(-1),
            np.asarray(rhs, dtype=np.float64).reshape(-1),
        )
        return {"ok": True}, [x]
    if op == "evict":
        evicted = service.evict(str(header.get("handle", "")))
        return {"ok": True, "evicted": bool(evicted)}, []
    if op == "shutdown":
        return {"ok": True, "shutting_down": True}, []
    raise ProtocolError(f"unknown operation {op!r}")


class _ServiceConnectionHandler(socketserver.StreamRequestHandler):
    """One client connection: a loop of framed request exchanges.

    Every operation, a ``solve`` included, runs on this thread and is
    answered under the per-connection write lock before the next message is
    read.
    """

    # One segment per message: TCP_NODELAY on the accepted socket and a
    # buffered ``wfile`` that ``send_message`` flushes once.
    disable_nagle_algorithm = True
    wbufsize = -1

    def setup(self) -> None:  # pragma: no cover - exercised via sockets
        super().setup()
        # Serializes response writes on the connection's one stream.
        self._write_lock = threading.Lock()

    def _respond(
        self, request_id, response: Dict, out_frames: Sequence[np.ndarray] = ()
    ) -> bool:
        response["id"] = request_id
        try:
            with self._write_lock:
                send_message(self.wfile, response, out_frames)
            return True
        except (OSError, ValueError):
            # The client went away (or the stream was torn down mid-write);
            # the service itself is unaffected.
            return False

    def handle(self) -> None:  # pragma: no cover - exercised via sockets
        while True:
            try:
                message = recv_message(self.rfile)
            except (ProtocolError, OSError) as exc:
                # The stream is unsynchronized after a framing error; report
                # and drop the connection (the service itself is unaffected).
                self._respond(None, to_wire_error(exc))
                return
            if message is None:
                return
            header, frames = message
            request_id = header.get("id")
            try:
                if request_id is not None and not isinstance(request_id, int):
                    request_id = None
                    raise ProtocolError("request id must be an integer or null")
                response, out_frames = handle_request(self.server.service, header, frames)
            except Exception as exc:
                # Only this request fails; the connection lives on.
                response, out_frames = to_wire_error(exc), []
            if not self._respond(request_id, response, out_frames):
                return
            if header.get("op") == "shutdown" and response.get("ok"):
                self.server.request_shutdown()
                return


class SolverServiceServer(socketserver.ThreadingTCPServer):
    """Threaded TCP server exposing one :class:`SolverService`.

    ``server_address`` follows the stdlib convention (``(host, port)``; port
    0 binds an ephemeral port, reported via ``server_address`` after
    construction).  Each connection runs in its own thread, and so do its
    solves: same-pattern solves from different connections take turns at
    their solver's lock, solves on different patterns run side by side.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, server_address, service: SolverService) -> None:
        super().__init__(server_address, _ServiceConnectionHandler)
        self.service = service
        self._shutdown_thread: Optional[threading.Thread] = None

    def request_shutdown(self) -> None:
        """Shut the server down from a handler thread (non-blocking)."""
        if self._shutdown_thread is None:
            self._shutdown_thread = threading.Thread(
                target=self.shutdown, daemon=True
            )
            self._shutdown_thread.start()

    def server_close(self) -> None:  # pragma: no cover - trivial override
        super().server_close()
        self.service.close()


def serve_background(
    service: SolverService, host: str = "127.0.0.1", port: int = 0
) -> Tuple[SolverServiceServer, threading.Thread]:
    """Start a server thread for ``service``; returns (server, thread).

    The caller owns shutdown: ``server.shutdown(); server.server_close()``.
    """
    server = SolverServiceServer((host, port), service)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-service-server", daemon=True
    )
    thread.start()
    return server, thread
