"""Consolidated serving-layer errors and their wire mapping.

Every error the serving layer can surface — in process, over the wire, or
from the sharded fleet — derives from :class:`ServiceError`, which carries
the two fields a caller needs for a retry decision:

* ``retryable`` — whether the *same* request may succeed if re-issued
  (saturation, a dead shard mid-failover), as opposed to a caller bug
  (unknown handle, malformed frames), and
* ``retry_after`` — an optional backoff hint in seconds.

The classes keep their historic stdlib bases (``KeyError`` for evictions,
``RuntimeError`` for overload, ``ConnectionError`` for shard loss) so
existing ``except`` clauses continue to match.

The **wire mapping is defined once, here**: :func:`to_wire_error` renders any
exception as an ``ok: false`` response header and :func:`error_from_wire`
rebuilds the local type from one, so a client of the TCP protocol and a
caller of the in-process :class:`~repro.service.session.SolverService` see
*identical* exception types with identical ``retry_after`` hints.  Errors
with no dedicated class round-trip as :class:`RemoteServiceError` with the
server-side ``kind`` preserved.
"""

from __future__ import annotations

from typing import Dict, Optional, Type

__all__ = [
    "ServiceError",
    "ServiceOverloadedError",
    "PatternEvictedError",
    "ServiceClosedError",
    "ShardUnavailableError",
    "ProtocolError",
    "RemoteServiceError",
    "WIRE_ERROR_TYPES",
    "to_wire_error",
    "error_from_wire",
]


class ServiceError(Exception):
    """Base of every serving-layer error.

    ``kind`` is the stable wire tag (``class`` ↔ ``kind`` is a bijection for
    the dedicated types below); ``retryable`` says whether re-issuing the
    same request can succeed; ``retry_after`` optionally hints how long to
    back off first.
    """

    kind: str = "error"
    retryable: bool = False

    def __init__(self, message: str = "", *, retry_after: Optional[float] = None):
        super().__init__(message)
        self.retry_after = None if retry_after is None else float(retry_after)

    @property
    def message(self) -> str:
        """The human-readable message (``KeyError``-quote-free)."""
        return str(self.args[0]) if self.args else ""


class ServiceOverloadedError(ServiceError, RuntimeError):
    """The service is saturated; retry after ``retry_after`` seconds."""

    kind = "overloaded"
    retryable = True

    def __init__(self, message: str, *, retry_after: float) -> None:
        super().__init__(message, retry_after=float(retry_after))


class PatternEvictedError(ServiceError, KeyError):
    """The handle's pattern was evicted (or never registered here).

    Re-register the pattern to obtain a fresh handle; the on-disk code cache
    makes that a warm (zero-recompile) operation.
    """

    kind = "evicted"


class ServiceClosedError(ServiceError, RuntimeError):
    """The service has been closed and accepts no further work."""

    kind = "closed"


class ShardUnavailableError(ServiceError, ConnectionError):
    """A shard (or its connection) died with the request unresolved.

    Raised by :class:`~repro.service.client.ServiceClient` when its
    connection breaks and by :class:`~repro.service.fleet.ShardFleet` when a
    shard cannot be recovered.  Retryable: the fleet respawns the shard in
    its own slot, and the shared on-disk cache makes the replacement's
    re-registration a warm, zero-recompile operation.
    """

    kind = "shard-unavailable"
    retryable = True


class ProtocolError(ServiceError, RuntimeError):
    """Malformed, oversized, or version-incompatible wire data."""

    kind = "protocol"


class RemoteServiceError(ServiceError, RuntimeError):
    """The server reported a failure with no more specific local type.

    ``kind`` preserves the server-side classification (usually the remote
    exception's class name); ``retryable`` mirrors the server's verdict when
    it sent one.
    """

    def __init__(
        self,
        message: str,
        *,
        kind: str = "error",
        retryable: bool = False,
        retry_after: Optional[float] = None,
    ) -> None:
        super().__init__(message, retry_after=retry_after)
        self.kind = str(kind)
        self.retryable = bool(retryable)


#: The dedicated wire kinds (``kind`` ↔ class, both directions).
WIRE_ERROR_TYPES: Dict[str, Type[ServiceError]] = {
    cls.kind: cls
    for cls in (
        ServiceOverloadedError,
        PatternEvictedError,
        ServiceClosedError,
        ShardUnavailableError,
        ProtocolError,
    )
}


def to_wire_error(exc: BaseException) -> Dict:
    """Render any exception as an ``ok: false`` response header.

    The single server-side mapping: dedicated :class:`ServiceError` types
    ship their stable ``kind`` plus ``retryable``/``retry_after``; anything
    else ships its class name as the kind (non-retryable).
    """
    if isinstance(exc, ServiceError):
        payload: Dict = {
            "ok": False,
            "kind": exc.kind,
            "error": exc.message or str(exc),
            "retryable": exc.retryable,
        }
        if exc.retry_after is not None:
            payload["retry_after"] = exc.retry_after
        return payload
    if isinstance(exc, KeyError):
        # KeyError str() wraps the message in quotes; unwrap for the client.
        message = exc.args[0] if exc.args else str(exc)
        return {"ok": False, "kind": type(exc).__name__, "error": str(message)}
    return {"ok": False, "kind": type(exc).__name__, "error": str(exc)}


def error_from_wire(response: Dict) -> ServiceError:
    """Rebuild the local exception for an ``ok: false`` response header.

    The single client-side mapping, inverse of :func:`to_wire_error` for the
    dedicated kinds; unknown kinds become :class:`RemoteServiceError` with
    the server-side classification preserved.
    """
    kind = str(response.get("kind", "error"))
    message = str(response.get("error", "remote error"))
    retry_after = response.get("retry_after")
    cls = WIRE_ERROR_TYPES.get(kind)
    if cls is ServiceOverloadedError:
        return ServiceOverloadedError(
            message, retry_after=float(retry_after if retry_after is not None else 0.05)
        )
    if cls is not None:
        return cls(message, retry_after=retry_after)
    return RemoteServiceError(
        message,
        kind=kind,
        retryable=bool(response.get("retryable", False)),
        retry_after=retry_after,
    )
