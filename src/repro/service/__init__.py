"""The serving layer: solver services, a wire protocol, and a sharded fleet.

The paper's inspector/executor amortization pays off when one compile serves
many numeric executions; this package turns that into a served resource with
**one uniform surface** — :class:`SolverEndpoint` — implemented at three
scales:

* :class:`SolverService` (:mod:`repro.service.session`) — in-process:
  ``register_pattern`` (compile + pin → :class:`PatternHandle`), ``submit``
  (future-based solves), synchronous ``solve``, explicit ``evict``.  It
  counts its own requests under its one lock; ``stats`` reads them.
* :class:`ServiceClient` (:mod:`repro.service.client`) — one connection to a
  remote service over the stdlib-only wire protocol
  (:mod:`repro.service.wire`: JSON header + raw ndarray frames).  One
  protocol generation, no negotiation: every request carries an id, so one
  connection pipelines many of them (``submit``/``result``) and ``solve`` is
  submit + wait.  ``register_pattern`` returns the same
  :class:`PatternHandle` the server made.  ``python -m repro.service`` runs
  the server.
* :class:`ShardFleet` (:mod:`repro.service.fleet`) — N service *processes*
  over the shared compiled-kernel disk cache: each pattern pins to one fixed
  slot by its fingerprint, and a dead shard is respawned in its own slot,
  where it re-registers **warm** from disk — zero recompiles,
  counter-asserted.  Its ``solve`` is ``submit`` + wait, one failover path.

Because all three implement :class:`SolverEndpoint` and hand out one handle
type (any call also takes the handle's id string), code written against the
protocol moves between in-process, networked, and sharded deployments
without change — start with ``SolverService``, scale out later.

Every solve runs on its caller's thread — an in-process caller's, or the
wire server's connection thread — under its pattern's solver lock; the
service starts no thread of its own.  Support modules:
:mod:`repro.service.admission` (bounded in-flight work with
reject-with-retry-after backpressure) and :mod:`repro.service.errors` — the consolidated exception taxonomy
(:class:`ServiceError` base with ``retryable``/``retry_after``) mapped
*identically* in-process and over the wire.
"""

from repro.service.admission import AdmissionController
from repro.service.client import ServiceClient
from repro.service.endpoint import SolverEndpoint
from repro.service.errors import (
    PatternEvictedError,
    ProtocolError,
    RemoteServiceError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    ShardUnavailableError,
)
from repro.service.fleet import ShardFleet
from repro.service.session import PatternHandle, SolverService
from repro.service.wire import SolverServiceServer, serve_background

__all__ = [
    "SolverEndpoint",
    "SolverService",
    "PatternHandle",
    "ServiceClient",
    "ShardFleet",
    "SolverServiceServer",
    "serve_background",
    "AdmissionController",
    "ServiceError",
    "ServiceOverloadedError",
    "PatternEvictedError",
    "ServiceClosedError",
    "ShardUnavailableError",
    "ProtocolError",
    "RemoteServiceError",
]
