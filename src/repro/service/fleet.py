"""The sharded solver fleet: N service processes behind one endpoint.

:class:`ShardFleet` spawns ``shards`` worker processes (each a full
``python -m repro.service`` server) over the **shared on-disk compiled-
kernel cache** and routes by pattern: a pattern's fingerprint
(:func:`~repro.compiler.codegen.runtime.pattern_fingerprint`) picks one
fixed slot (:func:`shard_for`), so its solver (compiled kernels and numeric
factor) stays hot there while distinct patterns spread across the fleet.

The fleet implements the same :class:`~repro.service.endpoint.SolverEndpoint`
surface as the in-process :class:`~repro.service.session.SolverService` and
the single-connection :class:`~repro.service.client.ServiceClient` — code
written against one runs against the others unchanged.  A handle is the
:class:`~repro.service.session.PatternHandle` the owning shard returned, or
its id string.

**Failure model.**  Shard death is detected lazily, at the first call that
hits the dead connection (:class:`ShardUnavailableError` — retryable).  The
fleet then recovers under a generation-counted lock (concurrent failures
collapse to one recovery) and retries the caller's request once.  A request
has one failover path, :meth:`ShardFleet.submit`'s (``solve`` is ``submit``
waited on); a registration, which has no future, has its own.  Recovery
spawns a replacement process in the dead shard's own slot — the slots never
change, so no pattern moves — and re-registers every pattern routed there.
Because handle ids are deterministic (a hash of the
pattern/kernel/ordering/options key) and the compiled artifacts live in the
shared disk cache, the replacement comes up **warm — zero recompiles** —
which the fleet counter-asserts via the handle's ``warm`` flag
(``warm_reregisters`` vs ``cold_reregisters``).

Observability: :meth:`metrics_text` merges every shard's Prometheus page
into one scrape, relabelled with ``shard="i"``, plus the fleet's own
``repro_fleet_*`` counters (deaths, failovers, warm/cold re-registers) and
per-shard health gauges (up/uptime/in-flight/registered patterns).
:meth:`health` aggregates every shard's ``health`` wire verb;
:meth:`chrome_trace` drains every shard's span buffer and merges it with the
fleet client's own spans into one clock-offset-corrected Chrome trace (one
``pid`` per shard process) — pass ``trace=True`` so worker processes start
with tracing enabled.  Lifecycle edges are counted, not logged: deaths,
failovers, respawns and warm/cold re-registers are :attr:`ShardFleet.counters`,
and the last failover's wall time is ``last_failover_at``.
"""

from __future__ import annotations

import json
import os
import re
import select
import subprocess
import sys
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.compiler.codegen.runtime import pattern_fingerprint
from repro.compiler.options import SympilerOptions
from repro.observe import trace as observe_trace
from repro.service.client import ServiceClient
from repro.service.errors import PatternEvictedError, ShardUnavailableError
from repro.service.session import PatternHandle, handle_id_of
from repro.sparse.csc import CSCMatrix

__all__ = ["ShardFleet", "shard_for"]

_BANNER = re.compile(r"listening on ([\d.]+):(\d+)")

#: Seconds a worker has to print its ``listening on`` banner.
SPAWN_TIMEOUT = 60.0
#: Connect timeout and default per-request timeout of each shard connection.
REQUEST_TIMEOUT = 60.0

#: Failures that mean "this shard (connection) is gone", triggering failover.
_SHARD_FAILURES = (ShardUnavailableError, ConnectionError, OSError)


@dataclass
class _Shard:
    """One live worker process and the fleet's connection to it."""

    slot: int
    generation: int
    process: subprocess.Popen
    address: Tuple[str, int]
    client: ServiceClient


@dataclass
class _FleetPattern:
    """Everything needed to re-register a pattern on a replacement shard."""

    handle: PatternHandle
    A: CSCMatrix
    kernel: str
    ordering: str
    options: Optional[Union[SympilerOptions, Dict]]
    fingerprint: str


def shard_for(fingerprint: str, shards: int) -> int:
    """The slot of a pattern's hex ``fingerprint`` in a fleet of ``shards``."""
    return int(fingerprint, 16) % shards


class ShardFleet:
    """N solver-service processes, each pattern pinned to one by its fingerprint.

    ``shards`` worker processes are spawned eagerly; each binds an ephemeral
    port on ``127.0.0.1`` and shares the process environment — in particular
    ``REPRO_SYMPILER_CACHE`` (overridable via ``cache_dir``), so all shards
    and any later replacements reuse one compiled-kernel disk cache.

    The constructor arguments after ``shards`` mirror the worker CLI
    (``python -m repro.service``).
    """

    def __init__(
        self,
        shards: int = 2,
        *,
        backend: str = SympilerOptions.backend,
        max_in_flight: int = 256,
        max_patterns: int = 32,
        cache_dir: Optional[Union[str, Path]] = None,
        trace: bool = False,
    ) -> None:
        if shards < 1:
            raise ValueError("a fleet needs at least one shard")
        self.shards = int(shards)
        self.backend = backend
        self.max_in_flight = int(max_in_flight)
        self.max_patterns = int(max_patterns)
        self.cache_dir = None if cache_dir is None else str(cache_dir)
        #: ``trace=True`` starts every worker with tracing enabled (the
        #: ``--trace`` worker flag) so :meth:`chrome_trace` has shard-side
        #: spans to merge.  The fleet client's own tracing is controlled
        #: separately via :func:`repro.observe.enable`.
        self.trace = bool(trace)
        self.started_at = time.time()
        self.last_failover_at: Optional[float] = None
        #: The live shard of each slot; a replacement takes its slot's place.
        self._shards: List[_Shard] = []
        self._patterns: Dict[str, _FleetPattern] = {}
        self._lock = threading.Lock()  # shards/patterns/counters membership
        self._recover_lock = threading.Lock()  # serializes shard recovery
        self._closed = False
        self.counters: Dict[str, int] = {
            "shard_deaths": 0,
            "failovers": 0,
            "reregisters": 0,
            "warm_reregisters": 0,
            "cold_reregisters": 0,
            "respawns": 0,
        }
        try:
            for slot in range(self.shards):
                self._shards.append(self._spawn(slot, generation=0))
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------ #
    # Process lifecycle
    # ------------------------------------------------------------------ #
    def _worker_command(self) -> List[str]:
        return [
            sys.executable,
            "-m",
            "repro.service",
            "--host",
            "127.0.0.1",
            "--port",
            "0",
            "--backend",
            self.backend,
            "--max-in-flight",
            str(self.max_in_flight),
            "--max-patterns",
            str(self.max_patterns),
        ] + (["--trace"] if self.trace else [])

    def _worker_env(self) -> Dict[str, str]:
        env = dict(os.environ)
        # The worker must import this very package even when the parent runs
        # from a source tree that is on sys.path but not in PYTHONPATH.
        package_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH", "")
        if package_root not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (
                package_root + os.pathsep + existing if existing else package_root
            )
        if self.cache_dir is not None:
            env["REPRO_SYMPILER_CACHE"] = self.cache_dir
        return env

    def _spawn(self, slot: int, generation: int) -> _Shard:
        # The worker's stdin is a pipe this process never writes to: when
        # the process ends, closed or not, the worker reads EOF and shuts down.
        process = subprocess.Popen(
            self._worker_command(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=self._worker_env(),
            text=True,
        )
        try:
            address = self._await_banner(process, slot)
            client = ServiceClient(address, timeout=REQUEST_TIMEOUT)
        except BaseException:
            process.kill()
            process.wait(timeout=10)
            raise
        return _Shard(
            slot=slot,
            generation=generation,
            process=process,
            address=address,
            client=client,
        )

    def _await_banner(self, process: subprocess.Popen, slot: int) -> Tuple[str, int]:
        """Wait for the worker's ``listening on host:port`` startup line."""
        deadline = time.monotonic() + SPAWN_TIMEOUT
        assert process.stdout is not None
        while True:
            if process.poll() is not None:
                raise ShardUnavailableError(
                    f"shard {slot} exited during startup "
                    f"(returncode {process.returncode})"
                )
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ShardUnavailableError(
                    f"shard {slot} did not report its address within "
                    f"{SPAWN_TIMEOUT}s"
                )
            ready, _, _ = select.select([process.stdout], [], [], min(remaining, 0.2))
            if not ready:
                continue
            line = process.stdout.readline()
            if not line:
                continue  # EOF races with poll() above
            match = _BANNER.search(line)
            if match is None:
                raise ShardUnavailableError(
                    f"shard {slot} printed an unexpected banner: {line!r}"
                )
            return match.group(1), int(match.group(2))

    def _retire(self, shard: _Shard) -> None:
        try:
            shard.client.close()
        except Exception:
            pass
        if shard.process.poll() is None:
            shard.process.kill()
        try:
            shard.process.wait(timeout=10)
        except subprocess.TimeoutExpired:  # pragma: no cover - kill is forceful
            pass
        for stream in (shard.process.stdin, shard.process.stdout):
            if stream is not None:
                stream.close()

    # ------------------------------------------------------------------ #
    # Routing and recovery
    # ------------------------------------------------------------------ #
    def _route(self, fingerprint: str) -> _Shard:
        with self._lock:
            if self._closed:
                raise RuntimeError("fleet is closed")
            return self._shards[shard_for(fingerprint, self.shards)]

    def _record_for(self, handle: Union[PatternHandle, str]) -> _FleetPattern:
        handle_id = handle_id_of(handle)
        with self._lock:
            record = self._patterns.get(handle_id)
        if record is None:
            raise PatternEvictedError(
                f"no fleet-registered pattern for handle {handle_id!r}"
            )
        return record

    def _bump(self, counter: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[counter] += amount

    def _failover(self, shard: _Shard) -> None:
        """Count one failover, stamp it for the health surface, recover."""
        with self._lock:
            self.counters["failovers"] += 1
            self.last_failover_at = time.time()
        self._recover(shard.slot, shard.generation)

    def _recover(self, slot: int, generation: int) -> None:
        """Replace a dead shard in its slot; idempotent per generation.

        Every caller that observed the failure races here; the generation
        check makes all but the first a no-op, so one death costs one
        respawn no matter how many requests were in flight on it.
        """
        with self._recover_lock:
            with self._lock:
                if self._closed:
                    return
                shard = self._shards[slot]
            if shard.generation != generation:
                return  # someone else already recovered this death
            self._bump("shard_deaths")
            self._retire(shard)
            replacement = self._spawn(slot, generation=generation + 1)
            with self._lock:
                closed = self._closed
                if not closed:
                    self._shards[slot] = replacement
                records = [
                    r
                    for r in self._patterns.values()
                    if shard_for(r.fingerprint, self.shards) == slot
                ]
            if closed:  # close() ran while the replacement started
                self._retire(replacement)
                return
            self._bump("respawns")
            self._rehome(replacement, records)

    def _rehome(self, shard: _Shard, records: List[_FleetPattern]) -> None:
        """Re-register ``records`` on ``shard``, their slot's replacement.

        Registration is idempotent server-side; over the shared disk cache a
        fresh replacement process comes back with ``handle.warm`` set — the
        zero-recompile guarantee the counters assert.
        """
        for record in records:
            handle = shard.client.register_pattern(
                record.A,
                kernel=record.kernel,
                ordering=record.ordering,
                options=record.options,
            )
            self._bump("reregisters")
            self._bump("warm_reregisters" if handle.warm else "cold_reregisters")
            with self._lock:
                record.handle = handle

    def kill_shard(self, slot: int) -> None:
        """Fault injection: hard-kill shard ``slot``'s process.

        Death is then observed (and recovered from) by the next request
        routed to it, exactly like an uncontrolled crash.
        """
        with self._lock:
            shard = self._shards[slot]
        shard.process.kill()
        shard.process.wait(timeout=10)

    # ------------------------------------------------------------------ #
    # SolverEndpoint surface
    # ------------------------------------------------------------------ #
    def register_pattern(
        self,
        A,
        *,
        kernel: str = "cholesky",
        ordering: str = "mindeg",
        options: Optional[Union[SympilerOptions, Dict]] = None,
    ) -> PatternHandle:
        """Register ``A``'s pattern on the shard its fingerprint routes to.

        The control plane has no future, so a shard death here is retried
        in this loop: one failover, then the registration again.
        """
        if not isinstance(A, CSCMatrix):
            from repro.frontend.ingest import as_csc

            A = as_csc(A)
        fingerprint = pattern_fingerprint(A.indptr, A.indices, extra=f"n={A.n}")
        attempts = 2
        while True:
            shard = self._route(fingerprint)
            try:
                handle = shard.client.register_pattern(
                    A, kernel=kernel, ordering=ordering, options=options
                )
                break
            except _SHARD_FAILURES:
                attempts -= 1
                if attempts <= 0:
                    raise
                self._failover(shard)
        with self._lock:
            self._patterns[handle.handle_id] = _FleetPattern(
                handle=handle,
                A=A,
                kernel=kernel,
                ordering=ordering,
                options=options,
                fingerprint=fingerprint,
            )
        return handle

    def solve(
        self,
        handle: Union[PatternHandle, str],
        values: np.ndarray,
        rhs: np.ndarray,
        *,
        timeout: Optional[float] = None,
    ) -> np.ndarray:
        """:meth:`submit` + :meth:`result`: the one failover path, waited on."""
        return self.result(
            self.submit(handle, values, rhs),
            timeout=REQUEST_TIMEOUT if timeout is None else timeout,
        )

    def submit(
        self,
        handle: Union[PatternHandle, str],
        values: np.ndarray,
        rhs: np.ndarray,
    ) -> Future:
        """Pipelined solve: enqueue on the owning shard, future out.

        The request rides the shard connection's id-tagged pipelining, so
        many submits can be in flight on each shard at once.  On shard death
        the future transparently resubmits once after recovery.
        """
        record = self._record_for(handle)
        result: Future = Future()
        self._submit_attempt(record, values, rhs, result, attempts=2)
        return result

    def _submit_attempt(
        self,
        record: _FleetPattern,
        values: np.ndarray,
        rhs: np.ndarray,
        result: Future,
        attempts: int,
    ) -> None:
        try:
            shard = self._route(record.fingerprint)
            inner = shard.client.submit(record.handle.handle_id, values, rhs)
        except _SHARD_FAILURES as exc:
            self._failover_or_fail(record, values, rhs, result, attempts, shard, exc)
            return
        except BaseException as exc:  # noqa: BLE001 - future carries it
            result.set_exception(exc)
            return

        def _done(done: Future) -> None:
            try:
                result.set_result(done.result())
            except _SHARD_FAILURES as exc:
                self._failover_or_fail(record, values, rhs, result, attempts, shard, exc)
            except BaseException as exc:  # noqa: BLE001 - future carries it
                result.set_exception(exc)

        inner.add_done_callback(_done)

    def _failover_or_fail(
        self,
        record: _FleetPattern,
        values: np.ndarray,
        rhs: np.ndarray,
        result: Future,
        attempts: int,
        shard: _Shard,
        exc: BaseException,
    ) -> None:
        if attempts <= 1:
            result.set_exception(exc)
            return
        try:
            self._failover(shard)
            self._submit_attempt(record, values, rhs, result, attempts - 1)
        except BaseException as recovery_exc:  # noqa: BLE001 - future carries it
            result.set_exception(recovery_exc)

    @staticmethod
    def result(future: Future, *, timeout: Optional[float] = None) -> np.ndarray:
        """Wait on a :meth:`submit` future (sugar for ``future.result``)."""
        return future.result(timeout=timeout)

    def evict(self, handle: Union[PatternHandle, str]) -> bool:
        """Evict a pattern fleet-wide (owning shard + the fleet's records)."""
        handle_id = handle_id_of(handle)
        with self._lock:
            record = self._patterns.pop(handle_id, None)
        if record is None:
            return False
        try:
            shard = self._route(record.fingerprint)
            return shard.client.evict(handle_id)
        except _SHARD_FAILURES:
            return True  # the shard (and its registration) is already gone

    def stats(self) -> Dict:
        """Fleet-level stats: fleet counters plus per-shard snapshots."""
        with self._lock:
            shards = list(self._shards)
            counters = dict(self.counters)
            registered = len(self._patterns)
        per_shard: Dict[str, Dict] = {}
        for slot, shard in enumerate(shards):
            try:
                per_shard[str(slot)] = shard.client.stats()
            except _SHARD_FAILURES:
                per_shard[str(slot)] = {"unavailable": True}
        return {
            "shards": len(shards),
            "registered_patterns": registered,
            "counters": counters,
            "per_shard": per_shard,
        }

    def health(self) -> Dict:
        """One aggregated health document: fleet facts + every shard's verb.

        ``status`` is ``"ok"`` when every shard answered its ``health`` wire
        verb, ``"degraded"`` otherwise.  Per-shard documents carry uptime,
        wire version, registered patterns, in-flight count and the server's
        pid/clocks; the fleet adds its own uptime, the last-failover wall
        timestamp and the lifecycle counters.
        """
        with self._lock:
            shards = list(self._shards)
            counters = dict(self.counters)
            registered = len(self._patterns)
            last_failover = self.last_failover_at
        per_shard: Dict[str, Dict] = {}
        for slot, shard in enumerate(shards):
            try:
                per_shard[str(slot)] = shard.client.health()
            except _SHARD_FAILURES:
                per_shard[str(slot)] = {"status": "unreachable"}
        healthy = sum(1 for doc in per_shard.values() if doc.get("status") == "ok")
        return {
            "status": "ok" if shards and healthy == len(shards) else "degraded",
            "shards": len(shards),
            "shards_healthy": healthy,
            "registered_patterns": registered,
            "uptime_seconds": time.time() - self.started_at,
            "last_failover_at": last_failover,
            "counters": counters,
            "per_shard": per_shard,
        }

    def chrome_trace(self) -> Dict:
        """One merged Chrome trace document across the whole fleet.

        The fleet client's own finished spans keep this process's pid; each
        shard's buffer is drained over the ``trace`` wire verb and its span
        timestamps are mapped onto this process's wall clock using the
        NTP-style offset from timed pings
        (:meth:`ServiceClient.estimate_clock_offset`), so cross-process
        parent/child spans line up on one timeline.  Each shard appears as a
        distinct ``pid`` with a ``process_name`` metadata record
        (``shard-<slot>``).  Load the result in ``chrome://tracing`` /
        Perfetto, or write it with :meth:`write_chrome_trace`.

        Draining is destructive on the shard side (each span is merged
        exactly once across calls); unreachable shards are skipped.
        """
        from repro.observe.exporters import chrome_trace_events, process_name_event

        local_pid = os.getpid()
        events = [process_name_event(local_pid, "fleet-client")]
        events += chrome_trace_events(
            [sp.as_dict() for sp in observe_trace.get_tracer().drain()],
            pid=local_pid,
        )
        with self._lock:
            shards = list(self._shards)
        for slot, shard in enumerate(shards):
            try:
                offset = shard.client.estimate_clock_offset()
                payload = shard.client.trace_spans()
            except _SHARD_FAILURES:
                continue
            shard_pid = int(payload.get("pid", shard.process.pid))
            events.append(process_name_event(shard_pid, f"shard-{slot}"))
            events += chrome_trace_events(
                payload.get("spans", []), pid=shard_pid, clock_offset=offset
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: Union[str, Path]) -> str:
        """Write :meth:`chrome_trace` to ``path``; returns the path."""
        path = str(path)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.chrome_trace(), fh)
        return path

    def metrics_text(self) -> str:
        """One merged Prometheus page: all shards, ``shard="i"``-labelled,
        plus the fleet's own ``repro_fleet_*`` counters, the last-failover
        timestamp and per-shard health gauges."""
        from repro.observe.exporters import relabel_prometheus_text

        with self._lock:
            shards = list(self._shards)
            counters = dict(self.counters)
            last_failover = self.last_failover_at
        pages: List[str] = []
        shard_health: Dict[int, Dict] = {}
        for slot, shard in enumerate(shards):
            try:
                text = shard.client.metrics_text()
                shard_health[slot] = shard.client.health()
            except _SHARD_FAILURES:
                shard_health[slot] = {"status": "unreachable"}
                continue
            pages.append(relabel_prometheus_text(text, shard=str(slot)))
        fleet_lines = [
            "# TYPE repro_fleet_shards gauge",
            f"repro_fleet_shards {len(shards)}",
        ]
        for name, value in sorted(counters.items()):
            fleet_lines.append(f"# TYPE repro_fleet_{name} counter")
            fleet_lines.append(f"repro_fleet_{name} {value}")
        fleet_lines.append(
            "# TYPE repro_fleet_last_failover_timestamp_seconds gauge"
        )
        fleet_lines.append(
            "repro_fleet_last_failover_timestamp_seconds "
            f"{0.0 if last_failover is None else last_failover}"
        )
        gauges = (
            ("repro_fleet_shard_up", lambda doc: 1 if doc.get("status") == "ok" else 0),
            ("repro_fleet_shard_uptime_seconds", lambda doc: doc.get("uptime_seconds", 0.0)),
            ("repro_fleet_shard_in_flight", lambda doc: doc.get("in_flight", 0)),
            (
                "repro_fleet_shard_registered_patterns",
                lambda doc: doc.get("registered_patterns", 0),
            ),
            ("repro_fleet_shard_wire_version", lambda doc: doc.get("wire_version", 0)),
        )
        for gauge_name, extract in gauges:
            fleet_lines.append(f"# TYPE {gauge_name} gauge")
            for slot in sorted(shard_health):
                fleet_lines.append(
                    f'{gauge_name}{{shard="{slot}"}} {extract(shard_health[slot])}'
                )
        pages.append("\n".join(fleet_lines) + "\n")
        return "".join(pages)

    def close(self) -> None:
        """Shut the whole fleet down (idempotent): close clients, kill workers."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            shards, self._shards = self._shards, []
            self._patterns.clear()
        for shard in shards:
            self._retire(shard)

    def __enter__(self) -> "ShardFleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            n = len(self._shards)
            p = len(self._patterns)
        return f"ShardFleet(shards={n}, patterns={p})"
