"""``python -m repro.service`` — run (or smoke-test) the solver service.

Server mode binds a TCP address (default ``127.0.0.1:8377``; port 0 picks an
ephemeral port, printed on stdout) and serves until interrupted::

    python -m repro.service --port 8377

When its stdin is a pipe, the server also shuts down when the pipe reaches
EOF: a :class:`~repro.service.fleet.ShardFleet` worker holds one whose
write end only its owner has, so it ends with the process that spawned it.

``--smoke`` instead runs the end-to-end self-check CI uses: boot a server on
an ephemeral port, register three patterns from every one of ``--workers``
:class:`ServiceClient` connections at once (each connection must receive
equal handles), drive a mixed same-/cross-pattern request load through those
connections from worker threads, verify every solution against a local
reference solver, and assert the amortization invariant — **zero recompiles after warm-up**
(no C recompiles, no python-backend kernel text written, no artifact-cache misses
while serving).  Exits nonzero on any violation and prints the service stats
JSON either way.

``--fleet-smoke`` is the sharded-fleet variant: boot a ``--shards``-wide
:class:`~repro.service.fleet.ShardFleet` (separate worker processes over one
shared disk cache) with distributed tracing on, pipeline ``--requests``
mixed-pattern solves over the wire, hard-kill a
pattern-owning shard mid-stream, and assert that every request completes,
that the replacement shard re-registers **warm** — zero cold recompiles —
that the merged Chrome trace carries spans from ≥ 2 distinct shard pids
joined to the client's trace ids, and that the kill shows up in the fleet
counters as one shard death and at least one failover.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import stat
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import List

import numpy as np

from repro.compiler.options import SympilerOptions
from repro.service.client import ServiceClient
from repro.service.session import SolverService
from repro.service.wire import SolverServiceServer, serve_background

__all__ = ["main", "run_smoke", "run_fleet_smoke"]


def _build_service(args) -> SolverService:
    options = SympilerOptions(backend=args.backend)
    return SolverService(
        options=options,
        max_in_flight=args.max_in_flight,
        max_patterns=args.max_patterns,
    )


def _parse_prometheus(text: str, failures: List[str]) -> dict:
    """Parse Prometheus text format 0.0.4 into ``{sample_key: value}``.

    Strict enough for the smoke assert: every non-comment line must be
    ``name[{labels}] value`` with a float-parseable value; malformed lines
    are reported into ``failures``.
    """
    samples: dict = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.rsplit(None, 1)
        if len(parts) != 2:
            failures.append(f"unparseable metrics line: {line!r}")
            continue
        key, raw = parts
        try:
            samples[key] = float(raw)
        except ValueError:
            failures.append(f"non-numeric metrics value: {line!r}")
    if not samples:
        failures.append("metrics verb returned no samples")
    return samples


def run_smoke(args) -> int:
    """The CI smoke: mixed-pattern wire load with the zero-recompile assert."""
    from repro.compiler.codegen.c_backend import disk_cache_stats
    from repro.solvers.linear_solver import SparseLinearSolver
    from repro.sparse.generators import fem_stencil_2d, laplacian_2d

    service = _build_service(args)
    server, thread = serve_background(service, host="127.0.0.1", port=0)
    address = server.server_address
    failures: List[str] = []
    try:
        matrices = {
            "lap_small": laplacian_2d(12, shift=0.1),
            "fem": fem_stencil_2d(9, shift=0.25),
            "lap_large": laplacian_2d(15, shift=0.2),
        }
        names = list(matrices)
        total = args.requests
        per_worker = total // args.workers
        errors: List[str] = []
        with contextlib.ExitStack() as stack:
            clients = [stack.enter_context(ServiceClient(address)) for _ in range(args.workers)]
            pool = stack.enter_context(ThreadPoolExecutor(max_workers=args.workers))
            arrived = threading.Barrier(args.workers)

            def register(worker: int) -> dict:
                arrived.wait(timeout=60)
                first = worker % len(names)
                order = names[first:] + names[:first]
                return {name: clients[worker].register_pattern(matrices[name]) for name in order}

            # Every connection registers every pattern at once, each starting
            # at another one: one build per pattern, equal handles for all.
            registered = list(pool.map(register, range(args.workers)))
            handles = registered[0]
            if any(other != handles for other in registered[1:]):
                failures.append("connections registering at once received different handles")
            # Local reference solvers (same options/ordering → same compiled
            # kernels via the shared cache) to verify every wire solution.
            references = {
                name: SparseLinearSolver(
                    A, ordering="mindeg", options=service.options
                )
                for name, A in matrices.items()
            }

            # ---- warm-up complete; from here on, nothing may be recompiled ----
            disk_before = disk_cache_stats().as_dict()
            artifact_stats = next(iter(references.values())).artifact_cache.stats
            misses_before = artifact_stats.misses

            def drive(worker: int) -> None:
                rng = np.random.default_rng(1000 + worker)
                try:
                    for i in range(per_worker):
                        name = names[(worker + i) % len(names)]
                        A = matrices[name]
                        # SPD-preserving perturbation: scale the whole matrix;
                        # (s·A)x = b has the closed-form reference A⁻¹b / s.
                        scale = 1.0 + 0.05 * rng.random()
                        values = A.data * scale
                        rhs = np.sin(np.arange(A.n, dtype=np.float64) + worker + i)
                        x = clients[worker].solve(handles[name], values, rhs)
                        expected = references[name].solve(rhs) / scale
                        if not np.allclose(x, expected, atol=1e-8):
                            errors.append(f"worker {worker} request {i}: mismatch")
                except Exception as exc:  # noqa: BLE001 - reported below
                    errors.append(f"worker {worker}: {type(exc).__name__}: {exc}")

            list(pool.map(drive, range(args.workers)))

        disk_after = disk_cache_stats().as_dict()
        misses_after = artifact_stats.misses
        recompiles = (disk_after["compiles"] - disk_before["compiles"]) + (
            disk_after["py_writes"] - disk_before["py_writes"]
        )
        cache_misses = misses_after - misses_before

        with ServiceClient(address) as control:
            stats = control.stats()
            metrics_text = control.metrics_text()
        solves = stats["counters"].get("solves_ok", 0)

        failures.extend(errors)
        # The metrics wire verb must return parseable Prometheus exposition
        # text whose service solve counter reflects the load just driven.
        prom_samples = _parse_prometheus(metrics_text, failures)
        solve_samples = [
            v for k, v in prom_samples.items()
            if k.startswith("repro_service") and "solves_ok" in k
        ]
        if not solve_samples:
            failures.append(
                "metrics verb returned no repro_service*solves_ok sample"
            )
        elif max(solve_samples) <= 0:
            failures.append(
                f"metrics verb reports {max(solve_samples)} solves_ok "
                "(expected > 0 after the smoke load)"
            )
        if solves < args.workers * per_worker:
            failures.append(
                f"only {solves} solves completed "
                f"(expected {args.workers * per_worker})"
            )
        if recompiles != 0:
            failures.append(
                f"{recompiles} kernel(s) were regenerated under sustained "
                "load (expected 0 after warm-up)"
            )
        if cache_misses != 0:
            failures.append(
                f"{cache_misses} artifact-cache miss(es) while serving "
                "(expected 0 after warm-up)"
            )
        report = {
            "address": list(address),
            "requests": solves,
            "warm_recompiles": recompiles,
            "warm_cache_misses": cache_misses,
            "latency": stats.get("latency"),
            "metrics_samples": len(prom_samples),
            "failures": failures,
        }
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)
    if failures:
        for failure in failures:
            sys.stderr.write(f"service smoke: {failure}\n")
        return 1
    return 0


def run_fleet_smoke(args) -> int:
    """The CI fleet smoke: kill a shard mid-stream, nothing may be lost.

    Boots a ``--shards``-wide :class:`~repro.service.fleet.ShardFleet`,
    registers three distinct patterns, pipelines ``--requests`` mixed-pattern
    solves through it, hard-kills one pattern-owning shard halfway, and
    asserts: every request completes and verifies against a local reference
    solver, the replacement shard re-registers **warm** from the shared disk
    cache (zero cold recompiles, from the fleet counters), and the merged
    Prometheus page carries every shard label plus the fleet counters.
    With tracing enabled fleet-wide it additionally asserts the merged
    Chrome trace carries spans from ≥ 2 distinct shard pids joined to the
    client's trace ids, and that the kill counted one shard death and at
    least one failover.  Exits nonzero on any violation; prints a JSON
    report either way.
    """
    import tempfile

    from repro import observe
    from repro.service.fleet import ShardFleet
    from repro.solvers.linear_solver import SparseLinearSolver
    from repro.sparse.generators import fem_stencil_2d, laplacian_2d

    failures: List[str] = []
    options = SympilerOptions(backend=args.backend)
    if args.backend == "python":
        options = options.with_updates(enable_vs_block=False)
    matrices = {
        "lap_small": laplacian_2d(12, shift=0.1),
        "fem": fem_stencil_2d(9, shift=0.25),
        "lap_large": laplacian_2d(15, shift=0.2),
    }
    references = {
        name: SparseLinearSolver(A, ordering="mindeg", options=options)
        for name, A in matrices.items()
    }
    names = list(matrices)
    total = args.requests

    def request(k: int):
        name = names[k % len(names)]
        A = matrices[name]
        scale = 1.0 + 0.01 * (k + 1)
        rhs = np.sin(np.arange(A.n, dtype=np.float64) + k)
        return name, A.data * scale, rhs, references[name].solve(rhs) / scale

    # Distributed tracing on, both sides of the wire: the fleet client here,
    # and (via `trace=True` → the worker `--trace` flag) every shard process.
    observe.enable()
    observe.reset()
    try:
        with tempfile.TemporaryDirectory(prefix="repro-fleet-smoke-") as cache_dir:
            with ShardFleet(
                args.shards,
                backend=args.backend,
                cache_dir=cache_dir,
                max_in_flight=max(4 * total, args.max_in_flight),
                max_patterns=args.max_patterns,
                trace=True,
            ) as fleet:
                handles = {
                    name: fleet.register_pattern(A, options=options)
                    for name, A in matrices.items()
                }
                half = total // 2
                futures = [
                    (k, fleet.submit(handles[request(k)[0]], *request(k)[1:3]))
                    for k in range(half)
                ]
                # Hard-kill a shard that owns at least one pattern, mid-stream.
                owned = {
                    slot: s.get("registered_patterns", 0)
                    for slot, s in fleet.stats()["per_shard"].items()
                }
                victim = int(next(slot for slot, n in owned.items() if n > 0))
                fleet.kill_shard(victim)
                futures += [
                    (k, fleet.submit(handles[request(k)[0]], *request(k)[1:3]))
                    for k in range(half, total)
                ]
                completed = 0
                for k, future in futures:
                    try:
                        x = fleet.result(future, timeout=120.0)
                    except Exception as exc:  # noqa: BLE001 - reported below
                        failures.append(f"request {k}: {type(exc).__name__}: {exc}")
                        continue
                    completed += 1
                    if not np.allclose(x, request(k)[3], atol=1e-8):
                        failures.append(f"request {k}: solution mismatch")
                counters = dict(fleet.counters)
                metrics_text = fleet.metrics_text()
                shards_alive = fleet.stats()["shards"]
                health = fleet.health()
                trace_doc = fleet.chrome_trace()
    finally:
        observe.disable()
        observe.reset()

    # ---- distributed-trace asserts: shard spans joined to client ids ------
    local_pid = os.getpid()
    span_events = [e for e in trace_doc["traceEvents"] if e.get("ph") == "X"]
    shard_pids = sorted({e["pid"] for e in span_events if e["pid"] != local_pid})
    client_trace_ids = {
        e["args"].get("trace_id")
        for e in span_events
        if e["pid"] == local_pid and e["name"] == "wire-submit"
    }
    shard_trace_ids = {
        e["args"].get("trace_id") for e in span_events if e["pid"] != local_pid
    }
    joined_traces = len(client_trace_ids & shard_trace_ids)
    if len(shard_pids) < min(2, args.shards):
        failures.append(
            f"merged Chrome trace has spans from only {len(shard_pids)} "
            f"shard pid(s) {shard_pids} (expected ≥ {min(2, args.shards)})"
        )
    if joined_traces == 0:
        failures.append(
            "no shard-side span shares a trace_id with a client "
            "wire-submit span (trace propagation broken)"
        )
    if health.get("last_failover_at") is None:
        failures.append("fleet health carries no last-failover timestamp")

    if completed != total:
        failures.append(f"only {completed}/{total} requests completed")
    if counters["shard_deaths"] != 1:
        failures.append(
            f"expected exactly 1 shard death, saw {counters['shard_deaths']}"
        )
    if counters["failovers"] < 1:
        failures.append("killing a shard counted no failover")
    if counters["reregisters"] != owned[str(victim)]:
        failures.append(
            f"replacement re-registered {counters['reregisters']} pattern(s), "
            f"expected {owned[str(victim)]}"
        )
    if counters["cold_reregisters"] != 0:
        failures.append(
            f"{counters['cold_reregisters']} COLD re-registration(s) after "
            "failover (expected 0: the shared disk cache must keep the "
            "replacement warm)"
        )
    if shards_alive != args.shards:
        failures.append(
            f"fleet ended with {shards_alive} shard(s), expected {args.shards}"
        )
    for slot in range(args.shards):
        if f'shard="{slot}"' not in metrics_text:
            failures.append(f"merged metrics are missing shard=\"{slot}\" labels")
    if "repro_fleet_shard_deaths 1" not in metrics_text:
        failures.append("merged metrics are missing the fleet death counter")

    report = {
        "shards": args.shards,
        "requests": completed,
        "victim_slot": victim,
        "counters": counters,
        "trace_shard_pids": shard_pids,
        "trace_joined": joined_traces,
        "fleet_status": health.get("status"),
        "failures": failures,
    }
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    if failures:
        for failure in failures:
            sys.stderr.write(f"fleet smoke: {failure}\n")
        return 1
    return 0


def _shutdown_at_eof(server: SolverServiceServer) -> None:
    """Read stdin to its end, then shut ``server`` down (nothing is ever written to it)."""
    while os.read(0, 4096):
        pass
    server.request_shutdown()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service", description=__doc__
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument("--port", type=int, default=8377, help="TCP port (0 = ephemeral)")
    parser.add_argument(
        "--backend", choices=["python", "c"], default=SympilerOptions.backend,
        help="code-generation backend for registered patterns (either needs "
        "a C toolchain)",
    )
    parser.add_argument(
        "--max-in-flight", type=int, default=256,
        help="admitted-but-incomplete request bound (backpressure beyond it)",
    )
    parser.add_argument(
        "--max-patterns", type=int, default=32,
        help="registered-pattern budget (LRU eviction beyond it)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="run the CI self-check instead of serving (ephemeral port, "
        "mixed-pattern load, zero-recompile assertion)",
    )
    parser.add_argument(
        "--requests", type=int, default=48,
        help="[--smoke] total requests to drive",
    )
    parser.add_argument(
        "--workers", type=int, default=4,
        help="[--smoke] concurrent client connections",
    )
    parser.add_argument(
        "--fleet-smoke", action="store_true",
        help="run the sharded-fleet self-check: pipelined mixed-pattern load, "
        "one shard hard-killed mid-stream, warm-failover assertion",
    )
    parser.add_argument(
        "--shards", type=int, default=2,
        help="[--fleet-smoke] fleet width",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="enable tracing in this server process (requests carrying "
        "trace_id/parent_id headers join the caller's trace; the span "
        "buffer is drained via the trace wire verb)",
    )
    args = parser.parse_args(argv)
    if args.fleet_smoke:
        return run_fleet_smoke(args)
    if args.smoke:
        return run_smoke(args)
    if args.trace:
        from repro import observe

        observe.enable()
    service = _build_service(args)
    server = SolverServiceServer((args.host, args.port), service)
    host, port = server.server_address
    sys.stdout.write(f"repro solver service listening on {host}:{port}\n")
    sys.stdout.flush()
    if stat.S_ISFIFO(os.fstat(0).st_mode):
        threading.Thread(target=_shutdown_at_eof, args=(server,), name="stdin-eof", daemon=True).start()
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
