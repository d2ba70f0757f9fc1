"""End-to-end solver-service demo: register once, serve many.

Starts the serving layer in-process (a real TCP server on an ephemeral
port), registers one sparsity pattern, then fires concurrent clients at it —
each solving the same pattern with different numeric values, the parameter-
sweep traffic the service was built for.  Each connection's solves run on
its own server thread, taking turns at the pattern's solver.  The compiled
kernels are paid for exactly once; the stats printed at the end show the
solve count and latency.

Run with ``PYTHONPATH=src python examples/solver_service.py``.
"""

import threading

import numpy as np

from repro import SparseLinearSolver, SympilerOptions, laplacian_2d
from repro.service import ServiceClient, SolverService, serve_background

N_CLIENTS = 6
REQUESTS_PER_CLIENT = 8


def main() -> None:
    # One SPD model problem; its *pattern* is what the service compiles for.
    A = laplacian_2d(20, shift=0.05)

    options = SympilerOptions()
    service = SolverService(options=options)
    server, server_thread = serve_background(service)
    host, port = server.server_address
    print(f"solver service listening on {host}:{port}")

    try:
        # Control-plane: register the pattern once (compiles its kernels).
        with ServiceClient((host, port)) as control:
            handle = control.register_pattern(A)
        print(
            f"registered pattern {handle.fingerprint} "
            f"(n={handle.n}, nnz={handle.nnz}, factor nnz={handle.factor_nnz}, "
            f"schedule levels={handle.schedule_levels}, warm={handle.warm})"
        )

        # Data-plane: N clients, each a thread with its own connection,
        # solving scaled variants of A against distinct right-hand sides.
        reference = SparseLinearSolver(A, options=options)
        errors = []

        def run_client(worker: int) -> None:
            try:
                with ServiceClient((host, port)) as client:
                    for i in range(REQUESTS_PER_CLIENT):
                        scale = 1.0 + 0.02 * (worker * REQUESTS_PER_CLIENT + i)
                        rhs = np.sin(np.arange(A.n) * 0.1 + worker)
                        x = client.solve(handle, A.data * scale, rhs)
                        expected = reference.solve(rhs) / scale
                        if not np.allclose(x, expected, atol=1e-8):
                            errors.append(f"client {worker} request {i} mismatched")
            except Exception as exc:  # pragma: no cover - demo diagnostics
                errors.append(f"client {worker}: {exc}")

        threads = [
            threading.Thread(target=run_client, args=(w,)) for w in range(N_CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise SystemExit("; ".join(errors))

        with ServiceClient((host, port)) as control:
            stats = control.stats()
        total = N_CLIENTS * REQUESTS_PER_CLIENT
        print(f"\nserved {stats['counters']['solves_ok']}/{total} solves correctly")
        print(f"refactorizations     : {stats['counters'].get('refactorizations', 0)}")
        latency = stats["latency"]
        print(
            f"latency              : p50 {1e3 * latency['p50_seconds']:.2f} ms, "
            f"p95 {1e3 * latency['p95_seconds']:.2f} ms"
        )
    finally:
        server.shutdown()
        server.server_close()
        server_thread.join(timeout=5)
    print("service stopped cleanly")


if __name__ == "__main__":
    main()
