"""Pipelined wire requests and the sharded solver fleet.

Two escalations of the serving layer, one endpoint surface:

1. **Pipelining.**  A single :class:`ServiceClient` connection keeps many
   id-tagged requests in flight at once — ``submit()`` returns a future
   immediately, the requests wait in the connection while the server's
   connection thread solves them one after another, and responses resolve
   out of band.  The same loop written with the lock-step ``solve()`` pays
   a full round-trip *per request*.

2. **Sharding.**  A :class:`ShardFleet` runs N solver-service processes
   over one shared compiled-kernel disk cache and pins each pattern to one
   fixed slot by its fingerprint.  Kill a shard mid-stream and the fleet
   respawns it in its own slot, re-registers its patterns **warm from disk**
   (zero recompiles — the counters prove it), and transparently resubmits
   the requests that were caught in the crash.

Because ``SolverService``, ``ServiceClient`` and ``ShardFleet`` all
implement the :class:`~repro.service.endpoint.SolverEndpoint` protocol, the
driving code below is identical for the single-connection and fleet halves.

Run with:  python examples/fleet_pipelining.py
"""

import time

import numpy as np

from repro import SympilerOptions, fem_stencil_2d, laplacian_2d
from repro.service import ServiceClient, ShardFleet, SolverService, serve_background


def drive(endpoint, handles, matrices, requests: int):
    """Pipeline `requests` mixed-pattern solves through any SolverEndpoint."""
    names = sorted(matrices)
    futures = []
    for k in range(requests):
        name = names[k % len(names)]
        A = matrices[name]
        rhs = np.sin(np.arange(A.n, dtype=np.float64) + k)
        futures.append(endpoint.submit(handles[name], A.data, rhs))
    return [f.result(timeout=120.0) for f in futures]


def main() -> None:
    options = SympilerOptions(enable_vs_block=False)
    matrices = {
        "laplacian": laplacian_2d(14, shift=0.1),
        "fem": fem_stencil_2d(10, shift=0.25),
    }
    requests = 32

    # ---- Part 1: one connection, pipelined vs lock-step ------------------
    service = SolverService(options=options)
    server, thread = serve_background(service)
    try:
        with ServiceClient(server.server_address) as client:
            handles = {
                name: client.register_pattern(A, options=options)
                for name, A in matrices.items()
            }

            t0 = time.perf_counter()
            drive(client, handles, matrices, requests)
            pipelined = time.perf_counter() - t0

            t0 = time.perf_counter()
            for k in range(requests):
                name = sorted(matrices)[k % len(matrices)]
                A = matrices[name]
                rhs = np.sin(np.arange(A.n, dtype=np.float64) + k)
                client.solve(handles[name], A.data, rhs)  # one round-trip each
            lockstep = time.perf_counter() - t0

        print(
            f"{requests} requests on one connection: "
            f"pipelined {pipelined * 1e3:.0f} ms vs "
            f"lock-step {lockstep * 1e3:.0f} ms "
            f"({lockstep / pipelined:.1f}x)"
        )
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)

    # ---- Part 2: a 2-shard fleet surviving a mid-stream crash ------------
    with ShardFleet(2) as fleet:
        handles = {
            name: fleet.register_pattern(A, options=options)
            for name, A in matrices.items()
        }
        drive(fleet, handles, matrices, requests)  # same code as Part 1

        victim = int(
            next(
                slot
                for slot, s in fleet.stats()["per_shard"].items()
                if s.get("registered_patterns", 0) > 0
            )
        )
        print(f"killing shard {victim} mid-stream ...")
        fleet.kill_shard(victim)
        xs = drive(fleet, handles, matrices, requests)

        c = fleet.counters
        print(
            f"all {len(xs)} post-crash requests completed; "
            f"deaths={c['shard_deaths']}, respawns={c['respawns']}, "
            f"re-registrations={c['reregisters']} "
            f"(warm={c['warm_reregisters']}, cold={c['cold_reregisters']})"
        )
        assert c["cold_reregisters"] == 0, "failover must reuse the disk cache"


if __name__ == "__main__":
    main()
