"""``python -m repro.observe`` — the live amortization breakdown.

Runs a small scripted workload (one structure compiled once, then many
numeric solves against fresh right-hand sides — the paper's
factor-once/solve-many shape) with tracing enabled, then prints the
accumulated per-phase breakdown: inspection vs. lowering vs. codegen vs.
cc vs. numeric, cumulative.  This is the Fig. 8/9 amortization argument of
conf_sc_CheshmiKSD17 reproduced from a real run.

``--trace-out trace.json`` additionally dumps the span timeline in Chrome
trace-event format (load it at ``chrome://tracing`` or
https://ui.perfetto.dev), and ``--json snapshot.json`` writes the full
registry snapshot (including the breakdown) as one JSON document.

``--fleet`` runs the workload through a ``--shards``-wide
:class:`~repro.service.fleet.ShardFleet` instead (worker processes with
tracing on, pipelined submits), prints the per-shard health summary and
the structured event log, and — with ``--trace-out`` — writes the **merged**
fleet Chrome trace: client and shard spans share trace ids, one ``pid`` per
shard process, clock-offset corrected.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from repro import observe
from repro.compiler.options import SympilerOptions


def _run_workload(args) -> dict:
    """Compile once, solve ``--solves`` times; return basic sanity facts."""
    from repro.compiler.cache import ArtifactCache
    import repro.compiler.sympiler as sympiler_module
    from repro.frontend.specialized import SpecializedSolver
    from repro.sparse.generators import laplacian_2d

    options = SympilerOptions(backend=args.backend)

    A = laplacian_2d(args.grid, shift=0.1)
    rng = np.random.default_rng(7)

    # A fresh in-process artifact cache so the symbolic phases actually run
    # (instead of being memoized away from a previous workload in the same
    # process); the on-disk cache still applies, which is the point — a warm
    # disk means the "cc" row shows ~0s while "numeric" accumulates.
    shared_before = sympiler_module._SHARED_CACHE
    sympiler_module._SHARED_CACHE = ArtifactCache()
    try:
        front = SpecializedSolver(options=options)
        checks = 0
        for _ in range(max(1, args.solves)):
            b = rng.standard_normal(A.n)
            x = front.solve(A, b)
            checks += int(np.isfinite(x).all())
    finally:
        sympiler_module._SHARED_CACHE = shared_before
    return {
        "backend": args.backend,
        "n": A.n,
        "solves": max(1, args.solves),
        "solves_finite": checks,
        "frontend": front.stats.as_dict(),
    }


def _run_fleet_workload(args) -> dict:
    """Run the workload through a traced ShardFleet; return facts + trace doc."""
    import tempfile

    from repro.service.fleet import ShardFleet
    from repro.sparse.generators import banded_spd, laplacian_2d

    rng = np.random.default_rng(7)
    matrices = [
        laplacian_2d(args.grid, shift=0.1),
        banded_spd(args.grid * args.grid, 3, seed=3),
    ]
    solves = max(1, args.solves)
    with tempfile.TemporaryDirectory(prefix="repro-observe-fleet-") as tmp:
        with ShardFleet(
            shards=args.shards,
            backend=args.backend,
            cache_dir=tmp,
            trace=True,
        ) as fleet:
            handles = [fleet.register_pattern(A) for A in matrices]
            futures = []
            for i in range(solves):
                A = matrices[i % len(matrices)]
                handle = handles[i % len(handles)]
                b = rng.standard_normal(A.n)
                futures.append(fleet.submit(handle, A.data, b))
            checks = 0
            for future in futures:
                x = future.result(timeout=120.0)
                checks += int(np.isfinite(x).all())
            health = fleet.health()
            trace_doc = fleet.chrome_trace()
    return {
        "backend": args.backend,
        "n": matrices[0].n,
        "shards": args.shards,
        "solves": solves,
        "solves_finite": checks,
        "health": health,
        "trace_doc": trace_doc,
    }


def _print_fleet_summary(facts: dict) -> None:
    health = facts["health"]
    sys.stdout.write(
        f"fleet: status={health['status']} shards={health['shards_healthy']}/"
        f"{health['shards']} patterns={health['registered_patterns']} "
        f"uptime={health['uptime_seconds']:.1f}s\n"
    )
    for slot, doc in sorted(health["per_shard"].items()):
        sys.stdout.write(
            f"  shard {slot}: status={doc.get('status')} "
            f"patterns={doc.get('registered_patterns', '?')} "
            f"wire=v{doc.get('wire_version', '?')} "
            f"pid={doc.get('pid', '?')}\n"
        )
    log = observe.get_event_log()
    kinds = log.kinds()
    if kinds:
        rendered = " ".join(f"{k}={v}" for k, v in sorted(kinds.items()))
        sys.stdout.write(f"events: {rendered}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.observe", description=__doc__
    )
    parser.add_argument(
        "--grid", type=int, default=24, help="laplacian_2d grid side (n = grid^2)"
    )
    parser.add_argument(
        "--solves", type=int, default=32, help="numeric solves after the one compile"
    )
    parser.add_argument(
        "--backend",
        choices=["python", "c"],
        default=SympilerOptions.backend,
        help="code-generation backend (without a C toolchain, c falls back to python)",
    )
    parser.add_argument(
        "--fleet",
        action="store_true",
        help="run the workload through a traced ShardFleet and merge every "
        "shard's spans into one Chrome trace",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=2,
        help="fleet width for --fleet (default: 2)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        help="write the span timeline as Chrome trace-event JSON to this path "
        "(with --fleet: the merged multi-process trace)",
    )
    parser.add_argument(
        "--json",
        default=None,
        help="write the full registry snapshot (plus breakdown) to this path",
    )
    args = parser.parse_args(argv)

    observe.enable()
    try:
        if args.fleet:
            facts = _run_fleet_workload(args)
        else:
            facts = _run_workload(args)
    finally:
        observe.disable()

    trace_doc = facts.pop("trace_doc", None)
    data = observe.breakdown()
    sys.stdout.write(observe.format_breakdown(data) + "\n")
    sys.stdout.write(
        f"workload: backend={facts['backend']} n={facts['n']} "
        f"solves={facts['solves']}\n"
    )
    if args.fleet:
        _print_fleet_summary(facts)

    if args.trace_out:
        if trace_doc is not None:
            with open(args.trace_out, "w", encoding="utf-8") as fh:
                json.dump(trace_doc, fh, indent=2, sort_keys=True)
            shard_pids = sorted(
                {e["pid"] for e in trace_doc["traceEvents"] if e.get("ph") == "X"}
            )
            sys.stdout.write(
                f"merged chrome trace written to {args.trace_out} "
                f"(pids: {shard_pids})\n"
            )
        else:
            observe.write_chrome_trace(args.trace_out)
            sys.stdout.write(f"chrome trace written to {args.trace_out}\n")
    if args.json:
        doc = {
            "workload": facts,
            "breakdown": data,
            "snapshot": observe.snapshot(),
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
        sys.stdout.write(f"registry snapshot written to {args.json}\n")

    if facts["solves_finite"] != facts["solves"]:
        sys.stderr.write("workload produced non-finite solutions\n")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
