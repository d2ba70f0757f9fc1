"""The per-layer ladder of a traced run.

For up to three patterns of the workload, every rung of the stack is called
through its own public functions on identical inputs — generated kernel,
artifact wrapper, ``SparseLinearSolver``, ``SpecializedSolver``, in-process
service, wire, fleet of one — next to ``splu`` on the same matrix.  A rung's
``*_self_ms`` is its call minus the calls it makes one rung down.  Each ladder
cycle is one step id in the trace; every call is a span under it.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict, deque
from contextlib import ExitStack

import numpy as np
from scipy.sparse.linalg import splu

from repro import BatchedSolver, ShardFleet, SpecializedSolver, Sympiler
from repro.compiler.cache import ArtifactCache
from repro.frontend.ingest import ingest
from repro.frontend.probes import probe_structure
from repro.kernels.flops import cholesky_flops
from repro.observe import percentile
from repro.solvers.linear_solver import backward_factor
from repro.sparse.generators import sparse_rhs

from . import stats
from .phases import MIN_CYCLES, ORDERING, PIPELINE_DEPTH, REQUEST_TIMEOUT, wire_service

#: Patterns of a workload the ladder runs on (the first ones listed).
MAX_PATTERNS = 3
#: Value sets per ``BatchedSolver.factorize_batch`` call.
BATCH = 8
#: Pipelined requests per pattern behind ``service.latency_p90_ms``.
BURST = 64

pc = time.perf_counter


class _Rungs:
    """Everything the ladder holds for one pattern, built once (disk-warm)."""

    def __init__(self, pattern, stream, opts, rec, endpoints, once) -> None:
        service, client, fleet = endpoints
        self.pattern = pattern
        self.stream = stream
        self.front = SpecializedSolver(options=opts)
        A, b = stream.matrix(), stream.rhs()
        self.front.solve(A, b)
        csc = ingest(A).csc
        # The batched facade wraps a SparseLinearSolver of its own; using that
        # one as the ladder's solver rung saves a second ordering of the pattern.
        self.batched = BatchedSolver(csc, method=pattern.route, ordering=ORDERING, options=opts)
        self.solver = self.batched.solver
        self.factor, self.forward, self.backward = self.solver.compiled_artifacts
        permuted = self.solver.A_permuted
        L = self.solver.L
        Lt = backward_factor(L, self.solver.U)

        # A disk-warm compile call per kernel, through a private memory cache:
        # what a fresh process pays per artifact (inspection, transforms,
        # codegen and loading the `.so`), timed from outside.
        sym = Sympiler(opts, cache=ArtifactCache())
        for kernel, matrix in ((pattern.route, permuted), ("triangular-solve", L), ("triangular-solve", Lt)):
            _, dt = rec.timed("compiler.compile_call", sym.compile, kernel, matrix)
            once["compiler.compile_call_s"] += dt

        self.threads = min(os.cpu_count() or 1, 2)
        self.wavefront = Sympiler(
            opts.with_updates(parallel="wavefront"), cache=ArtifactCache()
        ).compile(pattern.route, permuted)
        once["kernels.wavefront_active"] += self.wavefront.parallel_mode == "wavefront"
        # The Fig. 6 kernel: a triangular solve pruned to a sparse rhs.
        self.sparse_b = sparse_rhs(csc.n, seed=6)
        self.pruned = sym.compile("triangular-solve", L, rhs_pattern=np.nonzero(self.sparse_b)[0])
        self.factor_flops = cholesky_flops(L)

        register = dict(kernel=pattern.route, ordering=ORDERING)
        self.inproc, dt = rec.timed("service.register", service.register_pattern, csc, **register)
        once["service.register_s"] += dt
        self.wire = client.register_pattern(csc, **register)
        self.fleet = fleet.register_pattern(csc, **register)


def _cycle(r: _Rungs, endpoints, rec, checker, samples) -> None:
    service, client, fleet = endpoints
    stream, solver = r.stream, r.solver
    what = f"ladder/{r.pattern.name}"

    def timed(name, fn, *args, **kwargs):
        out, dt = rec.timed(name, fn, *args, **kwargs)
        samples[name].append(dt)
        return out

    def answer(name, fn, A, b, *args, **kwargs):
        try:
            x = timed(name, fn, *args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            checker.raised(f"{what} {name}", exc)
            return
        checker.answer(f"{what} {name}", A, x, b)

    values = stream.values()
    A, b, b2 = stream.as_scipy(values), stream.rhs(), stream.rhs()

    lu = timed("baseline.splu_factor", splu, A)
    timed("baseline.splu_solve", lu.solve, b)

    answer("frontend.refactor_step", r.front.solve, A, b, A, b)
    answer("frontend.rhs_step", r.front.solve, A, b2, A, b2)

    csc = timed("sparse.ingest", ingest, A).csc
    timed("sparse.validate", csc.validate)
    timed("frontend.probe", probe_structure, csc)
    permuted = timed("sparse.permute", solver.permutation.symmetric_permute, csc)

    timed("solvers.refactor", solver.factorize, csc)
    L = solver.L
    Lt = timed("solvers.backward_factor", backward_factor, L, solver.U)
    answer("solvers.solve", solver.solve, A, b, b)

    timed("compiler.artifact_factor", r.factor.factorize, permuted)
    arrays = (permuted.indptr, permuted.indices, permuted.data)
    timed("kernels.factor", r.factor.factorize_arrays, *arrays)
    timed("kernels.factor_wavefront", r.wavefront.factorize_arrays, *arrays, num_threads=r.threads)

    def sweeps():
        y = r.forward.solve_arrays(L.indptr, L.indices, L.data, b)
        return r.backward.solve_arrays(Lt.indptr, Lt.indices, Lt.data, y)

    timed("kernels.trisolve", sweeps)
    timed("kernels.trisolve_sparse_rhs", r.pruned.solve_arrays, L.indptr, L.indices, L.data, r.sparse_b)

    batch = [csc.with_values(stream.values()) for _ in range(BATCH)]
    handles = timed("runtime.batched_factor", r.batched.factorize_batch, batch)
    checker.expect(f"{what} a batched factorization failed", all(h.ok for h in handles))

    answer("service.inproc_solve", service.solve, A, b, r.inproc, values, b, timeout=REQUEST_TIMEOUT)
    answer("service.wire_solve", client.solve, A, b, r.wire, values, b, timeout=REQUEST_TIMEOUT)
    answer("service.fleet1_solve", fleet.solve, A, b, r.fleet, values, b, timeout=REQUEST_TIMEOUT)


def _burst(r: _Rungs, client, rec, checker) -> list:
    """``BURST`` pipelined requests on one connection; request latencies in s."""
    stream = r.stream
    inflight = deque()
    latencies = []
    sent = 0
    with rec.span("service.burst", step=f"burst:{r.pattern.name}"):
        while sent < BURST or inflight:
            while sent < BURST and len(inflight) < PIPELINE_DEPTH:
                values, b = stream.values(), stream.rhs()
                inflight.append((pc(), values, b, client.submit(r.wire, values, b)))
                sent += 1
            t_sent, values, b, future = inflight.popleft()
            what = f"ladder/{r.pattern.name} burst"
            try:
                x = future.result(timeout=REQUEST_TIMEOUT)
            except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                checker.raised(what, exc)
                continue
            latencies.append(pc() - t_sent)
            checker.answer(what, stream.as_scipy(values), x, b)
    return latencies


def _histogram(stats_doc: dict) -> dict:
    return {int(k): v for k, v in stats_doc["batch_size_histogram"].items()}


def run(workload, items, seconds: float, opts, rec, checker) -> dict:
    """Run the ladder for about ``seconds``; returns the per-layer metrics."""
    once = defaultdict(float)
    with rec.span("ladder"), ExitStack() as stack:
        service, _, client = stack.enter_context(wire_service(opts))
        fleet = stack.enter_context(ShardFleet(shards=1, backend=opts.backend))
        endpoints = (service, client, fleet)
        rungs = []
        for k, (pattern, _, stream) in enumerate(items[:MAX_PATTERNS]):
            with rec.span("step", step=f"prepare:{k}", pattern=pattern.name):
                rungs.append(_Rungs(pattern, stream, opts, rec, endpoints, once))
        per_pattern = [defaultdict(list) for _ in rungs]
        deadline = pc() + seconds
        cycles = 0
        while cycles < MIN_CYCLES or pc() < deadline:
            for k, r in enumerate(rungs):
                with rec.span("step", step=f"ladder:{cycles * len(rungs) + k}", pattern=r.pattern.name):
                    _cycle(r, endpoints, rec, checker, per_pattern[k])
            cycles += 1
        before = client.stats()
        latencies = [v for r in rungs for v in _burst(r, client, rec, checker)]
        after = client.stats()
        hits = sum(r.front.stats.structure_hits for r in rungs)
        calls = hits + sum(r.front.stats.specializations for r in rungs)

    # Geometric mean over the ladder's patterns of each pattern's median, ms.
    m = {
        name: 1e3 * stats.geomean(stats.median(p[name]) for p in per_pattern)
        for name in per_pattern[0]
    }
    out = {
        "baseline.splu_factor_ms": m["baseline.splu_factor"],
        "baseline.splu_solve_ms": m["baseline.splu_solve"],
        "kernels.factor_ms": m["kernels.factor"],
        "kernels.trisolve_ms": m["kernels.trisolve"],
        # Computed: Cholesky operation count of L's column counts over time.
        "kernels.factor_gflops": stats.geomean(
            r.factor_flops / stats.median(p["kernels.factor"]) / 1e9
            for r, p in zip(rungs, per_pattern)
        ),
        "kernels.factor_wavefront_ms": m["kernels.factor_wavefront"],
        "kernels.wavefront_speedup": m["kernels.factor"] / m["kernels.factor_wavefront"],
        "kernels.wavefront_threads": rungs[0].threads,
        "kernels.wavefront_active": once["kernels.wavefront_active"],
        "kernels.trisolve_sparse_rhs_ms": m["kernels.trisolve_sparse_rhs"],
        "compiler.artifact_factor_ms": m["compiler.artifact_factor"],
        "compiler.artifact_self_ms": m["compiler.artifact_factor"] - m["kernels.factor"],
        "compiler.compile_call_s": once["compiler.compile_call_s"],
        "sparse.ingest_ms": m["sparse.ingest"],
        "sparse.validate_ms": m["sparse.validate"],
        "sparse.permute_ms": m["sparse.permute"],
        "solvers.refactor_ms": m["solvers.refactor"],
        "solvers.refactor_self_ms": m["solvers.refactor"]
        - m["sparse.permute"] - m["compiler.artifact_factor"] - m["solvers.backward_factor"],
        "solvers.backward_factor_ms": m["solvers.backward_factor"],
        "solvers.solve_ms": m["solvers.solve"],
        "solvers.solve_self_ms": m["solvers.solve"] - m["kernels.trisolve"],
        "frontend.refactor_step_ms": m["frontend.refactor_step"],
        "frontend.rhs_step_ms": m["frontend.rhs_step"],
        "frontend.refactor_self_ms": m["frontend.refactor_step"]
        - m["sparse.ingest"] - m["solvers.refactor"] - m["solvers.solve"],
        "frontend.rhs_self_ms": m["frontend.rhs_step"] - m["sparse.ingest"] - m["solvers.solve"],
        "frontend.kernel_share_pct": 100.0 * m["kernels.factor"] / m["frontend.refactor_step"],
        # What no separately timed public call accounts for.
        "frontend.unattributed_pct": 100.0
        * (m["frontend.refactor_step"] - m["sparse.ingest"] - m["sparse.permute"]
           - m["compiler.artifact_factor"] - m["solvers.backward_factor"] - m["solvers.solve"])
        / m["frontend.refactor_step"],
        "frontend.probe_ms": m["frontend.probe"],
        "frontend.structure_hit_ratio": hits / calls,
        "runtime.batched_factor_ms_per_item": m["runtime.batched_factor"] / BATCH,
        "service.register_s": once["service.register_s"],
        "service.inproc_solve_ms": m["service.inproc_solve"],
        "service.wire_solve_ms": m["service.wire_solve"],
        "service.wire_self_ms": m["service.wire_solve"] - m["service.inproc_solve"],
        "service.fleet1_solve_ms": m["service.fleet1_solve"],
        "service.fleet_self_ms": m["service.fleet1_solve"] - m["service.wire_solve"],
    }
    hist_before, hist_after = _histogram(before), _histogram(after)
    delta = {k: v - hist_before.get(k, 0) for k, v in hist_after.items()}
    delta = {k: v for k, v in delta.items() if v > 0}
    out["service.latency_p90_ms"] = 1e3 * percentile(latencies, 90.0)
    out["service.coalescing_ratio"] = sum(k * v for k, v in delta.items()) / sum(delta.values())
    out["service.max_batch_size"] = max(delta)
    out["service.rejected"] = after["counters"].get("rejected", 0) - before["counters"].get("rejected", 0)
    return out
