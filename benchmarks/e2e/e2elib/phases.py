"""Set-up and measured phases of the four workloads.

Each phase runs in its own fresh process (see ``run.py``).  The program is
driven only through ``SpecializedSolver.solve``, ``SparseLinearSolver``,
``SolverService`` behind ``serve_background`` and ``ServiceClient``; every
answer goes through :class:`~e2elib.checks.Checker`.

Timings that carry a bound are ratios to ``splu`` on the same system, each
pair timed back to back: the sandbox's speed drifts by a quarter within
minutes, which a ratio of neighbours cancels and an absolute time does not
(README, "Why ratios").  The absolute times are still returned, as ``raw``.
"""

from __future__ import annotations

import os
import resource
import threading
import time
from collections import defaultdict, deque
from contextlib import ExitStack, contextmanager
from types import SimpleNamespace

from scipy.sparse.linalg import splu

from repro import (
    ServiceClient,
    SolverService,
    SparseLinearSolver,
    SpecializedSolver,
    SympilerOptions,
)
from repro import observe
from repro.compiler.codegen.c_backend import disk_cache_stats
from repro.service.wire import serve_background
from repro.sparse.ordering import ordering_by_name

from . import stats
from .checks import Checker
from .spans import Recorder
from .workloads import Workload, streams

ORDERING = "mindeg"
#: Requests each pipelined connection keeps in flight.
PIPELINE_DEPTH = 8
REQUEST_TIMEOUT = 60.0
#: Cycles every measured loop completes even when ``--seconds`` is tiny.
MIN_CYCLES = 2
#: serve_mixed splits its measured time three ways: lock-step in process (the
#: bounded ratios), lock-step over the wire (phase A) and pipelined over the
#: wire (phase B).  The two wire phases are reported as absolute numbers only:
#: a lock-step wire request is two ~44 ms TCP stalls whatever the matrix, and
#: pipelined throughput settles into one of two regimes per process (README).
INPROC_SHARE, PHASE_A_SHARE, PHASE_B_SHARE = 0.4, 0.2, 0.4
#: The head of phase B, while the pipelines fill, is not counted.
PIPELINE_WARMUP = 0.2

pc = time.perf_counter


def options(smoke: bool) -> SympilerOptions:
    return SympilerOptions(backend="python" if smoke else "c")


def _maxrss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _no_recompiles() -> bool:
    disk = disk_cache_stats()
    return disk.compiles == 0 and disk.py_writes == 0


@contextmanager
def wire_service(opts: SympilerOptions):
    """An in-process ``SolverService`` behind ``serve_background`` + a client."""
    service = SolverService(options=opts)
    server, thread = serve_background(service)
    client = None
    try:
        client = ServiceClient(server.server_address, timeout=REQUEST_TIMEOUT)
        yield service, server, client
    finally:
        if client is not None:
            client.close()
        server.shutdown()
        server.server_close()
        thread.join(timeout=10.0)
        service.close()


# --------------------------------------------------------------------------- #
# First verified answer for every pattern (cold set-up and disk-warm start)
# --------------------------------------------------------------------------- #
def _first_answers(workload, items, solve_first, rec: Recorder, checker: Checker, label: str):
    """Seconds until every pattern has produced one verified answer."""
    inputs = [(pattern, stream.matrix(), stream.rhs()) for pattern, _, stream in items]
    t0 = pc()
    with rec.span(label):
        for k, (pattern, A, b) in enumerate(inputs):
            what = f"{workload.name}/{pattern.name} {label}"
            with rec.span("step", step=f"{label}:{k}", pattern=pattern.name):
                try:
                    x, _ = rec.timed(f"{label}.first_answer", solve_first, k, pattern, A, b)
                except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                    checker.raised(what, exc)
                    continue
                checker.answer(what, A, x, b)
    return pc() - t0


def _front_first(front: SpecializedSolver):
    return lambda k, pattern, A, b: front.solve(A, b)


def _serve_first(client: ServiceClient, handles: list):
    def first(k, pattern, A, b):
        handle = client.register_pattern(A, kernel=pattern.route, ordering=ORDERING)
        handles.append(handle)
        return client.solve(handle, A.data, b, timeout=REQUEST_TIMEOUT)

    return first


def _compile_breakdown(items, opts, rec: Recorder) -> dict:
    """Public ``CompileTimings`` of every artifact the set-up just compiled.

    Runs right after a cold set-up in the same process: a
    ``SparseLinearSolver`` built here finds every artifact in the shared
    in-memory cache, and a cache hit returns the very object the cold compile
    produced, timings included.
    """
    out = defaultdict(float)
    seen = set()
    with rec.span("compile_breakdown"):
        for k, (pattern, base, _) in enumerate(items):
            with rec.span("step", step=f"breakdown:{k}", pattern=pattern.name):
                _, dt = rec.timed("sparse.ordering", ordering_by_name(ORDERING), base)
                solver = SparseLinearSolver(
                    base, method=pattern.route, ordering=ORDERING, options=opts
                )
            out["sparse.ordering_s"] += dt
            for artifact in solver.compiled_artifacts:
                # Patterns with the same factor structure share an artifact.
                if id(artifact) in seen:
                    continue
                seen.add(id(artifact))
                t = artifact.timings
                out["symbolic.inspect_s"] += t.inspection
                out["compiler.transform_s"] += t.transformation
                out["compiler.codegen_s"] += t.codegen
                out["compiler.cc_s"] += t.compile
                out["compiler.compile_total_s"] += t.total
                out["compiler.source_bytes"] += len(artifact.source.encode())
    return dict(out)


def setup(workload: Workload, seed: int, smoke: bool, trace: bool) -> dict:
    """Empty disk and memory caches -> first verified answer for every pattern."""
    opts = options(smoke)
    rec = Recorder(trace)
    checker = Checker()
    items = streams(workload, seed)
    if trace:
        observe.enable()
    with rec.span("run", phase="setup", workload=workload.name):
        if workload.entry == "front":
            front = SpecializedSolver(options=opts)
            setup_s = _first_answers(workload, items, _front_first(front), rec, checker, "setup")
            routes = [entry["method"] for entry in front.cache_info()["entries"]]
            expected = [pattern.route for pattern in workload.patterns]
            checker.expect(f"routes taken {routes} != expected {expected}", routes == expected)
        else:
            with wire_service(opts) as (_, _, client):
                setup_s = _first_answers(
                    workload, items, _serve_first(client, []), rec, checker, "setup"
                )
        layer = {}
        if trace:
            layer = _compile_breakdown(items, opts, rec)
            total = layer.pop("compiler.compile_total_s")
            layer["frontend.specialize_self_s"] = setup_s - layer["sparse.ordering_s"] - total
            layer["stack.setup_s"] = setup_s
            disk = disk_cache_stats()
            layer["compiler.so_compiles"] = disk.compiles + disk.py_writes
            layer["compiler.cc_peak_rss_mb"] = _maxrss_mb(resource.RUSAGE_CHILDREN)
    return {
        "metrics": {"setup_s": setup_s},
        "layer": layer,
        "checks": checker.as_dict(),
        "events": _events(rec, pid=1),
    }


def _events(rec: Recorder, pid: int) -> list:
    if not rec.spans:
        return []
    program = [sp.as_dict() for sp in observe.get_tracer().drain()]
    return rec.chrome_events(pid) + observe.chrome_trace_events(program, pid=pid)


# --------------------------------------------------------------------------- #
# The lock-step loop: one caller, every step next to its native reference
# --------------------------------------------------------------------------- #
def _native_rhs_seconds(lu, b):
    """``lu.solve(b)`` warm: one call to load the factor, median of three more.

    A sub-millisecond call right after ours evicted the caches costs twice its
    steady time; which of the two a single call hits varies run to run.
    """
    x = lu.solve(b)
    times = []
    for _ in range(3):
        t0 = pc()
        x = lu.solve(b)
        times.append(pc() - t0)
    return x, stats.median(times)


def _step(kind, solve, state, stream, rec, checker, what, samples, tag):
    """One closed-loop step and its ``splu`` reference, back to back."""
    if kind == "refactor":
        state.A = stream.matrix()
    A, b = state.A, stream.rhs()
    x = ours = None
    try:
        x, ours = rec.timed(f"step.{kind}", solve, A, b)
    except Exception as exc:  # noqa: BLE001 - counted as a failed operation
        checker.raised(what, exc)
    if kind == "refactor":
        t0 = pc()
        state.lu = splu(A)
        x_ref = state.lu.solve(b)
        native = pc() - t0
    else:
        x_ref, native = _native_rhs_seconds(state.lu, b)
    if x is not None:
        samples[(kind, tag)].append((ours, native))
        checker.answer(what, A, x, b, x_ref)


def _lockstep(workload, items, solvers, seconds, rec, checker, alternate_tracing=False):
    """Closed loop, one caller: cycles of ``workload.cycle`` over every pattern.

    Returns ``samples[(kind, pattern index)]``: one ``(ours, native)`` pair of
    seconds per step, ``native`` being ``splu`` on the same system.  With
    ``alternate_tracing`` every other cycle runs with the program's tracer and
    the benchmark's spans on, the rest with both off; the samples of the two
    halves are kept apart (``"traced"`` / ``"untraced"`` in the key).
    """
    samples = defaultdict(list)
    # Per pattern: the matrix the solver holds factors of, and its ``splu``.
    states = [SimpleNamespace(A=None, lu=None) for _ in items]
    deadline = pc() + seconds
    cycles = 0
    step_id = 0
    while cycles < MIN_CYCLES or pc() < deadline:
        traced = alternate_tracing and cycles % 2 == 0
        if alternate_tracing:
            rec.tracing = traced
            (observe.enable if traced else observe.disable)()
        for k, (pattern, _, stream) in enumerate(items):
            tag = (k, "traced" if traced else "untraced") if alternate_tracing else k
            for kind in workload.cycle:
                what = f"{workload.name}/{pattern.name} {kind}"
                with rec.span("step", step=f"schedule:{step_id}", kind=kind, pattern=pattern.name):
                    _step(kind, solvers[k], states[k], stream, rec, checker, what, samples, tag)
                step_id += 1
        cycles += 1
    if alternate_tracing:
        rec.tracing = True
        observe.enable()
    return samples


def _over_patterns(samples, kind, of_pair) -> float:
    """Geometric mean over patterns of the median of ``of_pair(ours, native)``."""
    return stats.geomean(
        stats.median([of_pair(ours, native) for ours, native in pairs])
        for (k, _), pairs in samples.items()
        if k == kind
    )


def _step_ms(samples, kind) -> float:
    return 1e3 * _over_patterns(samples, kind, lambda ours, native: ours)


def _step_over_splu(samples, kind) -> float:
    """Median over steps of ours / ``splu``, each pair timed back to back."""
    return _over_patterns(samples, kind, lambda ours, native: ours / native)


def _sample_summaries(samples) -> dict:
    merged = defaultdict(list)
    for (kind, _), pairs in samples.items():
        merged[kind].extend(1e3 * ours for ours, _ in pairs)
        merged[f"splu.{kind}"].extend(1e3 * native for _, native in pairs)
    return {kind: stats.summary(values) for kind, values in merged.items()}


# --------------------------------------------------------------------------- #
# serve_mixed phase B: pipelined connections
# --------------------------------------------------------------------------- #
def _connection(workload, items, address, handles, warmup, seconds, rec, checker, parent, out):
    """One connection, closed loop with ``PIPELINE_DEPTH`` requests in flight."""
    rec.adopt(parent)
    client = ServiceClient(address, timeout=REQUEST_TIMEOUT)
    inflight = deque()
    count_from = pc() + warmup
    stop = count_from + seconds
    sent = completed = 0
    try:
        with rec.span("pipelined.connection"):
            while True:
                while pc() < stop and len(inflight) < PIPELINE_DEPTH:
                    k = sent % len(items)
                    stream = items[k][2]
                    values, b = stream.values(), stream.rhs()
                    inflight.append((k, values, b, client.submit(handles[k], values, b)))
                    sent += 1
                if not inflight:
                    break
                k, values, b, future = inflight.popleft()
                pattern, _, stream = items[k]
                what = f"{workload.name}/{pattern.name} pipelined"
                try:
                    x = future.result(timeout=REQUEST_TIMEOUT)
                except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                    checker.raised(what, exc)
                    continue
                done = pc()
                if checker.answer(what, stream.as_scipy(values), x, b):
                    completed += count_from <= done <= stop
    finally:
        client.close()
    out.append(completed)


def _pipelined(workload, seed, bases, address, handles, seconds, rec, checker) -> float:
    """Phase B: verified solves per second over ``min(nproc, 2)`` connections."""
    connections = min(os.cpu_count() or 1, 2)
    warmup = PIPELINE_WARMUP * seconds
    counted = seconds - warmup
    out = []
    checkers = [Checker() for _ in range(connections)]
    with rec.span("phase_b", connections=connections, depth=PIPELINE_DEPTH):
        parent = rec.current() if rec.tracing else None
        threads = [
            threading.Thread(
                target=_connection,
                name=f"bench-conn-{c}",
                args=(workload, streams(workload, seed, lane=1 + c, bases=bases), address,
                      handles, warmup, counted, rec, checkers[c], parent, out),
            )
            for c in range(connections)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    for each in checkers:
        checker.merge(each.as_dict())
    checker.expect(f"{workload.name}: a pipelined connection died", len(out) == connections)
    return sum(out) / counted


# --------------------------------------------------------------------------- #
# The measured phase
# --------------------------------------------------------------------------- #
def measure(workload: Workload, seed: int, seconds: float, smoke: bool, trace: bool) -> dict:
    """Disk-warm start, then the workload's measured schedule.

    With ``trace`` the schedule gets a third of the time (alternating traced
    and untraced cycles, which gives the tracing overhead and, from the
    untraced half, the absolute ``stack.*`` timings) and the per-layer ladder
    gets the rest.
    """
    opts = options(smoke)
    rec = Recorder(trace)
    checker = Checker()
    items = streams(workload, seed)
    serve = workload.entry == "serve"
    if trace:
        observe.enable()
    schedule_s = seconds / 3.0 if trace else seconds
    with rec.span("run", phase="measure", workload=workload.name), ExitStack() as stack:
        handles = []
        if serve:
            service, server, client = stack.enter_context(wire_service(opts))
            first = _serve_first(client, handles)
        else:
            front = SpecializedSolver(options=opts)
            first = _front_first(front)
        warm_start_s = _first_answers(workload, items, first, rec, checker, "warm_start")
        checker.expect(
            "the disk-warm start recompiled generated code",
            _no_recompiles() and all(h.warm for h in handles),
        )
        disk_hits = disk_cache_stats().reuses + disk_cache_stats().py_reuses
        if serve:
            # Registering again in process finds the entries the wire made.
            local = [
                service.register_pattern(base, kernel=pattern.route, ordering=ORDERING)
                for pattern, base, _ in items
            ]
            solvers = [(lambda A, b, h=h: service.solve(h, A.data, b, timeout=REQUEST_TIMEOUT))
                       for h in local]
            with rec.span("schedule"):
                samples = _lockstep(workload, items, solvers, INPROC_SHARE * schedule_s, rec,
                                    checker, alternate_tracing=trace)
            solvers = [(lambda A, b, h=h: client.solve(h, A.data, b, timeout=REQUEST_TIMEOUT))
                       for h in handles]
            with rec.span("phase_a"):
                wire = _lockstep(workload, items, solvers, PHASE_A_SHARE * schedule_s, rec, checker)
            bases = [base for _, base, _ in items]
            solves_per_s = _pipelined(workload, seed, bases, server.server_address, handles,
                                      PHASE_B_SHARE * schedule_s, rec, checker)
        else:
            with rec.span("schedule"):
                samples = _lockstep(workload, items, [front.solve] * len(items), schedule_s,
                                    rec, checker, alternate_tracing=trace)
    layer = {}
    if trace:
        traced = {k: v for k, v in samples.items() if k[1][1] == "traced"}
        samples = {k: v for k, v in samples.items() if k[1][1] == "untraced"}
        layer["observe.tracing_overhead_pct"] = 100.0 * (
            _step_over_splu(traced, "refactor") / _step_over_splu(samples, "refactor") - 1.0
        )
    raw = {
        "warm_start_s": warm_start_s,
        "refactor_step_ms": _step_ms(samples, "refactor"),
        "rhs_step_ms": _step_ms(samples, "rhs"),
    }
    if serve:
        raw["solves_per_s"] = solves_per_s
        raw["wire_lockstep_ms"] = _step_ms(wire, "refactor")
    else:
        pairs = [pair for values in samples.values() for pair in values]
        raw["solves_per_s"] = len(pairs) / sum(ours for ours, _ in pairs)
    metrics = {}
    if trace:
        from . import ladder  # pulls in the fleet and batch runtime; traced runs only

        layer["compiler.disk_hits"] = disk_hits
        layer.update({f"stack.{name}": raw[name] for name in
                      ("warm_start_s", "refactor_step_ms", "rhs_step_ms", "solves_per_s")})
        with rec.span("run", phase="ladder", workload=workload.name):
            layer.update(ladder.run(workload, items, seconds - schedule_s, opts, rec, checker))
    else:
        metrics = {
            "warm_over_splu": _step_over_splu(samples, "refactor"),
            "rhs_over_splu": _step_over_splu(samples, "rhs"),
            "peak_rss_mb": _maxrss_mb(resource.RUSAGE_SELF),
        }
    return {
        "metrics": metrics,
        "layer": layer,
        "raw": raw,
        "summaries": _sample_summaries(samples),
        "checks": checker.as_dict(),
        "events": _events(rec, pid=2),
    }
