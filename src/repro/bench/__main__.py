"""Command-line entry point: ``python -m repro.bench <experiment> [options]``.

Experiments
-----------
``table2``   — the matrix suite listing (Table 2).
``fig6``     — triangular-solve performance (Figure 6).
``fig7``     — Cholesky performance (Figure 7).
``fig8``     — triangular-solve symbolic+numeric, normalized (Figure 8).
``fig9``     — Cholesky symbolic+numeric, normalized (Figure 9).
``intro``    — §1.1 speedups over the naive and library triangular solves.
``overheads``— §4.3 compile-time cost relative to one numeric execution.
``ldlt``     — LDLᵀ vs. Cholesky (the kernel-registry extension).
``lu``       — LU vs. scipy ``splu`` on unsymmetric diagonally dominant
               matrices (the unsymmetric registry extension).
``batched``  — sequential vs. batched factorization throughput through the
               batched numeric runtime (``--threads N`` sizes the pool).
``pcg``      — IC(0)-preconditioned CG, compiled vs. interpreted
               preconditioner vs. scipy ``cg`` (the incomplete-kernel
               registry extension).
``serving``  — the solver service: coalesced micro-batched dispatch vs.
               uncoalesced per-request dispatch vs. the naive scipy
               refactorize-per-request baseline.
``wavefront``— within-kernel level-set parallelism: wavefront-compiled
               single solves vs the serial compiled kernel (bitwise
               identity, 2-thread speedup, warm-reload recompile count,
               deep-etree serial fallback).
``observe``  — the observability layer's cost contract: disabled-span
               overhead as a fraction of a warm solve (gated < 3 %) plus
               enabled-path export coverage.
``fleet``    — the sharded solver fleet: pipelined submits vs lock-step
               solves on one connection, 2-shard vs 1-shard scaling, and
               kill-a-shard failover with warm re-registration.
``all``      — run every experiment in sequence.

``--json [DIR]`` additionally writes each experiment's rows to
``BENCH_<experiment>.json`` so CI can upload the perf trajectory per PR.
``--compare BASELINE_DIR`` gates the run against committed baseline
snapshots: machine-portable metrics (booleans, deterministic counters,
same-run timing ratios — see :mod:`repro.bench.compare`) may not regress
beyond ``--max-regression`` (default 0.25), or the process exits nonzero.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys

from repro.bench.compare import (
    compare_rows,
    format_regressions,
    load_baseline,
)
from repro.bench.figures import (
    batched_throughput,
    fig6_triangular_performance,
    fig7_cholesky_performance,
    fig8_triangular_accumulated,
    fig9_cholesky_accumulated,
    fleet_throughput,
    frontend_specialization,
    intro_triangular_speedups,
    ldlt_performance,
    lu_performance,
    observe_overhead,
    overhead_report,
    pcg_performance,
    serving_throughput,
    table2_suite_listing,
    wavefront_execution,
)
from repro.bench.reporting import render_csv, render_table
from repro.bench.suite import build_suite, small_suite
from repro.observe import phase_totals
from repro.observe import trace as observe_trace

_EXPERIMENTS = {
    "table2": ("Table 2: matrix suite", table2_suite_listing),
    "fig6": ("Figure 6: triangular solve GFLOP/s", fig6_triangular_performance),
    "fig7": ("Figure 7: Cholesky GFLOP/s", fig7_cholesky_performance),
    "fig8": ("Figure 8: triangular solve symbolic+numeric (normalized)", fig8_triangular_accumulated),
    "fig9": ("Figure 9: Cholesky symbolic+numeric (normalized)", fig9_cholesky_accumulated),
    "intro": ("Section 1.1: speedups over naive/library triangular solve", intro_triangular_speedups),
    "overheads": ("Section 4.3: compile-time overheads", overhead_report),
    "ldlt": ("LDL^T vs. Cholesky (kernel-registry extension)", ldlt_performance),
    "lu": ("LU vs. scipy splu (unsymmetric registry extension)", lu_performance),
    "batched": ("Batched runtime: sequential vs. batched throughput", batched_throughput),
    "pcg": ("IC(0)-preconditioned CG (incomplete-kernel extension)", pcg_performance),
    "serving": ("Solver service: coalesced vs uncoalesced dispatch", serving_throughput),
    "wavefront": ("Wavefront (H-Level) execution: single-solve parallelism", wavefront_execution),
    "frontend": ("Front end: lazy specialization, cold vs warm repro.solve", frontend_specialization),
    "observe": ("Observability: disabled-tracing overhead and export coverage", observe_overhead),
    "fleet": ("Sharded fleet: request pipelining, failover, shard scaling", fleet_throughput),
}


def _json_default(value):
    """Coerce NumPy scalars (and anything else odd) into JSON-friendly types."""
    if hasattr(value, "item"):
        return value.item()
    return str(value)


def write_json_report(
    name: str,
    title: str,
    rows,
    *,
    directory: str,
    args_used: dict,
    phase_seconds: dict | None = None,
) -> str:
    """Write one experiment's rows to ``BENCH_<name>.json`` and return the path.

    ``phase_seconds`` (when tracing was enabled for the run) is the
    experiment's per-phase accumulated wall time — the
    :func:`repro.observe.phase_totals` delta measured around the experiment
    call — so the uploaded perf trajectory carries *where* the time went
    (inspect/codegen/cc/numeric/...), not just the row-level ratios.
    """
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"BENCH_{name}.json")
    payload = {
        "experiment": name,
        "title": title,
        "args": args_used,
        "rows": rows,
    }
    if phase_seconds is not None:
        payload["phase_seconds"] = phase_seconds
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, default=_json_default)
        fh.write("\n")
    return path


def main(argv=None) -> int:
    """Run the requested experiment(s) and print their result tables."""
    parser = argparse.ArgumentParser(prog="python -m repro.bench", description=__doc__)
    parser.add_argument("experiment", choices=[*_EXPERIMENTS, "all"], help="experiment to run")
    parser.add_argument("--small", action="store_true", help="use the small (fast) matrix suite")
    parser.add_argument("--csv", action="store_true", help="emit CSV instead of an ASCII table")
    parser.add_argument(
        "--backend",
        choices=["python", "c"],
        default="python",
        help="code-generation backend for the Sympiler variants",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        metavar="N",
        help="numeric-runtime thread count, threaded through "
        "SympilerOptions.num_threads (0 = one per CPU; experiments that "
        "run no batched work ignore it)",
    )
    parser.add_argument(
        "--json",
        nargs="?",
        const=".",
        default=None,
        metavar="DIR",
        help="also write BENCH_<experiment>.json to DIR (default: current directory)",
    )
    parser.add_argument(
        "--compare",
        default=None,
        metavar="BASELINE_DIR",
        help="perf gate: compare against the BENCH_<experiment>.json snapshots "
        "in this directory and exit nonzero on a gated-metric regression",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        metavar="FRACTION",
        help="allowed fractional regression of gated metrics (default: 0.25)",
    )
    args = parser.parse_args(argv)

    suite = small_suite() if args.small else build_suite()
    names = list(_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    regressions = []
    # JSON reports carry a per-phase time breakdown; that needs the tracing
    # layer on for the duration of the run (re-disabled on the way out so a
    # bench invocation never leaves process-global state flipped).
    tracing_for_json = args.json is not None and not observe_trace.enabled()
    if tracing_for_json:
        observe_trace.enable()
    try:
        return _run_experiments(args, suite, names, regressions)
    finally:
        if tracing_for_json:
            observe_trace.disable()


def _phase_delta(before: dict, after: dict) -> dict:
    """Per-phase ``{seconds, calls}`` accumulated between two snapshots."""
    delta = {}
    for phase, totals in sorted(after.items()):
        prior = before.get(phase, {"seconds": 0.0, "calls": 0})
        seconds = totals["seconds"] - prior["seconds"]
        calls = totals["calls"] - prior["calls"]
        if calls > 0 or seconds > 0:
            delta[phase] = {"seconds": seconds, "calls": calls}
    return delta


def _run_experiments(args, suite, names, regressions) -> int:
    for name in names:
        title, fn = _EXPERIMENTS[name]
        accepted = inspect.signature(fn).parameters
        kwargs = {}
        if "backend" in accepted:
            kwargs["backend"] = args.backend
        if "threads" in accepted and args.threads is not None:
            kwargs["threads"] = args.threads
        phases_before = phase_totals() if args.json is not None else {}
        rows = fn(suite, **kwargs)
        if args.csv:
            sys.stdout.write(render_csv(rows))
        else:
            sys.stdout.write(render_table(rows, title=title))
        sys.stdout.write("\n")
        if args.json is not None:
            path = write_json_report(
                name,
                title,
                rows,
                directory=args.json,
                args_used={
                    "small": args.small,
                    "backend": args.backend,
                    "threads": args.threads,
                },
                phase_seconds=_phase_delta(phases_before, phase_totals()),
            )
            sys.stdout.write(f"[json report written to {path}]\n")
        if args.compare is not None:
            baseline = load_baseline(args.compare, name)
            if baseline is None:
                sys.stdout.write(
                    f"[no baseline for {name!r} in {args.compare}; gate skipped]\n"
                )
            else:
                found = compare_rows(
                    name,
                    baseline.get("rows", []),
                    rows,
                    max_regression=args.max_regression,
                )
                regressions.extend(found)
                gated = "regressed" if found else "ok"
                sys.stdout.write(f"[perf gate vs {args.compare}: {gated}]\n")
    if regressions:
        sys.stderr.write(
            format_regressions(regressions, baseline_dir=args.compare) + "\n"
        )
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
