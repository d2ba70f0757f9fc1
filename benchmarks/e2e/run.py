#!/usr/bin/env python3
"""The layered end-to-end benchmark.  One command, four workloads.

    python3 benchmarks/e2e/run.py --workload newton_2d --seed 1 --seconds 10 --trace 0

generates every input from the seed, runs the workload against the package
under ``src/`` through its public entry points only, verifies every answer
against scipy, and prints every metric by name; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``, ``--trace
1`` the per-layer ones and writes ``out/trace_<workload>.json``.

Every run starts from an empty temporary ``REPRO_SYMPILER_CACHE`` inside
``benchmarks/e2e/out/`` and uses two fresh processes: one pays the cold
set-up, the next starts on the now-populated disk cache and measures.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
SRC = ROOT / "src"
sys.path[:0] = [str(HERE), str(SRC)]

#: Seconds one phase process may take before the run is abandoned.
PHASE_TIMEOUT = 170.0
DEFAULT_SEED = 1


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# --------------------------------------------------------------------------- #
# Phase processes
# --------------------------------------------------------------------------- #
def _phase_main(args) -> int:
    """Body of one phase process: run it, leave the result in ``--result``."""
    from e2elib import phases, workloads

    workload = workloads.get(args.workload, args.smoke)
    trace = bool(args.trace)
    if args.phase == "setup":
        result = phases.setup(workload, args.seed, args.smoke, trace)
    else:
        result = phases.measure(workload, args.seed, args.seconds, args.smoke, trace)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _run_phase(phase: str, args, work: Path, env: dict) -> dict:
    result = work / f"{phase}.json"
    command = [
        sys.executable, str(HERE / "run.py"), "--phase", phase, "--result", str(result),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--smoke"] if args.smoke else [])
    # Its own session, so a timeout can take `cc` and fleet workers down too.
    process = subprocess.Popen(command, env=env, cwd=ROOT, start_new_session=True)
    try:
        code = process.wait(timeout=PHASE_TIMEOUT)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    if code != 0:
        reason = "timed out" if code is None else f"exited with code {code}"
        raise SystemExit(f"e2e: the {phase} phase of {args.workload} {reason}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def _warm_compiler(work: Path, env: dict) -> None:
    """One throw-away tiny compile, so the compiler binary is in the page cache."""
    cc = os.environ.get("REPRO_CC", "cc")
    if shutil.which(cc) is None:
        raise SystemExit(f"e2e: C compiler {cc!r} not found; the benchmark measures the C backend")
    source = work / "warm.c"
    source.write_text("int warm(int x) { return x + 1; }\n")
    flags = os.environ.get("REPRO_CFLAGS", "-O3 -march=native -fPIC -shared").split()
    subprocess.run([cc, *flags, str(source), "-o", str(work / "warm.so")],
                   check=True, env=env, timeout=120)


def _cache_listing(cache: Path) -> dict:
    files = [p for p in cache.rglob("*") if p.is_file()]
    sizes = {p: p.stat().st_size for p in files}
    return {
        "bytes": sum(sizes.values()),
        "so_bytes": sum(size for p, size in sizes.items() if p.suffix == ".so"),
        "files": len(files),
    }


# --------------------------------------------------------------------------- #
# One workload, one run
# --------------------------------------------------------------------------- #
def run_workload(args) -> dict:
    from e2elib import spans
    from e2elib.checks import Checker

    spec = _spec()
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    work = OUT / f"work-{os.getpid()}-{args.workload}"
    shutil.rmtree(work, ignore_errors=True)
    cache, tmp = work / "cache", work / "tmp"
    cache.mkdir(parents=True)
    tmp.mkdir()
    env = dict(os.environ, REPRO_SYMPILER_CACHE=str(cache), TMPDIR=str(tmp))
    env.pop("REPRO_NUM_THREADS", None)
    try:
        if not args.smoke:
            _warm_compiler(work, env)
        setup = _run_phase("setup", args, work, env)
        listing = _cache_listing(cache)
        measure = _run_phase("measure", args, work, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checker = Checker()
    checker.merge(setup["checks"])
    checker.merge(measure["checks"])
    if args.trace:
        values = {**setup["layer"], **measure["layer"]}
        values["compiler.so_bytes"] = listing["so_bytes"]
        values["compiler.cache_files"] = listing["files"]
        values["machine.cpu_count"] = os.cpu_count() or 1
        events = setup["events"] + measure["events"]
        for error in spans.nesting_errors(events):
            checker.expect(error, False)
        trace_path = OUT / f"trace_{args.workload}.json"
        spans.write_chrome_trace(trace_path, events, {1: "set-up (cold)", 2: "measure (disk-warm)"})
        values["check.max_rel_residual"] = checker.max_rel_residual
    else:
        values = {**setup["metrics"], **measure["metrics"]}
        values["generated_code_bytes"] = listing["bytes"]
    if set(values) != set(units):
        raise SystemExit(
            "e2e: measured metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(units) - set(values))}, extra {sorted(set(values) - set(units))}"
        )

    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    raw = dict(measure["raw"], setup_s=setup["metrics"]["setup_s"])
    _print_report(args, result, raw, measure["summaries"], checker)
    if args.trace:
        print(f"trace: {trace_path.relative_to(ROOT)} (open in chrome://tracing or ui.perfetto.dev)")
    if args.out:
        record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                      smoke=args.smoke, seconds=args.seconds, raw=raw)
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    return result


def _print_report(args, result: dict, raw: dict, summaries: dict, checker) -> None:
    kind = "per-layer (traced)" if args.trace else "end-to-end (tracing off)"
    print(f"== {args.workload}  seed={args.seed}  seconds={args.seconds:g}  {kind}"
          + ("  SMOKE: python backend, tiny sizes" if args.smoke else ""))
    width = max(len(name) for name in result["metrics"])
    for name, metric in result["metrics"].items():
        print(f"  {name:<{width}}  {metric['value']:>14.6g} {metric['unit']}")
    print("  raw timings of this run (machine-speed dependent; not bounded): "
          + "  ".join(f"{name}={value:.5g}" for name, value in raw.items()))
    for kind, s in sorted(summaries.items()):
        print(f"  samples {kind:<14} n={s['n']:<5d} median={s['median']:.4g} ms"
              f"  q1={s['q1']:.4g}  q3={s['q3']:.4g}")
    print(f"  operations attempted={checker.attempted} failed={checker.failed}"
          f"  failure_rate={checker.failed / max(checker.attempted, 1):.3g}"
          f"  max_rel_residual={checker.max_rel_residual:.3e}")
    for note in checker.notes:
        print(f"  FAILED: {note}")


def main(argv=None) -> int:
    from_spec = _spec() if (ROOT / "BENCHMARK.json").exists() else {}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all four, one after another)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=from_spec.get("run_seconds", 10))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="python backend and tiny matrices: checks the harness, measures nothing")
    parser.add_argument("--out", help="append one JSON record per run (input of compare.py)")
    parser.add_argument("--phase", choices=("setup", "measure"), help=argparse.SUPPRESS)
    parser.add_argument("--result", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        raise SystemExit(f"e2e: the package under test is missing ({SRC / 'repro'})")
    if args.phase:
        return _phase_main(args)

    from e2elib import workloads

    names = [args.workload] if args.workload else list(workloads.NAMES)
    if args.workload and args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; expected one of {workloads.NAMES}")
    correct = True
    for name in names:
        args.workload = name
        result = run_workload(args)
        # The driver reads the last line of standard output.
        print(json.dumps(result), flush=True)
        correct = correct and result["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
