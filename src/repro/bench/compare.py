"""Perf-gate comparator: current bench rows vs. committed baseline snapshots.

CI uploads ``BENCH_<experiment>.json`` artifacts per PR, but an artifact
nobody diffs gates nothing — speedups proven in earlier PRs could silently
regress.  This module turns the trajectory into a gate: baselines live in the
repo (``benchmarks/baselines/``), and ``python -m repro.bench <experiment>
--compare <baseline-dir> --max-regression 0.25`` fails the run when a gated
metric regresses beyond the allowed fraction.

What is gated (:data:`GATED_METRICS`) is chosen to be machine-portable —
booleans that must never flip (cache hits, bitwise identity, convergence),
deterministic counters (iteration counts, recompiles, schedule depth) and
same-run timing *ratios* (e.g. ``ldlt_over_cholesky``, both sides measured on
the same backend in the same process) — never raw wall-clock seconds, which
only compare within one machine.  Directions:

* ``higher`` — regression when ``current < baseline * (1 - max_regression)``,
* ``lower``  — regression when ``current > baseline * (1 + max_regression)``
  (a zero baseline, e.g. ``batch_recompiles``, regresses on any increase),
* ``bool``   — regression when a true baseline turns false.

Rows are matched by their ``name`` field; rows or metrics absent from the
baseline are skipped (new matrices and new columns never fail the gate), and
a missing baseline *file* skips the experiment entirely so brand-new
experiments can land before their first snapshot.  Refreshing a baseline is
deliberate and explicit: re-run the experiment with ``--json
benchmarks/baselines`` and commit the diff.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "GatedMetric",
    "GATED_METRICS",
    "Regression",
    "compare_rows",
    "compare_payloads",
    "baseline_path",
    "load_baseline",
    "format_regressions",
]


@dataclass(frozen=True)
class GatedMetric:
    """One gated metric of an experiment.

    ``noise`` is an *absolute* allowance added on top of the multiplicative
    one, for metrics with a measured noise floor (sub-millisecond timing
    ratios on the smoke matrices fluctuate ~±20 % run to run; the gate must
    catch a genuine 2× regression without flaking on scheduler jitter).
    Deterministic metrics keep ``noise=0.0``.
    """

    key: str
    direction: str  # "higher", "lower" or "bool"
    noise: float = 0.0

    def __post_init__(self) -> None:
        if self.direction not in ("higher", "lower", "bool"):
            raise ValueError(f"unknown direction {self.direction!r}")


#: The gate, per experiment.  Only machine-portable metrics belong here — see
#: the module docstring for the selection rationale.
GATED_METRICS: Dict[str, Tuple[GatedMetric, ...]] = {
    "ldlt": (
        GatedMetric("recompile_cache_hit", "bool"),
        # Same-run ratio of two python-backend kernels; the absolute noise
        # allowance absorbs sub-ms jitter while still failing a genuine
        # LDLT-emitter slowdown (ratio sits near 1.1, a real regression
        # lands at 2+).
        GatedMetric("ldlt_over_cholesky", "lower", noise=0.5),
    ),
    "lu": (
        GatedMetric("recompile_cache_hit", "bool"),
        # Deterministic per machine; the noise floor only forgives BLAS
        # summation-order differences across runner CPU generations.
        GatedMetric("residual", "lower", noise=1e-9),
    ),
    "batched": (
        GatedMetric("bitwise_identical", "bool"),
        GatedMetric("batch_recompiles", "lower"),
        GatedMetric("schedule_levels", "lower"),
    ),
    "pcg": (
        GatedMetric("converged", "bool"),
        GatedMetric("bitwise_identical", "bool"),
        GatedMetric("iterations", "lower"),
    ),
    "serving": (
        GatedMetric("bitwise_identical", "bool"),
        GatedMetric("reregister_warm", "bool"),
        # Kernels regenerated while serving warmed-up traffic: a zero
        # baseline tolerates no increase.
        GatedMetric("serving_recompiles", "lower"),
        # Deterministic given the submit-all-then-wait workload shape: full
        # micro-batches of max_batch; the allowance forgives partial
        # trailing batches, not a collapse to singleton dispatch.
        GatedMetric("coalescing_ratio", "higher", noise=4.0),
    ),
    "wavefront": (
        GatedMetric("bitwise_identical", "bool"),
        GatedMetric("zero_recompiles", "bool"),
        # True on the deep-etree row (the backend must keep declining
        # wavefront codegen there); False baselines on the wide rows never
        # gate, by the bool rule.
        GatedMetric("serial_fallback", "bool"),
        # Same-run serial/wavefront ratio at a pinned 2 threads — portable
        # as a ratio, but its magnitude tracks the runner's core count; the
        # noise floor keeps a 1-core baseline from failing multi-core
        # runners (and vice versa) while still catching a collapse.  The
        # absolute > 1.2 speedup assertion lives in the CI wavefront smoke
        # step, which runs on a known multi-core runner.
        GatedMetric("speedup_2threads", "higher", noise=0.5),
    ),
    "frontend": (
        GatedMetric("bitwise_identical", "bool"),
        GatedMetric("zero_recompiles", "bool"),
        # Deterministic: warm calls must never re-specialize; the zero
        # baseline tolerates no increase.
        GatedMetric("warm_specializations", "lower"),
        # Same-run ratio of the warm front-end solve over scipy's spsolve on
        # the identical system.  Its magnitude is backend-bound (python
        # kernels vs scipy's C), so it gates only against its own baseline,
        # with a wide noise floor for sub-ms smoke-size jitter; a genuine
        # warm-path regression (accidental re-probe/re-inspect) shifts it by
        # integer factors.
        GatedMetric("warm_over_spsolve", "lower", noise=2.0),
    ),
    "observe": (
        # The enabled path must keep exercising the export surface end to
        # end (per-phase breakdown and Chrome trace both populated).
        GatedMetric("breakdown_has_phases", "bool"),
        GatedMetric("trace_nonempty", "bool"),
        # The dormant-instrumentation cost of one warm solve, in percent.
        # It sits well under 0.1 today; the absolute allowance keeps
        # nanosecond-scale span-check jitter from flaking the gate while a
        # genuine disabled-path regression (an allocation or a lock on the
        # no-op path) lands at whole percents.  The absolute < 3 % ceiling
        # is asserted in the CI observe step.
        GatedMetric("disabled_overhead_pct", "lower", noise=2.0),
        # Same contract across the service wire: spans opened by one remote
        # solve (client + server side) priced at the disabled-span cost
        # against the warm wire round-trip.  The wire adds latency headroom,
        # so this sits even lower than the in-process figure; the same
        # absolute allowance covers timing jitter.
        GatedMetric("remote_span_overhead_pct", "lower", noise=2.0),
    ),
    "fleet": (
        GatedMetric("all_complete", "bool"),
        GatedMetric("solutions_ok", "bool"),
        GatedMetric("reregister_warm", "bool"),
        # Cold re-registrations after shard death: a zero baseline tolerates
        # no increase (the warm-failover guarantee).
        GatedMetric("failover_recompiles", "lower"),
        # Same-run ratio, pipelined submits vs lock-step solves on one
        # connection.  The win holds even on one core (the lock-step client
        # waits out the coalescing window for a batch of one, per request);
        # the noise floor absorbs scheduler jitter on the sub-second
        # workload without forgiving a collapse to parity.
        GatedMetric("pipelined_over_roundtrip", "higher", noise=0.5),
        # Same-run 2-shard/1-shard throughput ratio.  Its magnitude tracks
        # the runner's core count (~1.0 on one core, >1.3 on two-plus), so
        # it gates only against the runner's own baseline; the absolute
        # multi-core assertion lives in the CI fleet step.
        GatedMetric("two_shards_over_one", "higher", noise=0.6),
    ),
}


@dataclass(frozen=True)
class Regression:
    """One gated metric that moved the wrong way."""

    experiment: str
    row: str
    metric: str
    direction: str
    baseline: object
    current: object
    limit: float

    def __str__(self) -> str:
        return (
            f"[{self.experiment}/{self.row}] {self.metric}: "
            f"baseline={self.baseline!r} current={self.current!r} "
            f"(direction={self.direction}, max_regression={self.limit:.0%})"
        )


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _metric_regressed(
    metric: GatedMetric, baseline: object, current: object, max_regression: float
) -> bool:
    """True when ``current`` regresses from ``baseline`` beyond the allowance."""
    if metric.direction == "bool":
        return bool(baseline) and not bool(current)
    if not (_is_number(baseline) and _is_number(current)):
        return False  # non-numeric (or non-finite) values never gate
    if metric.direction == "higher":
        return current < baseline * (1.0 - max_regression) - metric.noise
    # direction == "lower": a zero/negative baseline tolerates no increase
    # beyond the noise floor (the multiplicative allowance is vacuous there).
    if baseline <= 0.0:
        return current > baseline + metric.noise
    return current > baseline * (1.0 + max_regression) + metric.noise


def compare_rows(
    experiment: str,
    baseline_rows: Sequence[Dict],
    current_rows: Sequence[Dict],
    *,
    max_regression: float = 0.25,
) -> List[Regression]:
    """Compare two row lists of one experiment; return the regressions.

    Rows are matched by ``name``; unmatched rows and metrics missing from
    either side are skipped.  Experiments with no gated metrics return no
    regressions.
    """
    metrics = GATED_METRICS.get(experiment, ())
    if not metrics:
        return []
    baseline_by_name = {
        str(row.get("name")): row for row in baseline_rows if row.get("name")
    }
    regressions: List[Regression] = []
    for row in current_rows:
        name = str(row.get("name"))
        base = baseline_by_name.get(name)
        if base is None:
            continue
        for metric in metrics:
            if metric.key not in base or metric.key not in row:
                continue
            if _metric_regressed(metric, base[metric.key], row[metric.key], max_regression):
                regressions.append(
                    Regression(
                        experiment=experiment,
                        row=name,
                        metric=metric.key,
                        direction=metric.direction,
                        baseline=base[metric.key],
                        current=row[metric.key],
                        limit=max_regression,
                    )
                )
    return regressions


def compare_payloads(
    baseline_payload: Dict,
    current_payload: Dict,
    *,
    max_regression: float = 0.25,
) -> List[Regression]:
    """Compare two ``BENCH_<experiment>.json`` payloads."""
    experiment = current_payload.get("experiment", "")
    return compare_rows(
        experiment,
        baseline_payload.get("rows", []),
        current_payload.get("rows", []),
        max_regression=max_regression,
    )


def baseline_path(directory: str, experiment: str) -> str:
    """Path of an experiment's baseline snapshot inside ``directory``."""
    return os.path.join(directory, f"BENCH_{experiment}.json")


def load_baseline(directory: str, experiment: str) -> Optional[Dict]:
    """Load a baseline payload, or ``None`` when no snapshot exists yet."""
    path = baseline_path(directory, experiment)
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def format_regressions(
    regressions: Sequence[Regression], *, baseline_dir: str = "benchmarks/baselines"
) -> str:
    """Human-readable multi-line report of a regression list.

    ``baseline_dir`` is the directory that was actually compared, so the
    refresh hint points at the right snapshots.
    """
    lines = [f"perf gate: {len(regressions)} regression(s) against the baseline"]
    lines.extend(f"  - {r}" for r in regressions)
    lines.append(
        "  (intentional? refresh the snapshot: re-run with "
        f"--json {baseline_dir} and commit the diff)"
    )
    return "\n".join(lines)
