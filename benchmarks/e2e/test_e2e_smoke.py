"""Smoke test of the e2e benchmark harness (python backend, n ~ 200).

Checks the harness, not the numbers: output schema, metric names against
``BENCHMARK.json``, seeded inputs, span nesting of the traced run, and that a
wrong answer is counted as a failed operation.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from e2elib import spans, workloads  # noqa: E402
from e2elib.checks import Checker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def results():
    """One smoke run per workload, plus a traced one, started side by side."""
    keys = [(name, 0) for name in workloads.NAMES] + [("newton_2d", 1)]
    procs = {
        (name, trace): subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--smoke", "--workload", name,
             "--seed", "3", "--seconds", "0.3", "--trace", str(trace)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT,
        )
        for name, trace in keys
    }
    out = {}
    for key, proc in procs.items():
        stdout, stderr = proc.communicate(timeout=170)
        assert proc.returncode == 0, f"{key}: {stdout[-2000:]}{stderr[-2000:]}"
        out[key] = json.loads(stdout.strip().splitlines()[-1])
    return out


def _check_result(result: dict, declared: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in declared}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert math.isfinite(metric["value"]), name


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke_end_to_end(results, workload):
    result = results[(workload, 0)]
    _check_result(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_per_layer_and_trace(results):
    result = results[("newton_2d", 1)]
    _check_result(result, SPEC["per_layer"])
    trace = json.loads((HERE / "out" / "trace_newton_2d.json").read_text())
    events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    bench = [e for e in events if e["cat"] == "bench"]
    assert spans.nesting_errors(events) == []
    assert {e["pid"] for e in bench} == {1, 2}
    assert any(e["cat"] == "repro" for e in events), "the program's own spans are missing"
    # Every call into a layer hangs under a step, and a step id names one step.
    layer_calls = [e for e in bench if e["name"].split(".")[0] in
                   ("kernels", "compiler", "sparse", "solvers", "frontend", "service", "baseline")]
    assert layer_calls and all("step" in e["args"] and "parent_id" in e["args"] for e in layer_calls)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_same_seed_gives_byte_identical_inputs(workload):
    assert workloads.input_digest(workload, 7, smoke=True) == workloads.input_digest(workload, 7, smoke=True)
    assert workloads.input_digest(workload, 7, smoke=True) != workloads.input_digest(workload, 8, smoke=True)


def test_wrong_answer_counts_as_failed_operation():
    A = sp.csc_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
    b = np.array([1.0, 2.0])
    x = np.linalg.solve(A.toarray(), b)
    checker = Checker()
    assert checker.answer("exact", A, x, b, x_ref=x)
    assert checker.failed == 0
    assert not checker.answer("perturbed", A, x * (1 + 1e-6), b)
    assert not checker.answer("not finite", A, x * np.nan, b)
    # Small residual but far from the independent splu solution.
    assert not checker.answer("cross-check", A, x, b, x_ref=x * (1 + 1e-6))
    checker.raised("timeout", TimeoutError("no reply"))
    checker.expect("recompiled", False)
    assert (checker.attempted, checker.failed) == (6, 5)
    assert checker.max_rel_residual > 1e-9
