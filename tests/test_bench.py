"""Tests for the benchmark harness (suite, metrics, reporting, drivers)."""

import numpy as np
import pytest

from repro.bench.figures import (
    fig6_triangular_performance,
    fig7_cholesky_performance,
    fig8_triangular_accumulated,
    fig9_cholesky_accumulated,
    intro_triangular_speedups,
    overhead_report,
    prepare,
    table2_suite_listing,
)
from repro.bench.metrics import gflops_rate, time_callable
from repro.bench.reporting import geometric_mean, render_csv, render_table
from repro.bench.suite import build_suite, load_suite_matrix, small_suite
from repro.sparse.utils import is_symmetric_pattern


class TestSuite:
    def test_full_suite_has_eleven_entries_like_table2(self):
        suite = build_suite()
        assert len(suite) == 11
        assert [e.problem_id for e in suite] == list(range(1, 12))
        names = {e.stands_in_for for e in suite}
        assert {"cbuckle", "ecology2", "tmt_sym", "Dubcova2"} <= names

    def test_small_suite_entries_build_quickly(self):
        for entry in small_suite():
            A = load_suite_matrix(entry, cache=False)
            assert A.is_square()
            assert is_symmetric_pattern(A)

    def test_load_suite_matrix_applies_ordering_and_caches(self):
        entry = small_suite()[1]  # mindeg-ordered entry
        unpermuted = load_suite_matrix(entry, permute=False, cache=False)
        permuted = load_suite_matrix(entry, permute=True)
        assert permuted.nnz == unpermuted.nnz
        again = load_suite_matrix(entry, permute=True)
        assert again is permuted  # cached object


class TestMetricsAndReporting:
    def test_time_callable_returns_median_and_result(self):
        calls = []

        def fn():
            calls.append(1)
            return "value"

        seconds, result = time_callable(fn, repeats=3, warmup=1)
        assert result == "value"
        assert seconds >= 0.0
        assert len(calls) == 4

    def test_time_callable_validation(self):
        with pytest.raises(ValueError):
            time_callable(lambda: None, repeats=0)

    def test_gflops_rate(self):
        assert gflops_rate(3_000_000_000, 1.5) == pytest.approx(2.0)
        assert gflops_rate(1, 0.0) == float("inf")

    def test_render_table_and_csv(self):
        rows = [{"name": "a", "value": 1.5}, {"name": "b", "value": 2.0}]
        table = render_table(rows, title="demo")
        assert "demo" in table and "name" in table and "1.500" in table
        csv = render_csv(rows)
        assert csv.splitlines()[0] == "name,value"
        assert render_table([]) == "(no rows)\n"
        assert render_csv([]) == ""

    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert np.isnan(geometric_mean([]))


@pytest.fixture(scope="module")
def tiny_suite():
    return small_suite()[:2]


class TestExperimentDrivers:
    def test_table2_rows(self, tiny_suite):
        rows = table2_suite_listing(tiny_suite)
        assert len(rows) == 2
        assert set(rows[0]) >= {"problem_id", "name", "n", "nnz_A", "ordering"}

    def test_prepare_caches_artifacts(self, tiny_suite):
        first = prepare(tiny_suite[0])
        second = prepare(tiny_suite[0])
        assert first is second
        assert first.L.is_lower_triangular()
        assert np.count_nonzero(first.b) >= 1

    def test_fig6_rows_have_all_variants(self, tiny_suite):
        rows = fig6_triangular_performance(tiny_suite, repeats=1)
        matrix_rows = [r for r in rows if r["name"] != "geomean"]
        assert len(matrix_rows) == len(tiny_suite)
        for row in matrix_rows:
            for key in (
                "eigen_gflops",
                "sympiler_vs_block_gflops",
                "sympiler_vs_vi_gflops",
                "sympiler_full_gflops",
                "sympiler_full_speedup_vs_eigen",
            ):
                assert key in row and row[key] > 0

    def test_fig7_rows_have_all_variants(self, tiny_suite):
        rows = fig7_cholesky_performance(tiny_suite, repeats=1)
        matrix_rows = [r for r in rows if r["name"] != "geomean"]
        for row in matrix_rows:
            for key in (
                "eigen_gflops",
                "cholmod_gflops",
                "sympiler_vs_block_gflops",
                "sympiler_full_gflops",
            ):
                assert key in row and row[key] > 0

    def test_fig8_normalization(self, tiny_suite):
        rows = fig8_triangular_accumulated(tiny_suite, repeats=1)
        for row in rows:
            assert row["sympiler_numeric_normalized"] > 0
            assert row["sympiler_accumulated_normalized"] >= row["sympiler_numeric_normalized"]

    def test_fig9_normalization(self, tiny_suite):
        rows = fig9_cholesky_accumulated(tiny_suite, repeats=1)
        for row in rows:
            assert row["eigen_total_normalized"] == pytest.approx(1.0)
            assert row["sympiler_total_normalized"] > 0
            assert row["cholmod_total_normalized"] > 0

    def test_intro_speedups(self, tiny_suite):
        rows = intro_triangular_speedups(tiny_suite, repeats=1)
        matrix_rows = [r for r in rows if r["name"] != "geomean"]
        for row in matrix_rows:
            # The specialized solve must beat the naive full-column solve.
            assert row["speedup_vs_naive"] > 1.0

    def test_overhead_report(self, tiny_suite):
        rows = overhead_report(tiny_suite)
        for row in rows:
            assert row["tri_codegen_over_numeric"] > 0
            assert row["chol_symbolic_over_numeric"] > 0


def test_cli_table2_small(capsys):
    from repro.bench.__main__ import main

    assert main(["table2", "--small"]) == 0
    out = capsys.readouterr().out
    assert "Table 2" in out
    assert main(["table2", "--small", "--csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("problem_id,")


def test_lu_experiment_rows(tmp_path):
    from repro.bench.figures import lu_performance
    from repro.bench.suite import small_suite

    rows = lu_performance(small_suite()[:2], repeats=1)
    assert len(rows) == 2
    for row in rows:
        assert row["residual"] <= 1e-8
        assert row["recompile_cache_hit"] is True
        assert row["nnz_LU"] > row["nnz_A"] // 2


def test_batched_experiment_rows():
    from repro.bench.figures import batched_throughput
    from repro.bench.suite import small_suite

    rows = batched_throughput(small_suite()[:1], repeats=1, batch=4)
    assert len(rows) == 1
    row = rows[0]
    assert row["bitwise_identical"] is True
    assert row["batch_recompiles"] == 0
    assert row["mode"] in ("serial", "threads")
    assert row["batched_items_per_second"] > 0
    assert row["schedule_levels"] >= 1
    assert row["schedule_avg_width"] >= 1.0


def test_cli_batched_accepts_threads(tmp_path, capsys):
    import json

    from repro.bench.__main__ import main

    assert (
        main(["batched", "--small", "--threads", "1", "--json", str(tmp_path)]) == 0
    )
    capsys.readouterr()
    payload = json.loads((tmp_path / "BENCH_batched.json").read_text())
    assert payload["args"]["threads"] == 1
    assert all(r["batch_recompiles"] == 0 for r in payload["rows"])
    assert all(r["bitwise_identical"] for r in payload["rows"])


def test_cli_json_report(tmp_path, capsys):
    import json

    from repro.bench.__main__ import main

    assert main(["table2", "--small", "--json", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    path = tmp_path / "BENCH_table2.json"
    assert path.exists() and str(path) in out
    payload = json.loads(path.read_text())
    assert payload["experiment"] == "table2"
    assert payload["args"]["small"] is True
    assert len(payload["rows"]) == 4


def test_serving_experiment_rows():
    from repro.bench.figures import serving_throughput
    from repro.bench.suite import small_suite

    rows = serving_throughput(small_suite()[:1], requests=8, max_batch=4)
    assert len(rows) == 1
    row = rows[0]
    assert row["bitwise_identical"] is True
    assert row["serving_recompiles"] == 0
    assert row["reregister_warm"] is True
    assert row["requests"] == 8
    # Submit-all-then-wait traffic must actually coalesce.
    assert row["coalescing_ratio"] > 1.0
    assert row["max_batch_observed"] <= 4
    assert row["requests_per_second"] > 0


def test_serving_gated_metrics_catch_regressions():
    from repro.bench.compare import compare_rows

    baseline = [
        {
            "name": "m",
            "bitwise_identical": True,
            "reregister_warm": True,
            "serving_recompiles": 0,
            "coalesced_over_uncoalesced": 4.0,
            "coalescing_ratio": 16.0,
        }
    ]
    ok = [dict(baseline[0])]
    assert compare_rows("serving", baseline, ok) == []
    broken = dict(
        baseline[0],
        bitwise_identical=False,
        serving_recompiles=3,
        coalesced_over_uncoalesced=0.9,
        coalescing_ratio=1.0,
    )
    found = compare_rows("serving", baseline, [broken])
    metrics = {r.metric for r in found}
    assert metrics == {
        "bitwise_identical",
        "serving_recompiles",
        "coalescing_ratio",
    }


def test_pcg_experiment_rows():
    from repro.bench.figures import pcg_performance
    from repro.bench.suite import small_suite

    rows = pcg_performance(small_suite()[:2], repeats=1)
    assert len(rows) == 2
    for row in rows:
        assert row["converged"] is True
        assert row["bitwise_identical"] is True
        assert row["final_residual"] <= 1e-8
        # The preconditioner must actually help.
        assert row["iterations"] < row["plain_cg_iterations"]
        assert row["compiled_seconds"] > 0


class TestPerfGateComparator:
    """The bench-compare step must fail on an injected synthetic regression."""

    @staticmethod
    def _rows(**overrides):
        row = {
            "name": "t_fem",
            "converged": True,
            "bitwise_identical": True,
            "iterations": 10,
            "final_residual": 1e-9,
        }
        row.update(overrides)
        return [row]

    def test_identical_rows_pass(self):
        from repro.bench.compare import compare_rows

        base = self._rows()
        assert compare_rows("pcg", base, self._rows()) == []

    def test_injected_iteration_regression_fails(self):
        from repro.bench.compare import compare_rows, format_regressions

        base = self._rows()
        worse = self._rows(iterations=14)  # > 25 % more iterations
        found = compare_rows("pcg", base, worse, max_regression=0.25)
        assert len(found) == 1
        assert found[0].metric == "iterations" and found[0].current == 14
        report = format_regressions(found)
        assert "iterations" in report and "benchmarks/baselines" in report

    def test_regression_within_allowance_passes(self):
        from repro.bench.compare import compare_rows

        base = self._rows()
        slightly_worse = self._rows(iterations=12)  # 20 % < 25 %
        assert compare_rows("pcg", base, slightly_worse, max_regression=0.25) == []

    def test_boolean_flip_fails_regardless_of_allowance(self):
        from repro.bench.compare import compare_rows

        base = self._rows()
        flipped = self._rows(bitwise_identical=False)
        found = compare_rows("pcg", base, flipped, max_regression=10.0)
        assert [r.metric for r in found] == ["bitwise_identical"]

    def test_zero_baseline_counter_tolerates_no_increase(self):
        from repro.bench.compare import compare_rows

        base = [{"name": "t_grid", "batch_recompiles": 0, "bitwise_identical": True, "schedule_levels": 5}]
        current = [{"name": "t_grid", "batch_recompiles": 1, "bitwise_identical": True, "schedule_levels": 5}]
        found = compare_rows("batched", base, current)
        assert [r.metric for r in found] == ["batch_recompiles"]

    def test_higher_direction_metric(self):
        from repro.bench.compare import GatedMetric, _metric_regressed

        metric = GatedMetric("speedup", "higher")
        assert _metric_regressed(metric, 2.0, 1.0, 0.25) is True
        assert _metric_regressed(metric, 2.0, 1.9, 0.25) is False

    def test_noise_allowance_absorbs_jitter_but_not_real_regressions(self):
        from repro.bench.compare import GatedMetric, _metric_regressed

        ratio = GatedMetric("ldlt_over_cholesky", "lower", noise=0.5)
        # Timing jitter around a ~1.1 baseline stays under the gate ...
        assert _metric_regressed(ratio, 1.0, 1.3, 0.25) is False
        assert _metric_regressed(ratio, 1.0, 1.74, 0.25) is False
        # ... a genuine 2x slowdown of the gated kernel does not.
        assert _metric_regressed(ratio, 1.0, 2.2, 0.25) is True

    def test_unmatched_rows_and_metrics_are_skipped(self):
        from repro.bench.compare import compare_rows

        base = self._rows()
        new_matrix = [dict(self._rows()[0], name="brand_new")]
        assert compare_rows("pcg", base, new_matrix) == []
        missing_metric = [{"name": "t_fem", "converged": True}]
        assert compare_rows("pcg", base, missing_metric) == []

    def test_non_numeric_values_never_gate(self):
        from repro.bench.compare import compare_rows

        base = self._rows(iterations="-")  # geomean-style placeholder
        current = self._rows(iterations=1000)
        assert compare_rows("pcg", base, current) == []

    def test_experiment_without_gate_passes(self):
        from repro.bench.compare import compare_rows

        assert compare_rows("table2", [{"name": "a", "n": 4}], [{"name": "a", "n": 9}]) == []

    def test_missing_baseline_file_skips_gate(self, tmp_path):
        from repro.bench.compare import load_baseline

        assert load_baseline(str(tmp_path), "pcg") is None


def test_cli_compare_gate(tmp_path, capsys):
    import json

    from repro.bench.__main__ import main

    baseline_dir = tmp_path / "baselines"
    # First run writes the baseline; a second identical run passes the gate.
    assert main(["pcg", "--small", "--json", str(baseline_dir)]) == 0
    capsys.readouterr()
    assert main(["pcg", "--small", "--compare", str(baseline_dir)]) == 0
    out = capsys.readouterr().out
    assert "perf gate" in out and "ok" in out
    # Injected synthetic regression: corrupt the baseline so the current run
    # looks 10x worse on a gated counter -> the CLI must exit nonzero.
    path = baseline_dir / "BENCH_pcg.json"
    payload = json.loads(path.read_text())
    for row in payload["rows"]:
        row["iterations"] = max(1, row["iterations"] // 10)
    path.write_text(json.dumps(payload))
    assert main(["pcg", "--small", "--compare", str(baseline_dir)]) == 3
    captured = capsys.readouterr()
    assert "regression" in captured.err
    # A directory without a snapshot skips the gate instead of failing.
    assert main(["table2", "--small", "--compare", str(baseline_dir)]) == 0
