"""Tests for the paper-figure harness (suite, timing policy, reporting, table, runner, CLI)."""

import hashlib
import json
import pathlib
import re
import time

import numpy as np
import pytest

from repro.bench import runner
from repro.bench.__main__ import main
from repro.bench.experiments import EXPERIMENTS
from repro.bench.metrics import MIN_SAMPLE_SECONDS, SAMPLES, gflops_rate, time_callable
from repro.bench.reporting import geometric_mean, render_csv, render_table
from repro.bench.runner import run_experiments
from repro.bench.suite import build_suite, load_suite_matrix, small_suite
from repro.compiler.codegen.c_backend import c_compiler_available
from repro.compiler.options import SympilerOptions
from repro.compiler.sympiler import Sympiler

needs_cc = pytest.mark.skipif(not c_compiler_available("cc"), reason="no C compiler available")


class TestSuite:
    def test_full_suite_has_eleven_entries_like_table2(self):
        suite = build_suite()
        assert len(suite) == 11
        assert [e.problem_id for e in suite] == list(range(1, 12))
        names = {e.stands_in_for for e in suite}
        assert {"cbuckle", "ecology2", "tmt_sym", "Dubcova2"} <= names

    def test_small_suite_entries_build_quickly(self):
        for entry in small_suite():
            A = load_suite_matrix(entry)
            assert A.is_square()
            assert A.pattern_equal(A.transpose())

    def test_load_suite_matrix_applies_ordering(self):
        entry = small_suite()[1]  # mindeg-ordered entry
        unpermuted = load_suite_matrix(entry, permute=False)
        permuted = load_suite_matrix(entry, permute=True)
        assert permuted.nnz == unpermuted.nnz
        assert not np.array_equal(permuted.indices, unpermuted.indices)


class TestMetricsAndReporting:
    def test_time_callable_returns_median_and_result(self):
        calls = []

        def slow():
            calls.append(1)
            time.sleep(1.5 * MIN_SAMPLE_SECONDS)
            return "value"

        seconds, result = time_callable(slow)
        assert result == "value"
        assert seconds >= MIN_SAMPLE_SECONDS
        # One warm-up, then one call fills each sample.
        assert len(calls) == 1 + SAMPLES

    def test_time_callable_repeats_a_fast_call_within_a_sample(self):
        calls = []
        seconds, _ = time_callable(lambda: calls.append(1))
        # A call far below the sample floor is averaged over many repeats,
        # not timed once at the resolution of the clock.
        assert len(calls) > 10 * SAMPLES
        assert 0.0 < seconds < MIN_SAMPLE_SECONDS

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


@pytest.fixture(scope="module")
def bench_rows(tiny_suite):
    """Every experiment of the table, run once on the tiny suite."""
    return dict(run_experiments(list(EXPERIMENTS), tiny_suite))


def _matrix_rows(rows):
    return [r for r in rows if r["name"] != "geomean"]


@needs_cc
@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_rows_carry_the_columns_the_table_declares(name, bench_rows, tiny_suite):
    experiment = EXPERIMENTS[name]
    derived = experiment.derived
    rows = bench_rows[name]
    matrix_rows = _matrix_rows(rows)
    assert [r["name"] for r in matrix_rows] == [e.name for e in tiny_suite]
    variants = list(experiment.variants)
    baselines = list(experiment.baselines)
    timed = baselines + variants
    ratio_columns = []
    if "speedup" in derived:
        ratio_columns += [f"{v}_speedup_vs_{b}" for v in variants for b in baselines]
    if "relative" in derived:
        ratio_columns += [f"{v}_over_{variants[0]}" for v in variants[1:]]
    if "overheads" in derived:
        ratio_columns += [f"{v}_{part}_over_numeric" for v in variants for part in ("symbolic", "codegen")]
    if "normalized" in derived:
        ratio_columns += [f"{t}_{part}_normalized" for t in timed for part in ("numeric", "total")]
    for row in matrix_rows:
        assert row["n"] > 0 and row["nnz_A"] > 0
        assert all(row[f"{t}_seconds"] > 0 for t in timed)
        assert all(row[c] > 0 for c in ratio_columns)
        if "gflops" in derived:
            assert all(row[f"{t}_gflops"] > 0 for t in timed)
        if "normalized" in derived:
            # Figs. 8/9: every bar is normalised to the first baseline's
            # symbolic + numeric time, and adding a symbolic phase can only
            # lengthen a bar.
            assert row[f"{baselines[0]}_total_normalized"] == pytest.approx(1.0)
            assert all(row[f"{t}_total_normalized"] >= row[f"{t}_numeric_normalized"] for t in timed)
    if ratio_columns:
        geomean = rows[-1]
        assert geomean["name"] == "geomean"
        for column in ratio_columns:
            assert geomean[column] == pytest.approx(geometric_mean([r[column] for r in matrix_rows]))
    else:
        assert rows == matrix_rows


@needs_cc
class TestExperimentDrivers:
    """The paper's legends by their literal column names (the table cannot drop one silently)."""

    def test_table2_rows(self, bench_rows):
        rows = bench_rows["table2"]
        assert len(rows) == 2
        assert set(rows[0]) >= {"problem_id", "name", "n", "nnz_A", "ordering", "stands_in_for"}

    def test_fig6_rows_have_all_variants(self, bench_rows):
        for row in _matrix_rows(bench_rows["fig6"]):
            for key in (
                "scipy_gflops",
                "sympiler_vs_block_gflops",
                "sympiler_full_gflops",
                "sympiler_full_speedup_vs_scipy",
            ):
                assert row[key] > 0
            assert 0 < row["reach_size"] <= row["n"]

    def test_fig7_rows_have_all_variants(self, bench_rows):
        for row in _matrix_rows(bench_rows["fig7"]):
            for key in (
                "splu_gflops",
                "sympiler_vi_prune_gflops",
                "sympiler_full_gflops",
                "sympiler_full_speedup_vs_splu",
                "sympiler_full_over_sympiler_vi_prune",
            ):
                assert row[key] > 0

    def test_fig8_normalization(self, bench_rows):
        for row in _matrix_rows(bench_rows["fig8"]):
            assert row["sympiler_numeric_normalized"] > 0
            assert row["sympiler_total_normalized"] >= row["sympiler_numeric_normalized"]

    def test_fig9_normalization(self, bench_rows):
        for row in _matrix_rows(bench_rows["fig9"]):
            assert row["splu_total_normalized"] == pytest.approx(1.0)
            assert row["sympiler_total_normalized"] > 0

    def test_overhead_report(self, bench_rows):
        for row in _matrix_rows(bench_rows["overheads"]):
            assert row["tri_codegen_over_numeric"] > 0
            assert row["chol_symbolic_over_numeric"] > 0


def _program(artifact):
    """What one compile produced: its source, a digest of its table block and its compile record."""
    digest = hashlib.sha256()
    for name, table in artifact.constants.items():
        digest.update(name.encode() + b"\0" + table.tobytes() + b"\0")
    loop = artifact.loop
    record = {
        "applied": artifact.applied_transformations,
        "decisions": artifact.decisions,
        "loop": None if loop is None else [loop.role, loop.factor_kind],
    }
    return artifact.source, digest.hexdigest(), json.dumps(record, sort_keys=True)


@needs_cc
@pytest.mark.parametrize("name", [name for name, e in EXPERIMENTS.items() if len(e.variants) > 1])
def test_no_two_variants_of_an_experiment_compile_the_same_program(name, tiny_suite):
    """Two legends that compile the same code would time one program twice."""

    class Recording(Sympiler):
        def compile(self, kernel, matrix, options=None, **kernel_args):
            artifact = super().compile(kernel, matrix, options, **kernel_args)
            compiled.append(artifact)
            return artifact

    c_options = SympilerOptions(backend="c")
    for entry in tiny_suite:
        prep = runner.Prepared(entry)
        programs = {}
        for label, (kernel, overrides) in EXPERIMENTS[name].variants.items():
            compiled = []
            runner.KERNELS[kernel].compile(Recording(), prep, c_options.with_updates(**overrides))
            programs[label] = tuple(_program(artifact) for artifact in compiled)
        labels = list(programs)
        for i, first in enumerate(labels):
            for second in labels[i + 1 :]:
                assert programs[first] != programs[second], f"{name}: {first} and {second} on {entry.name}"


@needs_cc
def test_lu_experiment_rows(bench_rows):
    for row in _matrix_rows(bench_rows["lu"]):
        assert row["nnz_LU"] > row["nnz_J"] // 2
        assert row["lu_seconds"] > 0 and row["splu_seconds"] > 0


@needs_cc
def test_pcg_experiment_rows(bench_rows):
    for row in _matrix_rows(bench_rows["pcg"]):
        assert 0 < row["iterations"] < row["n"]
        assert row["pcg_seconds"] > 0 and row["scipy_cg_seconds"] > 0


@needs_cc
def test_c_backend_is_never_set_against_an_interpreted_baseline(bench_rows):
    native = {b for kernel in runner.KERNELS.values() for b in kernel.baselines}
    assert native == {"scipy", "splu", "scipy_cg"}
    removed = ("naive", "eigen", "cholmod", "reference", "interpreted")
    for name, rows in bench_rows.items():
        assert set(EXPERIMENTS[name].baselines) <= native
        for row in rows:
            for column in row:
                assert not any(column.startswith(f"{b}_") or column.endswith(f"_vs_{b}") for b in removed), (
                    f"{name}: column {column!r} names an interpreted baseline"
                )


@needs_cc
def test_a_wrong_answer_raises_instead_of_producing_a_row(tiny_suite, monkeypatch):
    from repro.compiler.artifacts import SympiledTriangularSolve

    honest = SympiledTriangularSolve.solve
    monkeypatch.setattr(SympiledTriangularSolve, "solve", lambda self, L, b, **kw: honest(self, L, b, **kw) + 1e-3)
    with pytest.raises(AssertionError, match="wrong answer"):
        dict(run_experiments(["fig6"], tiny_suite[:1]))


def test_c_backend_without_a_compiler_is_refused(tiny_suite, monkeypatch):
    monkeypatch.setattr(runner, "c_compiler_available", lambda compiler: False)
    with pytest.raises(RuntimeError, match="C compiler"):
        dict(run_experiments(["fig6"], tiny_suite[:1]))
    assert len(dict(run_experiments(["table2"], tiny_suite))["table2"]) == 2


def test_cli_table2_small(capsys):
    assert main(["table2", "--small"]) == 0
    out = capsys.readouterr().out
    assert "Table 2" in out
    assert main(["table2", "--small", "--csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("problem_id,")


def test_cli_json_report(tmp_path, capsys):
    assert main(["table2", "--small", "--json", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    path = tmp_path / "BENCH_table2.json"
    assert path.exists() and str(path) in out
    payload = json.loads(path.read_text())
    assert payload["experiment"] == "table2"
    assert payload["args"] == {"small": True}
    assert len(payload["rows"]) == 4


def test_cli_choices_are_the_table_and_the_readme_list(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    usage = re.sub(r"\s+", "", capsys.readouterr().out)
    expected = "{" + ",".join([*EXPERIMENTS, "all"]) + "}"
    assert expected in usage
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert f"python -m repro.bench {expected}" in readme


@pytest.mark.parametrize(
    "flag", [["--compare", "x"], ["--max-regression", "0.25"], ["--threads", "2"], ["--backend", "c"]]
)
def test_cli_rejects_the_removed_flags(flag, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["table2", "--small", *flag])
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
