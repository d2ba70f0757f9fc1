"""Tests for the cold/warm cache probe backing the CI zero-recompile check."""

import json
import os
import subprocess
import sys

import pytest

from repro.compiler.cache_probe import main, run_probe
from repro.compiler.codegen.c_backend import c_compiler_available

needs_cc = pytest.mark.skipif(
    not c_compiler_available("cc"), reason="no C compiler available"
)


def test_probe_python_backend_reports_workload(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_SYMPILER_CACHE", str(tmp_path))
    report = run_probe(backend="python")
    assert report["backend"] == "python"
    assert all(report["workload"].values())
    # The python backend never invokes the C toolchain...
    assert report["so_compiles"] == 0 and report["so_reuses"] == 0
    # ...and leaves one text per reference kernel that ran, nothing else.
    left = sorted(p.name for p in tmp_path.iterdir())
    assert report["py_writes"] == len(left) and "py_reuses" not in report
    # cholesky (both loops), ldlt, lu, ic0, ilu0 and the triangular solve.
    assert len(left) == 7 and all(name.endswith(".py") and "_py_" in name for name in left)
    assert sum((tmp_path / name).stat().st_size for name in left) == report["source_bytes"]
    # Second probe in the same cache directory: nothing is written.
    warm = run_probe(backend="python")
    assert warm["py_writes"] == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == left


@needs_cc
def test_probe_cold_then_warm_counters(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_SYMPILER_CACHE", str(tmp_path))
    cold = run_probe(backend="c")
    assert all(cold["workload"].values())
    assert cold["so_compiles"] > 0
    # Generated code names its inspection sets but embeds none, so everything
    # the probe workload (every kernel of the kernel table) leaves behind
    # is a few KB per code shape: 145,798 bytes in 7 `.so` measured with gcc
    # 12.2 -O3 -march=native; the bound is 1.5x the 170,527 bytes in 8 `.so`
    # of the workload before its wavefront variant left it.
    assert cold["so_bytes"] + cold["source_bytes"] < 256_000
    # Second probe against the populated directory: zero recompiles — the
    # exact property the CI warm step asserts across processes.
    warm = run_probe(backend="c")
    assert warm["so_compiles"] == 0
    assert warm["so_reuses"] == cold["so_compiles"] + cold["so_reuses"]


@needs_cc
def test_probe_cli_assert_warm(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("REPRO_SYMPILER_CACHE", str(tmp_path))
    assert main([]) == 0  # cold populate
    capsys.readouterr()
    assert main(["--assert-warm", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["asserted_warm"] is True
    assert report["so_compiles"] == 0
    # One document, one truth: the registry's pull-mode disk_cache collector
    # agrees with the probe's own counters.
    disk_cache = report["observe"]["collectors"]["disk_cache"]
    assert disk_cache["compiles"] == report["so_compiles"]
    assert disk_cache["py_writes"] == report["py_writes"]


def test_probe_compiles_every_kernel_of_the_table(monkeypatch, tmp_path, capsys):
    from repro.compiler import cache_probe
    from repro.compiler.registry import registered_kernels

    monkeypatch.setenv("REPRO_SYMPILER_CACHE", str(tmp_path))
    assert main(["--backend", "python"]) == 0
    assert json.loads(capsys.readouterr().out)["kernels"] == list(registered_kernels())
    # A kernel added to the table that the probe does not compile fails the run.
    monkeypatch.setattr(cache_probe, "registered_kernels", lambda: (*registered_kernels(), "qr"))
    assert main(["--backend", "python"]) == 2
    assert "qr" in capsys.readouterr().err


def test_probe_cli_python_backend(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("REPRO_SYMPILER_CACHE", str(tmp_path))
    # A cold python-backend run writes its kernel texts, so --assert-warm
    # must fail — the warm-start invariant is not vacuous for toolchain-free
    # environments.
    assert main(["--backend", "python", "--assert-warm"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["backend"] == "python"
    assert all(report["workload"].values())
    assert report["py_writes"] > 0
    # Against the populated cache the warm assertion passes.
    assert main(["--backend", "python", "--assert-warm"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["py_writes"] == 0 and "py_reuses" not in report


def test_a_second_process_on_the_python_backend_writes_nothing(tmp_path):
    """The python backend's whole footprint: one ``.py`` per kernel text, no
    sidecar, and a fresh process over the same directory adds nothing."""
    env = dict(os.environ, REPRO_SYMPILER_CACHE=str(tmp_path), PYTHONPATH=os.pathsep.join(sys.path))
    probe = [sys.executable, "-m", "repro.compiler.cache_probe", "--backend", "python"]
    cold = subprocess.run(probe, env=env, capture_output=True, text=True, timeout=300, check=True)
    left = sorted(p.name for p in tmp_path.iterdir())
    assert json.loads(cold.stdout)["py_writes"] == len(left) > 0
    assert all(name.endswith(".py") for name in left) and not list(tmp_path.glob("*.npz"))
    warm = subprocess.run([*probe, "--assert-warm"], env=env, capture_output=True, text=True, timeout=300)
    assert warm.returncode == 0, warm.stderr
    assert json.loads(warm.stdout)["py_writes"] == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == left
