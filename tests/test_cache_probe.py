"""Tests for the cold/warm cache probe backing the CI zero-recompile check."""

import json

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
    # ...but it persists its generated sources for cross-process sharing.
    assert report["py_writes"] > 0 and report["py_reuses"] == 0
    # Second probe in the same cache directory: every module is loaded back.
    warm = run_probe(backend="python")
    assert warm["py_writes"] == 0
    assert warm["py_reuses"] == report["py_writes"]


@needs_cc
def test_probe_cold_then_warm_counters(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_SYMPILER_CACHE", str(tmp_path))
    cold = run_probe(backend="c")
    assert all(cold["workload"].values())
    assert cold["so_compiles"] > 0
    # Generated code names its inspection sets but embeds none, so everything
    # the probe workload (one kernel of every registered family) leaves behind
    # is a few KB per code shape: 170,527 bytes in 8 `.so` measured with gcc
    # 12.2 -O3 -march=native; the bound is 1.5x that.
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


def test_probe_cli_python_backend(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("REPRO_SYMPILER_CACHE", str(tmp_path))
    # A cold python-backend run regenerates everything, so --assert-warm
    # must fail — the zero-regeneration invariant is no longer vacuous for
    # toolchain-free environments.
    assert main(["--backend", "python", "--assert-warm"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["backend"] == "python"
    assert all(report["workload"].values())
    assert report["py_writes"] > 0
    # Against the populated cache the warm assertion passes.
    assert main(["--backend", "python", "--assert-warm"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["py_writes"] == 0 and report["py_reuses"] > 0
