"""Tests for SympilerOptions."""

import dataclasses

import pytest

from repro.compiler.options import SympilerOptions


def test_defaults_follow_the_paper():
    opts = SympilerOptions()
    assert opts.backend == "c"
    assert opts.enable_vi_prune and opts.enable_vs_block
    assert opts.parallel == "none"


def _toggles(options):
    return options.enable_vs_block, options.enable_vi_prune


def test_named_constructors():
    assert _toggles(SympilerOptions.baseline()) == (False, False)
    assert _toggles(SympilerOptions.vi_prune_only()) == (False, True)
    assert _toggles(SympilerOptions.vs_block_only()) == (True, False)
    assert not hasattr(SympilerOptions, "all_transformations")


def test_with_updates_returns_new_instance():
    base = SympilerOptions()
    other = base.with_updates(backend="python", parallel="wavefront")
    assert other.backend == "python"
    assert other.parallel == "wavefront"
    assert base.backend == "c" and base.parallel == "none"


def test_validation_rejects_bad_values():
    with pytest.raises(ValueError):
        SympilerOptions(backend="fortran")
    with pytest.raises(ValueError):
        SympilerOptions(parallel="openmp")
    # The peel knobs, the never-read vectorize_min_length, the BLAS switch only
    # the python emitters read, the pass order, the unroll bound, the
    # supernode width cap, the low-level toggle that changed no code, the
    # batch thread count (a call argument) and the three one-value thresholds
    # (constants of the planner and of the wavefront fallback) are gone, not
    # ignored.
    for removed in (
        "max_supernode_width",
        "unroll_max_width",
        "transformation_order",
        "peel_single_nonzero_columns",
        "peel_colcount_threshold",
        "max_peeled_iterations",
        "vectorize_min_length",
        "blas_switch_avg_colcount",
        "small_kernel_max_width",
        "enable_low_level",
        "num_threads",
        "vs_block_min_avg_width",
        "vs_block_min_supernode_width",
        "wavefront_min_avg_width",
    ):
        with pytest.raises(TypeError):
            SympilerOptions(**{removed: 1})
    fields = [field.name for field in dataclasses.fields(SympilerOptions)]
    assert len(fields) == 6
    assert fields == ["backend", "enable_vi_prune", "enable_vs_block", "parallel", "c_compiler", "c_flags"]


def test_options_are_immutable():
    opts = SympilerOptions()
    with pytest.raises(Exception):
        opts.backend = "c"


def test_repro_cflags_env_overrides_default(monkeypatch):
    monkeypatch.setenv("REPRO_CFLAGS", "-O2 -fPIC -shared")
    assert SympilerOptions().c_flags == ("-O2", "-fPIC", "-shared")
    monkeypatch.delenv("REPRO_CFLAGS")
    default = SympilerOptions().c_flags
    assert default == ("-O3", "-march=native", "-fno-tree-vectorize", "-fPIC", "-shared", "-s")
    # The variable replaces the whole tuple: none of the default's flags stays.
    monkeypatch.setenv("REPRO_CFLAGS", "-O1 -fPIC -shared")
    assert SympilerOptions().c_flags == ("-O1", "-fPIC", "-shared")
    assert "-fno-tree-vectorize" not in SympilerOptions().c_flags


def test_repro_cc_env_overrides_default(monkeypatch):
    monkeypatch.setenv("REPRO_CC", "clang-19")
    assert SympilerOptions().c_compiler == "clang-19"
    monkeypatch.delenv("REPRO_CC")
    assert SympilerOptions().c_compiler == "cc"
