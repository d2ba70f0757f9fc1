"""Tests for SympilerOptions."""

import dataclasses

import pytest

from repro.compiler.options import SympilerOptions


def test_defaults_follow_the_paper():
    opts = SympilerOptions()
    assert opts.backend == "python"
    assert opts.active_transformations() == ("vs-block", "vi-prune")  # the order of §4.2, not a knob
    assert opts.enable_vi_prune and opts.enable_vs_block and opts.enable_low_level


def test_active_transformations_respects_toggles():
    assert SympilerOptions().active_transformations() == ("vs-block", "vi-prune")
    assert SympilerOptions(enable_vs_block=False).active_transformations() == ("vi-prune",)
    assert SympilerOptions(enable_vi_prune=False).active_transformations() == ("vs-block",)
    assert SympilerOptions.baseline().active_transformations() == ()


def test_named_constructors():
    assert SympilerOptions.vi_prune_only().active_transformations() == ("vi-prune",)
    assert SympilerOptions.vs_block_only().active_transformations() == ("vs-block",)
    assert SympilerOptions.all_transformations().enable_low_level


def test_with_updates_returns_new_instance():
    base = SympilerOptions()
    other = base.with_updates(backend="c", max_supernode_width=6)
    assert other.backend == "c"
    assert other.max_supernode_width == 6
    assert base.backend == "python"


def test_validation_rejects_bad_values():
    with pytest.raises(ValueError):
        SympilerOptions(backend="fortran")
    with pytest.raises(ValueError):
        SympilerOptions(vs_block_min_supernode_width=0)
    with pytest.raises(ValueError):
        SympilerOptions(max_supernode_width=0)
    # The peel knobs, the never-read vectorize_min_length, the BLAS switch only
    # the python emitters read, the pass order and the unroll bound are gone,
    # not ignored.
    for removed in (
        "unroll_max_width",
        "transformation_order",
        "peel_single_nonzero_columns",
        "peel_colcount_threshold",
        "max_peeled_iterations",
        "vectorize_min_length",
        "blas_switch_avg_colcount",
        "small_kernel_max_width",
    ):
        with pytest.raises(TypeError):
            SympilerOptions(**{removed: 1})
    assert len(dataclasses.fields(SympilerOptions)) == 12


def test_options_are_immutable():
    opts = SympilerOptions()
    with pytest.raises(Exception):
        opts.backend = "c"


def test_repro_cflags_env_overrides_default(monkeypatch):
    monkeypatch.setenv("REPRO_CFLAGS", "-O2 -fPIC -shared")
    assert SympilerOptions().c_flags == ("-O2", "-fPIC", "-shared")
    monkeypatch.delenv("REPRO_CFLAGS")
    assert "-march=native" in SympilerOptions().c_flags


def test_repro_cc_env_overrides_default(monkeypatch):
    monkeypatch.setenv("REPRO_CC", "clang-19")
    assert SympilerOptions().c_compiler == "clang-19"
    monkeypatch.delenv("REPRO_CC")
    assert SympilerOptions().c_compiler == "cc"
