"""Wavefront (level-parallel) kernel execution: identity, fallback, plumbing.

The codegen-level contract of the wavefront backend: a wavefront-compiled
kernel produces **bitwise identical** results to its serial twin at any
thread count, keys separately in the artifact cache, and declines to
parallelize (serial fallback behind the same ABI) when the schedule is too
deep to pay for barriers.  ``test_levels`` already proves schedules
are antichains of the dependency graphs; here the properties are checked on
the *compiled artifacts* — per-level write sets are disjoint (each column is
written by exactly one level), and the generated parallel entry reproduces
the serial bits across all five factorization kinds.  The triangular solve
has no wavefront body: asked for one, it records the serial fallback.
"""

import numpy as np
import pytest

from repro.compiler.cache import ArtifactCache, options_fingerprint
from repro.compiler.codegen import c_backend
from repro.compiler.codegen.c_backend import (
    _WAVEFRONT_MIN_AVG_WIDTH,
    _wavefront_threads,
    c_compiler_available,
    resolve_num_threads,
)
from repro.compiler.options import SympilerOptions
from repro.compiler.sympiler import Sympiler
from repro.solvers.batched import BatchedSolver
from repro.solvers.linear_solver import SparseLinearSolver
from repro.sparse.generators import (
    laplacian_2d,
    saddle_point_indefinite,
    sparse_rhs,
    unsymmetric_diag_dominant,
)
from repro.sparse.ordering import ordering_by_name

needs_cc = pytest.mark.skipif(
    not (c_compiler_available("cc") or c_compiler_available("gcc")),
    reason="no C compiler available",
)

#: (kernel, matrix builder) for every registered factorization family.  The
#: write-set property holds on any input; the bitwise tests additionally
#: need schedules *wide enough* to clear the deep-etree fallback, so ldlt
#: and lu run on the (symmetric-pattern, diagonally dominant) permuted grid
#: rather than the generators whose chain-like U patterns always fall back
#: (that path is covered by test_deep_etree_takes_serial_fallback).
FACTOR_CASES = {
    "cholesky": lambda: _permuted_laplacian(12),
    "ldlt": lambda: _permuted_laplacian(12),
    "lu": lambda: _permuted_laplacian(12),
    "ic0": lambda: _permuted_laplacian(12),
    "ilu0": lambda: unsymmetric_diag_dominant(48, seed=5),
}


def _permuted_laplacian(side):
    grid = laplacian_2d(side, shift=0.1)
    return ordering_by_name("mindeg")(grid).symmetric_permute(grid)


def _c_options(**overrides):
    compiler = "cc" if c_compiler_available("cc") else "gcc"
    return SympilerOptions(backend="c", c_compiler=compiler, **overrides)


def _as_tuple(raw):
    return raw if isinstance(raw, tuple) else (raw,)


def _assert_bitwise(serial_raw, wavefront_raw):
    serial, wavefront = _as_tuple(serial_raw), _as_tuple(wavefront_raw)
    assert len(serial) == len(wavefront)
    for s, w in zip(serial, wavefront):
        assert np.array_equal(np.asarray(s), np.asarray(w))


# --------------------------------------------------------------------------- #
# Schedule write-set properties (backend-independent: python backend)
# --------------------------------------------------------------------------- #
#: Extra write-set cases on the kernels' "native" generators (indefinite,
#: unsymmetric) — deep schedules are fine here, the property is structural.
WRITE_SET_CASES = {
    **FACTOR_CASES,
    "ldlt-indefinite": lambda: saddle_point_indefinite(24, 10, seed=5),
    "lu-unsymmetric": lambda: unsymmetric_diag_dominant(48, seed=5),
}


class TestScheduleWriteSets:
    @pytest.mark.parametrize("case", sorted(WRITE_SET_CASES))
    def test_levels_have_disjoint_write_sets(self, case):
        """Each column is written by exactly one level, once.

        The wavefront executor assigns level members to workers without any
        per-column locking, which is only safe because a column's write set
        (its own slice of the factor) belongs to exactly one level.
        """
        kernel = case.split("-")[0]
        A = WRITE_SET_CASES[case]()
        sym = Sympiler(SympilerOptions(backend="python"), cache=ArtifactCache())
        schedule = sym.compile(kernel, A).schedule
        assert schedule is not None
        seen = np.zeros(schedule.n, dtype=np.int64)
        for level in schedule.levels():
            assert level.size > 0  # empty levels are squeezed out
            assert np.unique(level).size == level.size
            seen[level] += 1
        assert (seen <= 1).all()  # no column written by two levels
        # Factorizations schedule every column of the factor.
        assert schedule.n_scheduled == A.n_cols
        assert int(seen.sum()) == A.n_cols


# --------------------------------------------------------------------------- #
# Bitwise identity of the compiled parallel entries (C backend)
# --------------------------------------------------------------------------- #
@needs_cc
class TestBitwiseIdentity:
    @pytest.mark.parametrize("kernel", sorted(FACTOR_CASES))
    def test_factorization_matches_serial_bits(self, kernel, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SYMPILER_CACHE", str(tmp_path))
        A = FACTOR_CASES[kernel]()
        # Simplicial bodies so the factorizations actually take the
        # wavefront path (supernodal panels fall back; covered below).
        serial = _c_options(enable_vs_block=False)
        sym_s = Sympiler(serial, cache=ArtifactCache())
        sym_w = Sympiler(
            serial.with_updates(parallel="wavefront"), cache=ArtifactCache()
        )
        fac_s = sym_s.compile(kernel, A)
        fac_w = sym_w.compile(kernel, A)
        assert fac_w.parallel_mode == "wavefront"
        assert fac_w.accepts_num_threads
        for threads in (1, 4):
            _assert_bitwise(
                fac_s.factorize_arrays(A.indptr, A.indices, A.data),
                fac_w.factorize_arrays(
                    A.indptr, A.indices, A.data, num_threads=threads
                ),
            )

    def test_trisolve_falls_back_to_the_serial_body(self, tmp_path, monkeypatch):
        """Dense and sparse right-hand sides, simplicial and supernodal bodies: the serial bits, the wavefront ABI."""
        monkeypatch.setenv("REPRO_SYMPILER_CACHE", str(tmp_path))
        A = _permuted_laplacian(14)
        for vs_block in (False, True):  # simplicial and supernodal serial bodies
            serial = _c_options(enable_vs_block=vs_block)
            sym_s = Sympiler(serial, cache=ArtifactCache())
            sym_w = Sympiler(
                serial.with_updates(parallel="wavefront"), cache=ArtifactCache()
            )
            L = sym_s.compile("cholesky", A).factorize(A)
            b = np.cos(np.arange(L.n, dtype=np.float64))
            for seed in (None, 11, 3):
                rhs = b if seed is None else sparse_rhs(L.n, nnz=3, seed=seed)
                pattern = None if seed is None else np.nonzero(rhs)[0]
                ps = sym_s.compile("triangular-solve", L, rhs_pattern=pattern)
                pw = sym_w.compile("triangular-solve", L, rhs_pattern=pattern)
                assert pw.parallel_mode == "serial-fallback" and pw.accepts_num_threads
                assert pw.decisions["wavefront"] == {"mode": "serial-fallback", "fallback_reason": "no-schedule"}
                assert "_wf_run" not in pw.source
                assert not any(name.startswith("_C_wf_") for name in pw.constants)
                _assert_bitwise(
                    ps.solve_arrays(L.indptr, L.indices, L.data, rhs),
                    pw.solve_arrays(L.indptr, L.indices, L.data, rhs, num_threads=4),
                )

    def test_full_solve_both_sweeps_match_serial_bits(self, tmp_path, monkeypatch):
        """Forward and backward substitution of one direct solve."""
        monkeypatch.setenv("REPRO_SYMPILER_CACHE", str(tmp_path))
        A = laplacian_2d(13, shift=0.1)
        b = np.sin(np.arange(A.n, dtype=np.float64))
        serial = SparseLinearSolver(
            A, ordering="mindeg", options=_c_options(enable_vs_block=False)
        )
        wavefront = SparseLinearSolver(
            A,
            ordering="mindeg",
            options=_c_options(enable_vs_block=False, parallel="wavefront"),
        )
        x_s = serial.solve(b)
        x_w = wavefront.solve(b, num_threads=4)
        assert np.array_equal(x_s, x_w)
        assert np.linalg.norm(A.matvec(x_w) - b) < 1e-8

    def test_deep_etree_takes_serial_fallback(self, tmp_path, monkeypatch):
        """A chain graph (one column per level) must decline to parallelize."""
        monkeypatch.setenv("REPRO_SYMPILER_CACHE", str(tmp_path))
        chain = laplacian_2d(120, 1, shift=0.1)
        serial = _c_options(enable_vs_block=False)
        sym_s = Sympiler(serial, cache=ArtifactCache())
        sym_w = Sympiler(
            serial.with_updates(parallel="wavefront"), cache=ArtifactCache()
        )
        fac_s = sym_s.compile("cholesky", chain)
        fac_w = sym_w.compile("cholesky", chain)
        assert fac_w.schedule.average_width < _WAVEFRONT_MIN_AVG_WIDTH
        assert fac_w.parallel_mode == "serial-fallback"
        # The fallback keeps the wavefront ABI: a thread count is accepted
        # (and ignored), and the bits still match serial.
        _assert_bitwise(
            fac_s.factorize_arrays(chain.indptr, chain.indices, chain.data),
            fac_w.factorize_arrays(
                chain.indptr, chain.indices, chain.data, num_threads=4
            ),
        )

    def test_the_fallback_threshold_is_the_module_constant(self, tmp_path, monkeypatch):
        """At a threshold of 1.0 the chain's one-column levels are wide enough."""
        monkeypatch.setenv("REPRO_SYMPILER_CACHE", str(tmp_path))
        monkeypatch.setattr(c_backend, "_WAVEFRONT_MIN_AVG_WIDTH", 1.0)
        chain = laplacian_2d(40, 1, shift=0.1)
        sym = Sympiler(_c_options(enable_vs_block=False, parallel="wavefront"), cache=ArtifactCache())
        fac = sym.compile("cholesky", chain)
        assert fac.schedule.average_width == 1.0
        assert fac.parallel_mode == "wavefront"

    @pytest.mark.parametrize("method", sorted(FACTOR_CASES))
    def test_every_factorization_records_its_wavefront_decision(self, method):
        sym = Sympiler(_c_options(parallel="wavefront"), cache=ArtifactCache())
        artifact = sym.compile(method, FACTOR_CASES[method]())
        decision = artifact.decisions["wavefront"]
        assert decision["mode"] == artifact.parallel_mode
        assert {"n_levels", "max_width", "average_width"} <= set(decision)
        assert ("fallback_reason" in decision) == (decision["mode"] == "serial-fallback")


#: The update line of each kernel's step body.
UPDATE_LINES = {
    "cholesky": ["repro_f[_C_l_indices[p]] -= Lx[p] * ljk;"],
    "ldlt": ["repro_f[_C_l_indices[p]] -= Lx[p] * ljk;"],
    "lu": ["repro_f[_C_l_indices[p]] -= Lx[p] * ukj;"],
    "ic0": ["Lx[_C_l_scat_dst[s]] -= Lx[_C_l_scat_src[s]] * ljk;"],
    "ilu0": [
        "Ux[_C_u_scat_dst[s]] -= Lx[_C_u_scat_src[s]] * ukj;",
        "Lx[_C_l_scat_dst[s]] -= Lx[_C_l_scat_src[s]] * ukj;",
    ],
}


@needs_cc
@pytest.mark.parametrize("kernel", sorted(UPDATE_LINES))
def test_wavefront_source_prints_each_step_body_once(kernel, tmp_path, monkeypatch):
    """The serial loop and the wavefront job call one step function."""
    monkeypatch.setenv("REPRO_SYMPILER_CACHE", str(tmp_path))
    sym = Sympiler(_c_options(enable_vs_block=False, parallel="wavefront"), cache=ArtifactCache())
    artifact = sym.compile(kernel, FACTOR_CASES[kernel]())
    assert artifact.parallel_mode == "wavefront"
    for line in UPDATE_LINES[kernel]:
        assert artifact.source.count(line) == 1, line


# --------------------------------------------------------------------------- #
# Cache keying
# --------------------------------------------------------------------------- #
class TestCacheKeying:
    def test_parallel_mode_is_fingerprinted(self):
        serial = SympilerOptions(backend="c")
        wavefront = serial.with_updates(parallel="wavefront")
        assert options_fingerprint(serial) != options_fingerprint(wavefront)

    @needs_cc
    def test_serial_and_wavefront_artifacts_coexist(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SYMPILER_CACHE", str(tmp_path))
        A = _permuted_laplacian(8)
        cache = ArtifactCache()
        serial = _c_options(enable_vs_block=False)
        sym_s = Sympiler(serial, cache=cache)
        sym_w = Sympiler(serial.with_updates(parallel="wavefront"), cache=cache)
        fac_s = sym_s.compile("cholesky", A)
        fac_w = sym_w.compile("cholesky", A)
        # Distinct artifacts under one shared cache: no cross-mode hit.
        assert fac_s is not fac_w
        assert fac_s.parallel_mode == "none"
        assert fac_w.parallel_mode == "wavefront"
        # Recompiling either mode hits its own entry.
        assert sym_s.compile("cholesky", A) is fac_s
        assert sym_w.compile("cholesky", A) is fac_w


# --------------------------------------------------------------------------- #
# Thread-count resolution
# --------------------------------------------------------------------------- #
class TestThreadResolution:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "7")
        assert resolve_num_threads(3) == 3

    def test_env_override_applies_when_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "7")
        assert resolve_num_threads(None) == 7

    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_NUM_THREADS", raising=False)
        assert resolve_num_threads(None) == 1

    def test_zero_means_one_per_cpu(self, monkeypatch):
        import os

        monkeypatch.setenv("REPRO_NUM_THREADS", "0")
        assert resolve_num_threads(None) == (os.cpu_count() or 1)
        assert resolve_num_threads(0) == (os.cpu_count() or 1)

    def test_garbage_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "many")
        with pytest.raises(ValueError, match="REPRO_NUM_THREADS"):
            resolve_num_threads(None)

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            resolve_num_threads(-2)

    @pytest.mark.parametrize("entry", ["runtime", "wavefront"])
    @pytest.mark.parametrize(
        "env, expected",
        [
            ("abc", "REPRO_NUM_THREADS must be an integer, got 'abc'"),
            ("-1", "num_threads must be non-negative"),
            ("", None),  # blank is unset: 1 by default, one per CPU in a wavefront call
            (" 2 ", 2),
        ],
    )
    def test_one_parser_for_both_entry_points(self, entry, env, expected, monkeypatch):
        import os

        monkeypatch.setenv("REPRO_NUM_THREADS", env)
        resolve = resolve_num_threads if entry == "runtime" else _wavefront_threads
        if isinstance(expected, str):
            with pytest.raises(ValueError, match=expected):
                resolve(None)
            return
        if expected is None:
            expected = 1 if entry == "runtime" else (os.cpu_count() or 1)
        assert resolve(None) == expected

    def test_batch_argument_then_env_then_one(self, monkeypatch):
        import os

        monkeypatch.setenv("REPRO_NUM_THREADS", "5")
        A = _permuted_laplacian(8)
        options = SympilerOptions(backend="python")
        assert BatchedSolver(A, options=options).num_threads == 5
        assert BatchedSolver(A, options=options, num_threads=3).num_threads == 3
        monkeypatch.delenv("REPRO_NUM_THREADS")
        assert BatchedSolver(A, options=options).num_threads == 1
        assert BatchedSolver(A, options=options, num_threads=0).num_threads == (os.cpu_count() or 1)
