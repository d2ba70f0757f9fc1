"""The ``parallel`` option: a record, not a second kernel.

Every generated kernel is serial; threads run only across independent items
(``map_items``).  ``parallel="wavefront"`` is kept for the benchmark ladder's
wavefront rung: on the C backend it compiles the serial source byte for byte,
records ``decisions["wavefront"]`` as the serial fallback, and keys its own
artifact-cache entry.  ``factorize_arrays`` still takes, and ignores, the
``num_threads=`` keyword that rung passes.  So its artifacts reproduce the
``"none"`` bits on every kernel and through a whole direct solve.
"""

import numpy as np
import pytest

from repro.compiler.cache import ArtifactCache, options_fingerprint
from repro.compiler.codegen.c_backend import _C_METHOD_SPECS, c_compiler_available
from repro.compiler.options import SympilerOptions
from repro.compiler.sympiler import Sympiler
from repro.solvers.linear_solver import SparseLinearSolver
from repro.sparse.generators import laplacian_2d, sparse_rhs, unsymmetric_diag_dominant
from repro.sparse.ordering import ordering_by_name

needs_cc = pytest.mark.skipif(
    not (c_compiler_available("cc") or c_compiler_available("gcc")),
    reason="no C compiler available",
)

#: One matrix per factorization kernel (a bushy, minimum-degree ordered grid
#: where the pattern is symmetric).
FACTOR_CASES = {
    "cholesky": lambda: _permuted_laplacian(12),
    "ldlt": lambda: _permuted_laplacian(12),
    "lu": lambda: _permuted_laplacian(12),
    "ic0": lambda: _permuted_laplacian(12),
    "ilu0": lambda: unsymmetric_diag_dominant(48, seed=5),
}
SERIAL_FALLBACK = {"mode": "serial-fallback", "fallback_reason": "no-schedule"}


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


@needs_cc
class TestBitwiseIdentity:
    @pytest.mark.parametrize("kernel", sorted(FACTOR_CASES))
    def test_factorization_matches_serial_bits(self, kernel, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SYMPILER_CACHE", str(tmp_path))
        A = FACTOR_CASES[kernel]()
        for vs_block in (False, True):  # simplicial and (where VS-Block takes) supernodal bodies
            serial = _c_options(enable_vs_block=vs_block)
            fac_s = Sympiler(serial, cache=ArtifactCache()).compile(kernel, A)
            fac_w = Sympiler(serial.with_updates(parallel="wavefront"), cache=ArtifactCache()).compile(kernel, A)
            assert fac_w.parallel_mode == "serial-fallback"
            assert fac_w.module.shared_object == fac_s.module.shared_object
            expected = fac_s.factorize_arrays(A.indptr, A.indices, A.data)
            for threads in (None, 1, 4):  # the ladder's keyword: accepted and ignored
                _assert_bitwise(expected, fac_w.factorize_arrays(A.indptr, A.indices, A.data, num_threads=threads))

    def test_trisolve_falls_back_to_the_serial_body(self, tmp_path, monkeypatch):
        """Dense and sparse right-hand sides, simplicial and supernodal bodies: the serial bits."""
        monkeypatch.setenv("REPRO_SYMPILER_CACHE", str(tmp_path))
        A = _permuted_laplacian(14)
        for vs_block in (False, True):
            serial = _c_options(enable_vs_block=vs_block)
            sym_s = Sympiler(serial, cache=ArtifactCache())
            sym_w = Sympiler(serial.with_updates(parallel="wavefront"), cache=ArtifactCache())
            L = sym_s.compile("cholesky", A).factorize(A)
            b = np.cos(np.arange(L.n, dtype=np.float64))
            for seed in (None, 11, 3):
                rhs = b if seed is None else sparse_rhs(L.n, nnz=3, seed=seed)
                pattern = None if seed is None else np.nonzero(rhs)[0]
                ps = sym_s.compile("triangular-solve", L, rhs_pattern=pattern)
                pw = sym_w.compile("triangular-solve", L, rhs_pattern=pattern)
                assert pw.parallel_mode == "serial-fallback"
                assert pw.decisions["wavefront"] == SERIAL_FALLBACK
                assert pw.source == ps.source
                _assert_bitwise(
                    ps.solve_arrays(L.indptr, L.indices, L.data, rhs),
                    pw.solve_arrays(L.indptr, L.indices, L.data, rhs),
                )

    def test_full_solve_both_sweeps_match_serial_bits(self, tmp_path, monkeypatch):
        """Forward and backward substitution of one direct solve."""
        monkeypatch.setenv("REPRO_SYMPILER_CACHE", str(tmp_path))
        A = laplacian_2d(13, shift=0.1)
        b = np.sin(np.arange(A.n, dtype=np.float64))
        serial = SparseLinearSolver(A, ordering="mindeg", options=_c_options(enable_vs_block=False))
        wavefront = SparseLinearSolver(
            A, ordering="mindeg", options=_c_options(enable_vs_block=False, parallel="wavefront")
        )
        x_s = serial.solve(b)
        x_w = wavefront.solve(b)
        assert np.array_equal(x_s, x_w)
        assert np.linalg.norm(A.matvec(x_w) - b) < 1e-8

    @pytest.mark.parametrize("method", sorted(_C_METHOD_SPECS))
    def test_every_kernel_records_its_wavefront_decision(self, method, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SYMPILER_CACHE", str(tmp_path))
        sym = Sympiler(_c_options(parallel="wavefront"), cache=ArtifactCache())
        if method == "triangular-solve":
            operand = sym.compile("cholesky", FACTOR_CASES["cholesky"]()).factorize(FACTOR_CASES["cholesky"]())
        else:
            operand = FACTOR_CASES[method]()
        artifact = sym.compile(method, operand)
        assert artifact.decisions["wavefront"] == SERIAL_FALLBACK
        assert artifact.parallel_mode == "serial-fallback"


class TestCacheKeying:
    def test_parallel_mode_is_fingerprinted(self):
        serial = SympilerOptions(backend="c")
        wavefront = serial.with_updates(parallel="wavefront")
        assert options_fingerprint(serial) != options_fingerprint(wavefront)

    @needs_cc
    def test_serial_and_wavefront_artifacts_coexist(self, tmp_path, monkeypatch):
        """Two artifacts (their records differ) over one shared ``.so``."""
        monkeypatch.setenv("REPRO_SYMPILER_CACHE", str(tmp_path))
        A = _permuted_laplacian(8)
        cache = ArtifactCache()
        serial = _c_options(enable_vs_block=False)
        sym_s = Sympiler(serial, cache=cache)
        sym_w = Sympiler(serial.with_updates(parallel="wavefront"), cache=cache)
        fac_s = sym_s.compile("cholesky", A)
        fac_w = sym_w.compile("cholesky", A)
        assert fac_s is not fac_w
        assert fac_s.parallel_mode == "none"
        assert fac_w.parallel_mode == "serial-fallback"
        assert fac_s.module.shared_object == fac_w.module.shared_object
        # Recompiling either mode hits its own entry.
        assert sym_s.compile("cholesky", A) is fac_s
        assert sym_w.compile("cholesky", A) is fac_w
