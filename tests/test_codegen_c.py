"""Tests for the specialized-C code-generation backend."""

import dataclasses
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.baselines.scipy_reference import reference_cholesky, reference_trisolve
from repro.compiler.cache import ArtifactCache
from repro.compiler.codegen import c_backend
from repro.compiler.codegen.c_backend import (
    CBackend,
    CCompilationError,
    CGeneratedModule,
    c_compiler_available,
    disk_cache_stats,
    reset_disk_cache_stats,
)
from repro.compiler.options import SympilerOptions
from repro.compiler.registry import kernel_spec
from repro.compiler.sympiler import Sympiler
from repro import observe
from repro.solvers.batched import BatchedSolver
from repro.sparse.generators import banded_spd, block_tridiagonal_spd, laplacian_2d, sparse_rhs

needs_cc = pytest.mark.skipif(
    not (c_compiler_available("cc") or c_compiler_available("gcc")),
    reason="no C compiler available",
)


def _c_options(**overrides):
    compiler = "cc" if c_compiler_available("cc") else "gcc"
    return SympilerOptions(backend="c", c_compiler=compiler, **overrides)


def test_c_compiler_available_for_missing_binary():
    assert not c_compiler_available("definitely-not-a-compiler-xyz")


def test_missing_compiler_raises_clear_error():
    module = CGeneratedModule(
        source="int main(void){return 0;}\n",
        entry_name="main",
        constants={},
        method="triangular-solve",
        abi=kernel_spec("triangular-solve").abi,
        codegen_seconds=0.0,
        compiler="definitely-not-a-compiler-xyz",
        flags=(),
        n=1,
    )
    with pytest.raises(CCompilationError):
        module.compile()


@needs_cc
class TestCGeneratedKernels:
    def test_triangular_solve_matches_reference(self, lower_factors):
        sym = Sympiler()
        for L in lower_factors.values():
            b = sparse_rhs(L.n, density=0.05, seed=21)
            compiled = sym.compile(
                "triangular-solve", L, rhs_pattern=np.nonzero(b)[0], options=_c_options()
            )
            np.testing.assert_allclose(
                compiled.solve(L, b), reference_trisolve(L, b), atol=1e-9
            )

    def test_cholesky_simplicial_and_supernodal_match_reference(self, spd_matrices):
        sym = Sympiler()
        for options in (_c_options(enable_vs_block=False), _c_options()):
            for name in ("laplacian_2d", "block", "circuit"):
                A = spd_matrices[name]
                compiled = sym.compile("cholesky", A, options=options)
                L = compiled.factorize(A)
                np.testing.assert_allclose(
                    L.to_dense(), reference_cholesky(A), atol=1e-9
                )

    def test_c_source_names_its_tables_but_embeds_none(self, spd_matrices):
        compiled = Sympiler().compile("cholesky", spd_matrices["fem"], options=_c_options())
        assert "static const int64_t" not in compiled.source
        assert "_C_l_indptr = repro_T[" in compiled.source
        assert compiled.source.startswith("/* Sympiler-generated kernel (C backend). */")
        assert compiled.module.shared_object is not None
        # The inspection sets stay readable on the artifact, and they are the
        # very arrays the loaded entry point was bound to.
        assert np.array_equal(compiled.constants["_C_l_indptr"], compiled.inspection.l_indptr)
        assert list(compiled.module.constants)[0] == "_C_dims"

    def test_c_backend_agrees_with_python_backend(self, spd_matrices):
        A = spd_matrices["block"]
        sym = Sympiler()
        c_factor = sym.compile("cholesky", A, options=_c_options()).factorize(A)
        py_factor = sym.compile("cholesky", A, options=SympilerOptions(backend="python")).factorize(A)
        np.testing.assert_allclose(c_factor.to_dense(), py_factor.to_dense(), atol=1e-12)

    def test_non_positive_definite_returns_error(self):
        A = block_tridiagonal_spd(4, 4, seed=5, dense_coupling=True)
        compiled = Sympiler().compile("cholesky", A, options=_c_options())
        bad = A.copy()
        for j in range(bad.n):
            rows = bad.col_rows(j)
            pos = int(np.searchsorted(rows, j))
            bad.data[bad.indptr[j] + pos] = -1.0
        with pytest.raises(ValueError):
            compiled.factorize(bad)

    def test_peeled_and_blocked_structures_present(self, lower_factors):
        L = lower_factors["block"]
        b = sparse_rhs(L.n, nnz=2, seed=30)
        compiled = Sympiler().compile(
            "triangular-solve", L, rhs_pattern=np.nonzero(b)[0], options=_c_options()
        )
        # One table-driven loop: both segment kinds are in every trisolve
        # source, and no column of the pattern is.
        assert "/* supernode" in compiled.source and "/* pruned column loop" in compiled.source
        assert "triangular_solve_step(s, Lp, Li, Lx, b, x, repro_T);" in compiled.source


def test_trisolve_segments_visit_the_reach_set_in_order(lower_factors):
    """A VI-Pruned solve is one flat segment list in the inspector's reach order."""
    L = lower_factors["circuit"]
    rhs_pattern = np.nonzero(sparse_rhs(L.n, nnz=3, seed=4))[0]

    def compiled(options):
        return Sympiler(cache=ArtifactCache()).compile(
            "triangular-solve", L, rhs_pattern=rhs_pattern, options=options
        )

    pruned = compiled(SympilerOptions(enable_vs_block=False))
    reach = pruned.inspection.reach.tolist()
    assert 0 < len(reach) < L.n
    dims, sets = pruned.loop.contract
    assert dims == {"n_seg": 1} and sets["run_cols"].tolist() == reach
    # Untransformed, the body is the loop over every column.
    baseline = compiled(SympilerOptions.baseline())
    assert baseline.loop is None


def test_backend_name_and_flags():
    backend = CBackend(compiler="gcc", flags=("-O2", "-shared", "-fPIC"))
    assert backend.name == "c"
    assert backend.flags == ("-O2", "-shared", "-fPIC")


# --------------------------------------------------------------------------- #
# The on-disk cache: what a compile writes, and what it survives
# --------------------------------------------------------------------------- #
def _cache_listing(directory):
    return {
        entry.name: entry.stat().st_mtime_ns for entry in os.scandir(directory) if entry.is_file()
    }


def _fake_compiler(tmp_path, script):
    path = tmp_path / "fake-cc"
    path.write_text("#!/bin/sh\n" + script + "\n", encoding="utf-8")
    path.chmod(0o755)
    return str(path)


@needs_cc
class TestDiskCacheRobustness:
    def test_warm_compile_leaves_the_cache_directory_untouched(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SYMPILER_CACHE", str(tmp_path))
        A = laplacian_2d(9)
        first = Sympiler(cache=ArtifactCache()).compile("cholesky", A, options=_c_options())
        before = _cache_listing(tmp_path)
        assert any(name.endswith(".c") for name in before)
        reset_disk_cache_stats()
        # A fresh in-memory cache, as a new process would have: the .so is on
        # disk, so nothing is compiled and nothing — the .c included — is
        # written again.
        second = Sympiler(cache=ArtifactCache()).compile("cholesky", A, options=_c_options())
        assert second is not first
        assert disk_cache_stats().compiles == 0 and disk_cache_stats().reuses == 1
        assert second.module.so_shared and not first.module.so_shared
        assert _cache_listing(tmp_path) == before
        np.testing.assert_array_equal(second.factorize(A).data, first.factorize(A).data)

    def test_hung_compiler_times_out_with_the_command(self, monkeypatch, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        monkeypatch.setenv("REPRO_SYMPILER_CACHE", str(cache))
        monkeypatch.setattr(c_backend, "_CC_TIMEOUT_SECONDS", 0.3)
        fake = _fake_compiler(tmp_path, "exec sleep 30")
        options = SympilerOptions(backend="c", c_compiler=fake)
        with pytest.raises(CCompilationError, match="timed out") as excinfo:
            Sympiler(cache=ArtifactCache()).compile("cholesky", laplacian_2d(5), options=options)
        assert fake in str(excinfo.value)
        # No half-made shared object (and no lock) is left behind.
        assert not [n for n in os.listdir(cache) if not n.endswith(".c")]

    def test_truncated_shared_object_is_rebuilt_once(self, monkeypatch, tmp_path):
        """A later start that finds a truncated .so replaces it instead of failing."""
        monkeypatch.setenv("REPRO_SYMPILER_CACHE", str(tmp_path))
        populate = (
            "from repro import Sympiler, SympilerOptions, laplacian_2d\n"
            "Sympiler().compile('cholesky', laplacian_2d(8), options=SympilerOptions(backend='c'))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", populate], check=True, env=env, timeout=300)
        (so_name,) = [n for n in os.listdir(tmp_path) if n.endswith(".so")]
        so_path = os.path.join(str(tmp_path), so_name)
        os.truncate(so_path, 100)

        reset_disk_cache_stats()
        A = laplacian_2d(8)
        compiled = Sympiler(cache=ArtifactCache()).compile("cholesky", A, options=_c_options())
        np.testing.assert_allclose(
            compiled.factorize(A).to_dense(), reference_cholesky(A), atol=1e-9
        )
        assert os.path.getsize(so_path) > 100
        stats = disk_cache_stats()
        assert stats.compiles == 1 and stats.reuses == 1  # the stale hit, then the rebuild

    def test_unloadable_rebuild_is_a_compilation_error(self, monkeypatch, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        monkeypatch.setenv("REPRO_SYMPILER_CACHE", str(cache))
        # A "compiler" that succeeds but writes 100 bytes of nothing to -o.
        fake = _fake_compiler(
            tmp_path,
            'while [ "$1" != "-o" ]; do shift; done; head -c 100 /dev/zero > "$2"',
        )
        options = SympilerOptions(backend="c", c_compiler=fake)
        with pytest.raises(CCompilationError, match="even after a rebuild"):
            Sympiler(cache=ArtifactCache()).compile("cholesky", laplacian_2d(5), options=options)

    @pytest.mark.parametrize("count", [1, 2])
    def test_a_timed_out_build_leaves_no_process_behind(
        self, monkeypatch, tmp_path, cpus, assert_pids_gone, count
    ):
        monkeypatch.setenv("REPRO_SYMPILER_CACHE", str(tmp_path / "cache"))
        monkeypatch.setattr(c_backend, "_CC_TIMEOUT_SECONDS", 0.5)
        cpus(count)
        pids = tmp_path / "pids"
        fake = _fake_compiler(tmp_path, f'sleep 30 > /dev/null 2>&1 &\necho $! >> "{pids}"\nwait')
        options = SympilerOptions(backend="c", c_compiler=fake)
        with pytest.raises(CCompilationError, match="timed out"):
            Sympiler(cache=ArtifactCache()).compile("cholesky", laplacian_2d(5), options=options)
        # The step and entry, and the solve: one part or two, each a process group.
        assert len(pids.read_text(encoding="utf-8").split()) == count
        assert_pids_gone(pids)

    @pytest.mark.parametrize("count", [1, 2])
    def test_one_cpu_runs_one_cc_and_two_run_the_parts_then_a_link(self, monkeypatch, tmp_path, cpus, count):
        cache = tmp_path / "cache"
        monkeypatch.setenv("REPRO_SYMPILER_CACHE", str(cache))
        cpus(count)
        log = tmp_path / "cc.log"
        compiler = _c_options().c_compiler
        shim = _fake_compiler(tmp_path, f'echo "$@" >> "{log}"\nexec {compiler} "$@"')
        observe.reset()
        observe.enable()
        try:
            compiled = Sympiler(cache=ArtifactCache()).compile(
                "cholesky", laplacian_2d(6), options=SympilerOptions(backend="c", c_compiler=shim)
            )
            (cc,) = [sp for sp in observe.get_tracer().spans() if sp.name == "cc"]
        finally:
            observe.disable()
            observe.reset()
        commands = [line.split() for line in log.read_text(encoding="utf-8").splitlines()]
        c_path = os.path.splitext(compiled.module.shared_object)[0] + ".c"
        if count == 1:
            assert len(commands) == 1 and c_path in commands[0] and commands[0][-1] == "-lm"
        else:
            assert sorted(os.path.basename(args[-1]) for args in commands[:2]) == [
                os.path.basename(c_path)[:-2] + f".part{k}.c" for k in (0, 1)
            ]
            assert len(commands) == 3 and "-c" not in commands[2] and commands[2][-1] == "-lm"
        assert cc.attrs["parts"] == count and len(cc.attrs["part_s"]) == count
        assert sorted(os.listdir(cache)) == sorted(os.path.basename(p) for p in (c_path, compiled.module.shared_object))


# --------------------------------------------------------------------------- #
# One .so, many patterns
# --------------------------------------------------------------------------- #
@needs_cc
def test_two_patterns_share_one_shared_object_and_its_thread_local_buffers(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_SYMPILER_CACHE", str(tmp_path))
    reset_disk_cache_stats()
    small, large = laplacian_2d(7), laplacian_2d(19)
    sym = Sympiler(cache=ArtifactCache())
    observe.reset()
    observe.enable()
    try:
        kernels = [sym.compile("cholesky", A, options=_c_options()) for A in (small, large)]
        spans = observe.get_tracer().spans()
    finally:
        observe.disable()
        observe.reset()
    # One `cc` run, sized by its source; the second compile found the .so.
    (cc,) = [sp for sp in spans if sp.name == "cc"]
    assert cc.attrs["source_bytes"] == len(kernels[0].source.encode())
    assert [sp.attrs["so_shared"] for sp in spans if sp.name == "compile"] == [False, True]
    assert kernels[0] is not kernels[1]
    assert kernels[0].source == kernels[1].source
    assert kernels[0].module.shared_object == kernels[1].module.shared_object
    assert disk_cache_stats().compiles == 1 and disk_cache_stats().reuses == 1
    assert len([n for n in os.listdir(tmp_path) if n.endswith(".so")]) == 1

    expected = [
        sym.compile("cholesky", A, options=SympilerOptions(backend="python")).factorize(A).data
        for A in (small, large)
    ]
    for kernel, A, ref in zip(kernels, (small, large), expected):
        np.testing.assert_array_equal(kernel.factorize(A).data, ref)

    # Four threads at once, each alternating between the two patterns: every
    # thread's grow-on-demand work buffers serve n = 49 and n = 361 in turn.
    failures = []

    def worker(first):
        for step in range(20):
            k = (first + step) % 2
            A = (small, large)[k]
            if not np.array_equal(kernels[k].factorize(A).data, expected[k]):
                failures.append((first, step))

    threads = [threading.Thread(target=worker, args=(t % 2,)) for t in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures

    # The batched runtime maps the same entry point over a thread pool.
    for A in (large, small):
        options = _c_options()
        batched = BatchedSolver(A, ordering="natural", options=options, num_threads=2)
        # (The solver compiles through the process-wide artifact cache, which
        # may hold this pattern from another test's cache directory.)
        assert os.path.basename(
            batched.solver._factorization.module.shared_object
        ) == os.path.basename(kernels[0].module.shared_object)
        scales = (1.0, 2.0, 3.0, 5.0)
        handles = batched.factorize_batch([A.with_values(A.data * s) for s in scales])
        python = Sympiler().compile("cholesky", A, options=SympilerOptions(backend="python"))
        for handle, s in zip(handles, scales):
            assert handle.ok
            np.testing.assert_array_equal(
                handle.L.data, python.factorize(A.with_values(A.data * s)).data
            )


@needs_cc
@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc to read the RSS")
def test_work_buffers_are_freed_when_their_thread_exits():
    """The batched runtime starts a fresh thread pool per batch; a kernel's
    grow-on-demand buffers must go with the thread that grew them: the work
    vector of the column loop, and the panel store of the supernode loop."""
    kernels = {
        # large n, little work: ~0.5-1 MB of buffers per thread
        "simplicial-cholesky": banded_spd(60000, 2, seed=1),
        # a 1.5 MB panel store (Σ rows x width of 1,500 supernodes) per thread
        "supernodal-cholesky": block_tridiagonal_spd(1500, 8, seed=1, dense_coupling=True),
    }

    def rss_mb():
        with open("/proc/self/statm", encoding="ascii") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20

    for role, A in kernels.items():
        compiled = Sympiler().compile("cholesky", A, options=_c_options())
        assert compiled.loop.role == role
        expected = compiled.factorize(A).data

        def one_thread():
            worker = threading.Thread(target=lambda: results.append(compiled.factorize(A).data))
            worker.start()
            worker.join(timeout=120)
            assert not worker.is_alive()

        results = []
        one_thread()  # first-use allocations of the interpreter and the allocator
        results.clear()
        before = rss_mb()
        for _ in range(150):
            one_thread()
            assert np.array_equal(results.pop(), expected)
        # 150 leaked buffer sets would be ~150 MB (~250 MB for the panel stores).
        assert rss_mb() - before < 40, role


@needs_cc
def test_out_of_memory_for_the_panel_store_is_a_memory_error():
    """An allocation that fails makes the entry return -1, which the binder raises as ``MemoryError``.

    The block handed to the loaded kernel claims a panel store of 2^50 doubles;
    with the store's 8 doubles of slack and the row map the request is still
    far below ``SIZE_MAX``.  (Not under ASan, whose allocator aborts on such a
    request.)
    """
    A = block_tridiagonal_spd(6, 4, seed=2, dense_coupling=True)
    compiled = Sympiler(cache=ArtifactCache()).compile("cholesky", A, options=_c_options())
    module = compiled.module
    dims = ["n", *compiled.loop.contract[0]]
    constants = dict(module.constants, _C_dims=module.constants["_C_dims"].copy())
    constants["_C_dims"][dims.index("sn_panel_total")] = 2**50
    huge = dataclasses.replace(module, constants=constants, _callable=None, _lib=None)
    run = huge.compile()((A.indptr, A.indices, A.data), (np.zeros(compiled.inspection.factor_nnz),))
    with pytest.raises(MemoryError, match="work buffers"):
        run()
    # The thread's buffers are as they were: the real block still factors.
    python = Sympiler(SympilerOptions(backend="python")).compile("cholesky", A)
    np.testing.assert_array_equal(compiled.factorize(A).data, python.factorize(A).data)
