"""Tests for the python backend: fixed NumPy reference kernels over the table block."""

import dataclasses

import numpy as np
import pytest

from repro.baselines.scipy_reference import reference_cholesky, reference_trisolve
from repro.compiler.cache import ArtifactCache
from repro.compiler.codegen import reference
from repro.compiler.codegen.c_backend import CMethodSpec, disk_cache_stats, reset_disk_cache_stats
from repro.compiler.codegen.python_backend import GeneratedModule, PythonBackend
from repro.compiler.codegen.runtime import pattern_fingerprint
from repro.compiler.options import SympilerOptions
from repro.compiler.plan import CompilationContext, plan_triangular_solve
from repro.compiler.registry import kernel_spec
from repro.compiler.sympiler import CodegenError, Sympiler
from repro.sparse.generators import block_tridiagonal_spd, laplacian_2d, sparse_rhs
from repro.symbolic.inspector import inspect_triangular_solve

#: The module's options: it tests the python backend, whatever the default.
_PYTHON = SympilerOptions(backend="python")
_SIMPLICIAL = _PYTHON.with_updates(enable_vs_block=False)


def _generate_trisolve(L, b, options):
    inspection = inspect_triangular_solve(L, rhs_pattern=np.nonzero(b)[0])
    context = CompilationContext(method="triangular-solve", matrix=L, inspection=inspection, options=options)
    loop = plan_triangular_solve(context)
    module = PythonBackend().generate(loop, kernel_spec("triangular-solve"), "triangular_solve", context)
    return module, loop


class TestTriangularSolve:
    @pytest.mark.parametrize(
        "options",
        [
            SympilerOptions.baseline(),
            SympilerOptions(enable_vs_block=False),
            SympilerOptions(enable_vi_prune=False),
            SympilerOptions(),
        ],
        ids=["baseline", "vi-prune", "vs-block", "full"],
    )
    def test_solve_is_correct(self, lower_factors, options):
        for L in lower_factors.values():
            b = sparse_rhs(L.n, density=0.05, seed=13)
            module, _ = _generate_trisolve(L, b, options)
            x = np.empty(L.n)
            module.compile()((L.indptr, L.indices, L.data, b), (x,))()
            np.testing.assert_allclose(x, reference_trisolve(L, b), atol=1e-9)

    def test_source_is_the_fixed_kernel_and_does_no_symbolic_work(self, lower_factors):
        sources = set()
        for name in ("block", "fem"):
            L = lower_factors[name]
            module, _ = _generate_trisolve(L, sparse_rhs(L.n, nnz=2, seed=1), SympilerOptions())
            sources.add(module.source)
            assert module.function is reference.triangular_solve
        (source,) = sources  # one text, whatever the pattern
        # The numeric code must not recompute reach sets, etrees or patterns:
        # it may only index and slice the tables it is handed.
        for forbidden in ("etree", "ereach", "inspect", "searchsorted", "reach_set("):
            assert forbidden not in source
        assert module.method == "triangular-solve"

    def test_constants_are_the_table_block(self, lower_factors):
        L = lower_factors["fem"]
        b = sparse_rhs(L.n, nnz=3, seed=2)
        module, loop = _generate_trisolve(L, b, SympilerOptions(enable_vs_block=False))
        assert list(module.constants) == ["_C_dims", "_C_seg", "_C_run_cols", "_C_blk_cs"]
        assert all(t.dtype == np.int64 and t.flags.c_contiguous for t in module.constants.values())
        assert module.constants["_C_dims"].tolist() == [L.n, 1]
        # VI-Prune's reach-set, on the domain loop and in the block.
        reach = inspect_triangular_solve(L, rhs_pattern=np.nonzero(b)[0]).reach
        assert np.array_equal(loop.contract[1]["run_cols"], reach)
        assert np.array_equal(module.constants["_C_run_cols"], reach)
        untransformed, _ = _generate_trisolve(L, b, SympilerOptions.baseline())
        assert list(untransformed.constants) == ["_C_dims"]

    def test_compile_is_cached(self, lower_factors):
        L = lower_factors["fem"]
        b = sparse_rhs(L.n, nnz=2, seed=4)
        module, _ = _generate_trisolve(L, b, SympilerOptions())
        assert module.compile() is module.compile()

    def test_codegen_seconds_recorded(self, lower_factors):
        L = lower_factors["fem"]
        b = sparse_rhs(L.n, nnz=2, seed=5)
        module, _ = _generate_trisolve(L, b, SympilerOptions())
        assert module.codegen_seconds >= 0.0
        module.compile()
        assert module.compile_seconds >= 0.0


class TestCholesky:
    @pytest.mark.parametrize(
        "options",
        [_SIMPLICIAL, _PYTHON],
        ids=["simplicial", "supernodal"],
    )
    def test_factorization_is_correct(self, spd_matrix, options):
        compiled = Sympiler().compile("cholesky", spd_matrix, options=options)
        L = compiled.factorize(spd_matrix)
        np.testing.assert_allclose(L.to_dense(), reference_cholesky(spd_matrix), atol=1e-9)

    def test_simplicial_kernel_reads_the_prune_set(self, spd_matrices):
        compiled = Sympiler().compile("cholesky", spd_matrices["laplacian_2d"], options=_SIMPLICIAL)
        assert compiled.module.function is reference.simplicial_cholesky
        assert "_C_prune_ptr" in compiled.source and "_C_prune_ptr" in compiled.constants
        assert "transpose" not in compiled.source

    def test_supernodal_kernel_reads_the_block_set(self):
        A = block_tridiagonal_spd(6, 5, seed=3, dense_coupling=True)
        compiled = Sympiler().compile("cholesky", A, options=_PYTHON)
        assert compiled.module.function is reference.supernodal_cholesky
        assert "_C_sup_start" in compiled.source and "_C_sup_start" in compiled.constants
        n_super = compiled.inspection.supernodes.n_supernodes
        assert compiled.constants["_C_dims"].tolist()[:3] == [A.n, compiled.factor_nnz, n_super]

    def test_non_positive_definite_detected_at_run_time(self):
        A = block_tridiagonal_spd(4, 4, seed=5, dense_coupling=True)
        compiled = Sympiler(_PYTHON).compile("cholesky", A)
        bad = A.copy()
        # Make the matrix indefinite while keeping the pattern identical.
        for j in range(bad.n):
            rows = bad.col_rows(j)
            pos = int(np.searchsorted(rows, j))
            bad.data[bad.indptr[j] + pos] = -1.0
        with pytest.raises(ValueError, match="not positive definite at column 0"):
            compiled.factorize(bad)


class TestBackendInfrastructure:
    def test_pattern_fingerprint_is_stable_and_sensitive(self):
        a = np.array([0, 1, 2], dtype=np.int64)
        b = np.array([0, 1, 3], dtype=np.int64)
        assert pattern_fingerprint(a) == pattern_fingerprint(a.copy())
        assert pattern_fingerprint(a) != pattern_fingerprint(b)
        assert pattern_fingerprint(a, extra="x") != pattern_fingerprint(a)
        # Fingerprints name on-disk cache entries: the digest itself (dtype,
        # shape, raw bytes; strided and empty arrays included) must not move.
        assert pattern_fingerprint(a) == "7b36b57ac44bbed5"
        empty = np.empty(0, dtype=np.int64)
        assert pattern_fingerprint(a[::-1], empty, extra="x") == "51000e40ea82def2"

    def test_a_breakdown_without_a_failure_text_still_names_the_column(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SYMPILER_CACHE", str(tmp_path))

        def broken(T, x):
            raise reference.Breakdown(np.int64(7))

        abi = CMethodSpec(inputs=(), outputs=(), loops=())
        module = GeneratedModule(
            function=broken, entry_name="qr", constants={}, method="qr", abi=abi, codegen_seconds=0.0
        )
        with pytest.raises(ValueError, match="column 7"):
            module.compile()((np.ones(1),), ())()

    @pytest.mark.parametrize("backend", ["python", "c"])
    def test_a_loop_the_kernel_does_not_run_is_refused_before_codegen(self, backend, monkeypatch):
        """The driver checks the planned role against the row's ABI once, for both backends."""
        from repro.compiler import registry

        unplanned = dataclasses.replace(kernel_spec("cholesky"), plan=lambda context: None)
        monkeypatch.setitem(registry._KERNELS, "cholesky", unplanned)
        with pytest.raises(CodegenError, match="untransformed"):
            Sympiler(SympilerOptions(backend=backend), cache=ArtifactCache()).compile("cholesky", laplacian_2d(4))


class TestKernelTextOnDisk:
    """What the backend leaves in the cache directory: one text per kernel, nothing read back."""

    def test_one_text_per_kernel_whatever_the_pattern_or_options(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SYMPILER_CACHE", str(tmp_path))
        reset_disk_cache_stats()
        sym = Sympiler(_PYTHON, cache=ArtifactCache())
        simplicial = _SIMPLICIAL
        first = sym.compile("cholesky", laplacian_2d(6, shift=0.1), options=simplicial)
        assert disk_cache_stats().py_writes == 1
        (path,) = tmp_path.iterdir()
        assert path.name.startswith("cholesky_py_") and path.suffix == ".py"
        assert path.read_text() == first.source
        # Another pattern, another option bundle that lowers to the same loop,
        # a second driver: the text is there already.
        sym.compile("cholesky", laplacian_2d(7, shift=0.1), options=SympilerOptions(backend="python", enable_vs_block=False))
        Sympiler(cache=ArtifactCache()).compile("cholesky", laplacian_2d(6, shift=0.1), options=simplicial)
        assert disk_cache_stats().py_writes == 1
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        # The supernodal loop is another function, so another text.
        A = block_tridiagonal_spd(6, 5, seed=3, dense_coupling=True)
        sym.compile("cholesky", A)
        assert disk_cache_stats().py_writes == 2
        assert len(list(tmp_path.glob("cholesky_py_*.py"))) == 2

    def test_generate_alone_writes_nothing(self, monkeypatch, tmp_path, lower_factors):
        monkeypatch.setenv("REPRO_SYMPILER_CACHE", str(tmp_path))
        reset_disk_cache_stats()
        L = lower_factors["fem"]
        module, _ = _generate_trisolve(L, sparse_rhs(L.n, nnz=2, seed=6), SympilerOptions())
        assert disk_cache_stats().py_writes == 0 and not list(tmp_path.iterdir())
        module.compile()
        assert disk_cache_stats().py_writes == 1
