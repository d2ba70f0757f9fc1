"""Tests for the specialized-Python code-generation backend."""

import numpy as np
import pytest

from repro.baselines.scipy_reference import reference_cholesky, reference_trisolve
from repro.compiler.codegen.python_backend import CodegenError, GeneratedModule, PythonBackend
from repro.compiler.codegen.runtime import pattern_fingerprint, runtime_namespace
from repro.compiler.lowering import lower_triangular_solve
from repro.compiler.options import SympilerOptions
from repro.compiler.sympiler import Sympiler
from repro.compiler.transforms.base import CompilationContext
from repro.compiler.transforms.pipeline import build_pipeline
from repro.sparse.generators import block_tridiagonal_spd, sparse_rhs
from repro.symbolic.inspector import TriangularSolveInspector


def _generate_trisolve(L, b, options):
    inspection = TriangularSolveInspector().inspect(L, rhs_pattern=np.nonzero(b)[0])
    context = CompilationContext(
        method="triangular-solve",
        matrix=L,
        inspection=inspection,
        options=options,
        rhs_pattern=inspection.rhs_pattern,
    )
    kernel = build_pipeline(options).run(lower_triangular_solve(), context)
    module = PythonBackend().generate(kernel, context)
    return module, kernel


class TestGeneratedTriangularSolve:
    @pytest.mark.parametrize(
        "options",
        [
            SympilerOptions.baseline(),
            SympilerOptions.vi_prune_only(),
            SympilerOptions.vs_block_only(),
            SympilerOptions(enable_low_level=False),
            SympilerOptions(),
        ],
        ids=["baseline", "vi-prune", "vs-block", "vs+vi", "full"],
    )
    def test_generated_solve_is_correct(self, lower_factors, options):
        for L in lower_factors.values():
            b = sparse_rhs(L.n, density=0.05, seed=13)
            module, _ = _generate_trisolve(L, b, options)
            fn = module.compile()
            x = fn(L.indptr, L.indices, L.data, b)
            np.testing.assert_allclose(x, reference_trisolve(L, b), atol=1e-9)

    def test_source_contains_no_symbolic_calls(self, lower_factors):
        L = lower_factors["block"]
        b = sparse_rhs(L.n, nnz=2, seed=1)
        module, _ = _generate_trisolve(L, b, SympilerOptions())
        # The generated numeric code must not recompute reach sets, etrees or
        # patterns: it may only index, slice and call the dense runtime.
        for forbidden in ("etree", "ereach", "inspect", "searchsorted", "reach_set("):
            assert forbidden not in module.source
        assert module.method == "triangular-solve"
        assert module.line_count > 5

    def test_constants_are_exposed(self, lower_factors):
        L = lower_factors["fem"]
        b = sparse_rhs(L.n, nnz=3, seed=2)
        module, kernel = _generate_trisolve(L, b, SympilerOptions.vi_prune_only())
        assert any(name.startswith("_C_") for name in module.constants)
        # The kernel function mirrors the embedded constants for introspection.
        assert set(module.constants) <= set(kernel.constants) | set(
            f"_C_{k}" for k in kernel.constants
        ) | set(module.constants)

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


class TestGeneratedCholesky:
    @pytest.mark.parametrize(
        "options",
        [
            SympilerOptions.vi_prune_only(),
            SympilerOptions(enable_low_level=False),
            SympilerOptions(),
        ],
        ids=["simplicial", "supernodal", "supernodal+lowlevel"],
    )
    def test_generated_factorization_is_correct(self, spd_matrix, options):
        compiled = Sympiler().compile_cholesky(spd_matrix, options=options)
        L = compiled.factorize(spd_matrix)
        np.testing.assert_allclose(L.to_dense(), reference_cholesky(spd_matrix), atol=1e-9)

    def test_generated_source_structure_simplicial(self, spd_matrices):
        compiled = Sympiler().compile_cholesky(
            spd_matrices["laplacian_2d"], options=SympilerOptions.vi_prune_only()
        )
        assert "simplicial left-looking factorization" in compiled.source
        assert "_C_prune_ptr" in compiled.source
        assert "transpose" not in compiled.source

    def test_generated_source_structure_supernodal(self):
        A = block_tridiagonal_spd(6, 5, seed=3, dense_coupling=True)
        compiled = Sympiler().compile_cholesky(A, options=SympilerOptions())
        assert "supernodal left-looking factorization" in compiled.source
        assert "_C_sup_start" in compiled.source
        # Loop distribution emits the streamlined single-column path.
        assert "streamlined single-column path" in compiled.source

    def test_non_positive_definite_detected_at_run_time(self):
        A = block_tridiagonal_spd(4, 4, seed=5, dense_coupling=True)
        compiled = Sympiler().compile_cholesky(A)
        bad = A.copy()
        # Make the matrix indefinite while keeping the pattern identical.
        for j in range(bad.n):
            rows = bad.col_rows(j)
            pos = int(np.searchsorted(rows, j))
            bad.data[bad.indptr[j] + pos] = -1.0
        with pytest.raises(ValueError):
            compiled.factorize(bad)


class TestBackendInfrastructure:
    def test_runtime_namespace_contents(self):
        rt = runtime_namespace()
        for name in (
            "dense_cholesky",
            "dense_lower_solve",
            "dense_solve_transposed_right",
            "small_cholesky",
            "small_lower_solve",
        ):
            assert callable(getattr(rt, name))

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

    def test_generated_module_requires_entry_point(self):
        module = GeneratedModule(
            source="y = 1\n",
            entry_name="missing",
            constants={},
            method="triangular-solve",
            codegen_seconds=0.0,
        )
        with pytest.raises(CodegenError):
            module.compile()

    def test_unsupported_method_rejected(self, lower_factors):
        L = lower_factors["fem"]
        b = sparse_rhs(L.n, nnz=2, seed=6)
        options = SympilerOptions()
        inspection = TriangularSolveInspector().inspect(L, rhs_pattern=np.nonzero(b)[0])
        context = CompilationContext(
            method="triangular-solve",
            matrix=L,
            inspection=inspection,
            options=options,
        )
        kernel = build_pipeline(options).run(lower_triangular_solve(), context)
        kernel.method = "qr"
        with pytest.raises(CodegenError):
            PythonBackend().generate(kernel, context)


class TestPersistedSourceCache:
    """Cross-process sharing of generated python sources (disk cache)."""

    def test_persist_and_reload_across_drivers(self, monkeypatch, tmp_path):
        from repro.compiler.cache import ArtifactCache
        from repro.compiler.codegen.c_backend import (
            disk_cache_stats,
            reset_disk_cache_stats,
        )
        from repro.compiler.sympiler import Sympiler
        from repro.sparse.generators import laplacian_2d

        monkeypatch.setenv("REPRO_SYMPILER_CACHE", str(tmp_path))
        reset_disk_cache_stats()
        A = laplacian_2d(6, shift=0.1)

        first = Sympiler(cache=ArtifactCache()).compile("cholesky", A)
        stats = disk_cache_stats()
        assert stats.py_writes == 1 and stats.py_reuses == 0
        assert list(tmp_path.glob("cholesky_py_*.py"))
        assert list(tmp_path.glob("cholesky_py_*.npz"))

        # A fresh driver + fresh in-memory cache (the same situation as a new
        # process) loads source and constants back instead of regenerating.
        second = Sympiler(cache=ArtifactCache()).compile("cholesky", A)
        stats = disk_cache_stats()
        assert stats.py_writes == 1 and stats.py_reuses == 1
        assert second.source == first.source
        assert set(second.constants) == set(first.constants)
        L1 = first.factorize(A)
        L2 = second.factorize(A)
        assert np.array_equal(L1.data, L2.data)

    def test_different_options_do_not_alias(self, monkeypatch, tmp_path):
        from repro.compiler.cache import ArtifactCache
        from repro.compiler.codegen.c_backend import (
            disk_cache_stats,
            reset_disk_cache_stats,
        )
        from repro.compiler.sympiler import Sympiler
        from repro.sparse.generators import laplacian_2d

        monkeypatch.setenv("REPRO_SYMPILER_CACHE", str(tmp_path))
        reset_disk_cache_stats()
        A = laplacian_2d(6, shift=0.1)
        sym = Sympiler(cache=ArtifactCache())
        sym.compile("cholesky", A, options=SympilerOptions())
        sym.compile("cholesky", A, options=SympilerOptions(enable_vs_block=False))
        # Two distinct option bundles -> two persisted modules, zero reuses.
        assert disk_cache_stats().py_writes == 2
        assert disk_cache_stats().py_reuses == 0

    def test_direct_backend_use_skips_disk(self, monkeypatch, tmp_path, lower_factors):
        """A context without a cache token (tests, ad-hoc use) stays in memory."""
        from repro.compiler.codegen.c_backend import (
            disk_cache_stats,
            reset_disk_cache_stats,
        )

        monkeypatch.setenv("REPRO_SYMPILER_CACHE", str(tmp_path))
        reset_disk_cache_stats()
        L = lower_factors["fem"]
        b = sparse_rhs(L.n, nnz=2, seed=6)
        options = SympilerOptions()
        inspection = TriangularSolveInspector().inspect(L, rhs_pattern=np.nonzero(b)[0])
        context = CompilationContext(
            method="triangular-solve",
            matrix=L,
            inspection=inspection,
            options=options,
            rhs_pattern=inspection.rhs_pattern,
        )
        kernel = build_pipeline(options).run(lower_triangular_solve(), context)
        PythonBackend().generate(kernel, context)
        assert disk_cache_stats().py_writes == 0
        assert not list(tmp_path.iterdir())

    def test_same_named_kernels_from_other_registries_do_not_alias(
        self, monkeypatch, tmp_path
    ):
        """The disk stem carries the spec's lowering identity, not just its name."""
        from repro.compiler.cache import ArtifactCache
        from repro.compiler.codegen.c_backend import (
            disk_cache_stats,
            reset_disk_cache_stats,
        )
        from repro.compiler.lowering import lower_cholesky
        from repro.compiler.registry import KernelRegistry, KernelSpec
        from repro.compiler.registry import kernel_spec as default_spec
        from repro.compiler.sympiler import Sympiler
        from repro.symbolic.inspector import CholeskyInspector
        from repro.compiler.artifacts import SympiledCholesky
        from repro.sparse.generators import laplacian_2d

        monkeypatch.setenv("REPRO_SYMPILER_CACHE", str(tmp_path))
        reset_disk_cache_stats()
        A = laplacian_2d(6, shift=0.1)
        Sympiler(cache=ArtifactCache()).compile("cholesky", A)

        def my_lower_cholesky():
            return lower_cholesky()

        custom = KernelRegistry()
        custom.register(
            KernelSpec(
                name="cholesky",
                lower=my_lower_cholesky,
                inspector_cls=CholeskyInspector,
                artifact_cls=SympiledCholesky,
                runtime_signature=("Ap", "Ai", "Ax"),
                requires_vi_prune=default_spec("cholesky").requires_vi_prune,
                inspect_kwargs=default_spec("cholesky").inspect_kwargs,
            )
        )
        Sympiler(cache=ArtifactCache(), registry=custom).compile("cholesky", A)
        # Same kernel name + same pattern + same options, but a different
        # lowering: a second persisted module, not a (wrong) reuse.
        assert disk_cache_stats().py_writes == 2
        assert disk_cache_stats().py_reuses == 0
