"""Tests for the kernel table and the pattern-keyed artifact cache."""

import numpy as np
import pytest

from repro.compiler.artifacts import (
    PatternMismatchError,
    SympiledCholesky,
    SympiledIC0,
    SympiledLDLT,
    SympiledLU,
    SympiledTriangularSolve,
)
from repro.compiler.cache import ArtifactCache, cache_key, options_fingerprint
from repro.compiler.options import SympilerOptions
from repro.compiler.plan import plan_cholesky, plan_incomplete, plan_lu, plan_triangular_solve
from repro.compiler.registry import UnknownKernelError, kernel_spec, registered_kernels
from repro.compiler.sympiler import Sympiler
from repro.sparse.generators import laplacian_2d, saddle_point_indefinite, sparse_rhs


def fresh_sympiler(options=None):
    """A Sympiler with an isolated cache (tests must not share hit counters)."""
    return Sympiler(options, cache=ArtifactCache())


class TestRegistry:
    def test_builtin_kernels_are_registered(self):
        names = registered_kernels()
        assert names == ("cholesky", "ic0", "ldlt", "lu", "triangular-solve")

    def test_every_kernel_is_timed_by_a_bench_experiment(self):
        # A kernel joins the table only with an experiment that times it.
        from repro.bench.runner import KERNELS

        assert set(registered_kernels()) == set(KERNELS)

    @pytest.mark.parametrize("name", registered_kernels())
    def test_some_experiment_times_each_kernel(self, name):
        from repro.bench.experiments import EXPERIMENTS
        from repro.bench.runner import KERNELS

        assert name in KERNELS
        timed = {kernel for experiment in EXPERIMENTS.values() for kernel, _ in experiment.variants.values()}
        assert name in timed

    @pytest.mark.parametrize(
        "alias", ["trisolve", "triangular", "ldl", "gp-lu", "incomplete-cholesky", "incomplete-lu"]
    )
    def test_the_aliases_are_gone(self, alias):
        with pytest.raises(UnknownKernelError, match=alias):
            kernel_spec(alias)

    @pytest.mark.parametrize(
        "name, plan, artifact_cls, requires_vi_prune, kernel_args",
        [
            ("triangular-solve", plan_triangular_solve, SympiledTriangularSolve, False, ("rhs_pattern",)),
            ("cholesky", plan_cholesky, SympiledCholesky, True, ()),
            ("ldlt", plan_cholesky, SympiledLDLT, True, ()),
            ("lu", plan_lu, SympiledLU, True, ()),
            ("ic0", plan_incomplete, SympiledIC0, True, ()),
        ],
    )
    def test_spec_declares_pipeline_ingredients(self, name, plan, artifact_cls, requires_vi_prune, kernel_args):
        spec = kernel_spec(name)
        assert spec.name == name
        assert spec.plan is plan
        assert spec.artifact_cls is artifact_cls
        assert spec.requires_vi_prune is requires_vi_prune
        assert spec.kernel_args == kernel_args

    def test_the_registration_api_is_gone(self):
        import importlib

        import repro.compiler as compiler
        from repro.compiler.codegen import python_backend

        for name in ("KernelRegistry", "register_kernel", "default_registry", "DuplicateKernelError"):
            assert not hasattr(compiler, name), name
        assert not hasattr(python_backend, "register_python_method")
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.compiler.registration")
        with pytest.raises(TypeError, match="registry"):
            Sympiler(registry=None)

    def test_every_kernel_has_an_emitter_and_a_reference_kernel(self):
        """Adding a kernel is one table entry plus its two backends' entries."""
        from repro.compiler.codegen.c_backend import _C_METHOD_SPECS
        from repro.compiler.codegen.python_backend import _PY_METHOD_SPECS

        assert set(_C_METHOD_SPECS) == set(_PY_METHOD_SPECS) == set(registered_kernels())

    def test_unknown_kernel_error_lists_available(self):
        with pytest.raises(UnknownKernelError, match="cholesky"):
            kernel_spec("qr")

    def test_compile_rejects_unknown_kernel(self):
        with pytest.raises(UnknownKernelError):
            fresh_sympiler().compile("qr", laplacian_2d(4))

    def test_compile_rejects_undeclared_kernel_args(self):
        sym = fresh_sympiler()
        with pytest.raises(TypeError, match="rhs_pattern"):
            sym.compile("cholesky", laplacian_2d(4), rhs_pattern=[0])

    @pytest.mark.parametrize("name", registered_kernels())
    def test_each_spec_names_the_inspector_of_its_kernel(self, name):
        assert kernel_spec(name).inspector_cls().method == name


class TestGenericCompile:
    def test_generic_compile_matches_wrappers(self, spd_matrices):
        A = spd_matrices["fem"]
        sym = fresh_sympiler()
        via_generic = sym.compile("cholesky", A)
        via_wrapper = sym.compile_cholesky(A)
        assert via_wrapper is via_generic  # same pattern+options -> cache hit

    def test_all_three_kernels_compile_through_one_path(self, lower_factors):
        sym = fresh_sympiler()
        A = laplacian_2d(6)
        chol = sym.compile("cholesky", A)
        ldlt = sym.compile("ldlt", A)
        tri = sym.compile("triangular-solve", lower_factors["fem"])
        assert isinstance(chol, SympiledCholesky)
        assert isinstance(ldlt, SympiledLDLT)
        assert isinstance(tri, SympiledTriangularSolve)

    def test_pattern_mismatch_for_all_three_kernels(self, spd_matrices, lower_factors):
        sym = fresh_sympiler()
        chol = sym.compile("cholesky", spd_matrices["fem"])
        with pytest.raises(PatternMismatchError):
            chol.verify_pattern(spd_matrices["banded"])
        ldlt = sym.compile("ldlt", spd_matrices["fem"])
        with pytest.raises(PatternMismatchError):
            ldlt.verify_pattern(spd_matrices["banded"])
        tri = sym.compile("triangular-solve", lower_factors["fem"])
        with pytest.raises(PatternMismatchError):
            tri.verify_pattern(lower_factors["banded"])
        # The matching pattern passes.
        chol.verify_pattern(spd_matrices["fem"])
        ldlt.verify_pattern(spd_matrices["fem"])
        tri.verify_pattern(lower_factors["fem"])


class TestArtifactCache:
    def test_second_compile_is_a_cache_hit(self):
        sym = fresh_sympiler()
        A = laplacian_2d(7)
        first = sym.compile("cholesky", A)
        assert sym.cache_stats.misses == 1 and sym.cache_stats.hits == 0
        second = sym.compile("cholesky", A)
        assert second is first
        assert sym.cache_stats.hits == 1 and sym.cache_stats.misses == 1
        # No inspection/codegen cost re-incurred: the timings object is the
        # one recorded at first compile, by identity.
        assert second.timings is first.timings

    def test_cache_hit_on_equal_but_distinct_matrix_object(self):
        sym = fresh_sympiler()
        A = saddle_point_indefinite(15, 5, seed=2)
        first = sym.compile("ldlt", A)
        B = A.copy()
        B.data *= 3.0  # same pattern, different values
        second = sym.compile("ldlt", B)
        assert second is first

    def test_options_hash_invalidates(self):
        sym = fresh_sympiler()
        A = laplacian_2d(7)
        full = sym.compile("cholesky", A, options=SympilerOptions())
        ablated = sym.compile("cholesky", A, options=SympilerOptions(enable_vs_block=False))
        assert ablated is not full
        assert sym.cache_stats.misses == 2
        assert options_fingerprint(SympilerOptions()) != options_fingerprint(
            SympilerOptions(enable_vs_block=False)
        )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("backend", "python"),
            ("enable_vi_prune", False),
            ("enable_vs_block", False),
            ("parallel", "wavefront"),
            ("c_compiler", "clang"),
            ("c_flags", ("-O2", "-fPIC", "-shared")),
        ],
    )
    def test_every_option_field_is_part_of_the_fingerprint(self, field, value):
        # No field is runtime-only any more: each one keys its own artifact.
        assert options_fingerprint(SympilerOptions()) != options_fingerprint(SympilerOptions(**{field: value}))

    def test_kernel_name_is_part_of_the_key(self):
        sym = fresh_sympiler()
        A = laplacian_2d(6)
        chol = sym.compile("cholesky", A)
        ldlt = sym.compile("ldlt", A)
        assert chol is not ldlt
        assert sym.cache_stats.misses == 2

    def test_one_shot_iterable_rhs_pattern_is_consumed_once(self, lower_factors):
        # A generator must yield the same kernel (and cache entry) as a list.
        sym = fresh_sympiler()
        L = lower_factors["fem"]
        via_generator = sym.compile(
            "triangular-solve", L, rhs_pattern=(i for i in [0, 3])
        )
        assert via_generator.reach_size == sym.compile(
            "triangular-solve", L, rhs_pattern=[0, 3]
        ).reach_size
        assert via_generator.reach_size > 0
        assert sym.compile("triangular-solve", L, rhs_pattern=[0, 3]) is via_generator

    def test_out_of_range_rhs_fails_even_on_a_warm_cache(self, lower_factors):
        sym = fresh_sympiler()
        L = lower_factors["fem"]
        sym.compile("triangular-solve", L)  # warm the dense entry
        bad = list(range(L.n - 1)) + [L.n + 5]  # n unique indices, one invalid
        with pytest.raises(IndexError):
            sym.compile("triangular-solve", L, rhs_pattern=bad)

    def test_rhs_pattern_is_part_of_the_fingerprint(self, lower_factors):
        sym = fresh_sympiler()
        L = lower_factors["fem"]
        one = sym.compile("triangular-solve", L, rhs_pattern=[0])
        other = sym.compile("triangular-solve", L, rhs_pattern=[1])
        dense = sym.compile("triangular-solve", L)
        assert one is not other and one is not dense
        # Normalization: duplicated/unsorted indices hit the same entry.
        again = sym.compile("triangular-solve", L, rhs_pattern=[0, 0])
        assert again is one

    def test_lru_eviction(self):
        cache = ArtifactCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a
        cache.put("c", 3)  # evicts b
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.stats.evictions == 1

    def test_cache_clear_keeps_the_counters(self):
        cache = ArtifactCache()
        key = cache_key("cholesky", "fp", SympilerOptions())
        cache.put(key, object())
        assert cache.get(key) is not None
        assert key in cache and len(cache) == 1
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.lookups == 1 and cache.stats.hit_rate == 1.0

    def test_forced_vi_prune_does_not_alias_explicit_options(self, spd_matrices):
        # baseline() (VI-Prune forced on) and VI-Prune alone generate the
        # same code but record different decisions; they must not collide.
        sym = fresh_sympiler()
        A = spd_matrices["circuit"]
        forced = sym.compile("cholesky", A, options=SympilerOptions.baseline())
        explicit = sym.compile("cholesky", A, options=SympilerOptions(enable_vs_block=False))
        assert forced is not explicit
        assert forced.decisions.get("vi-prune-forced") is True
        assert "vi-prune-forced" not in explicit.decisions

    def test_solver_reuses_cached_kernels_across_refactorizations(self):
        from repro.solvers.linear_solver import SparseLinearSolver

        A = laplacian_2d(8)
        solver = SparseLinearSolver(A, ordering="mindeg")
        lookups_after_setup = solver.cache_stats.lookups
        A2 = A.copy()
        A2.data *= 4.0
        solver.factorize(A2)
        # Refactorization on the same pattern triggers no compiles at all —
        # not even cache lookups (fingerprinting is off the hot path).
        assert solver.cache_stats.lookups == lookups_after_setup
        b = np.ones(A.n)
        x = solver.solve(b)
        assert solver.residual(x, b) < 1e-8

    def test_second_solver_instance_hits_the_shared_cache(self):
        from repro.solvers.linear_solver import SparseLinearSolver

        A = laplacian_2d(8)
        first = SparseLinearSolver(A, ordering="mindeg")
        hits0, misses0 = first.cache_stats.hits, first.cache_stats.misses
        second = SparseLinearSolver(A, ordering="mindeg")
        # Same pattern + options: the one compile of the second solver (its
        # factorization, whose module carries the solve entry) is a cache hit.
        assert second.cache_stats.misses == misses0
        assert second.cache_stats.hits == hits0 + 1
        b = np.ones(A.n)
        assert second.residual(second.solve(b), b) < 1e-8


class TestNoKernelBranchesInDriver:
    def test_sympiler_compile_has_no_kernel_specific_branches(self):
        """The driver must stay generic: adding a kernel = registering a spec."""
        import inspect

        from repro.compiler import sympiler as driver_module

        source = inspect.getsource(driver_module.Sympiler.compile)
        for kernel_name in registered_kernels():
            assert f"'{kernel_name}'" not in source
            assert f'"{kernel_name}"' not in source

    def test_lu_registration_left_driver_and_cache_untouched(self):
        """LU must integrate through the method tables alone (the PR-2 claim).

        ``Sympiler.compile`` and the artifact cache must contain no LU-specific
        branch: the only integration points are the registry spec, its plan
        function and the backend method-spec tables.
        """
        import inspect

        from repro.compiler import cache as cache_module
        from repro.compiler import sympiler as driver_module
        from repro.compiler.codegen.c_backend import _C_METHOD_SPECS
        from repro.compiler.codegen.python_backend import _PY_METHOD_SPECS

        for module in (driver_module, cache_module):
            source = inspect.getsource(module)
            assert '"lu"' not in source and "'lu'" not in source, (
                f"{module.__name__} must not special-case the lu kernel"
            )
        # The declared integration points, and nothing else, know about lu.
        assert kernel_spec("lu").name == "lu"
        assert "lu" in _PY_METHOD_SPECS and "lu" in _C_METHOD_SPECS
        assert kernel_spec("lu").plan is plan_lu

    def test_ic0_registration_left_driver_and_cache_untouched(self):
        """IC(0) must integrate through the method tables alone.

        ``Sympiler.compile`` and the artifact cache must contain no
        incomplete-kernel-specific branch: the only integration points are
        the registry spec, its plan function and the backend method-spec
        tables — the same invariance asserted for LU.
        """
        import inspect

        from repro.compiler import cache as cache_module
        from repro.compiler import sympiler as driver_module
        from repro.compiler.codegen.c_backend import _C_METHOD_SPECS
        from repro.compiler.codegen.python_backend import _PY_METHOD_SPECS

        for module in (driver_module, cache_module):
            source = inspect.getsource(module)
            assert '"ic0"' not in source and "'ic0'" not in source, (
                f"{module.__name__} must not special-case the ic0 kernel"
            )
        # The declared integration points, and nothing else, know about it.
        assert kernel_spec("ic0").name == "ic0"
        assert "ic0" in _PY_METHOD_SPECS and "ic0" in _C_METHOD_SPECS
        assert kernel_spec("ic0").plan is plan_incomplete

    def test_incomplete_kernels_share_the_artifact_cache(self):
        from repro.compiler.cache import ArtifactCache
        from repro.compiler.sympiler import Sympiler
        from repro.sparse.generators import laplacian_2d

        A = laplacian_2d(7, shift=0.1)
        sym = Sympiler(cache=ArtifactCache())
        first = sym.compile("ic0", A)
        hits0, misses0 = sym.cache_stats.hits, sym.cache_stats.misses
        assert sym.compile("ic0", A) is first
        assert sym.cache_stats.hits == hits0 + 1
        assert sym.cache_stats.misses == misses0

    def test_two_lu_solvers_share_one_compiled_artifact(self):
        from repro.solvers.linear_solver import SparseLinearSolver
        from repro.sparse.generators import unsymmetric_diag_dominant

        A = unsymmetric_diag_dominant(40, seed=77)
        first = SparseLinearSolver(A, method="lu", ordering="mindeg")
        hits0, misses0 = first.cache_stats.hits, first.cache_stats.misses
        second = SparseLinearSolver(A, method="lu", ordering="mindeg")
        # Same pattern + options: the factorization of the second solver
        # (the L- and U-sweeps are its module's solve entry) is a cache hit.
        assert second.cache_stats.misses == misses0
        assert second.cache_stats.hits == hits0 + 1
        assert second._factorization is first._factorization
        b = np.ones(A.n)
        assert second.residual(second.solve(b), b) < 1e-8

    def test_rhs_normalization_matches_inspector(self, lower_factors):
        # The spec's fingerprint hook and the artifact's verify_pattern (which
        # uses the inspector's normalized rhs) must agree.
        sym = fresh_sympiler()
        L = lower_factors["banded"]
        b = sparse_rhs(L.n, nnz=3, seed=5)
        compiled = sym.compile(
            "triangular-solve", L, rhs_pattern=np.nonzero(b)[0]
        )
        compiled.verify_pattern(L)  # does not raise
