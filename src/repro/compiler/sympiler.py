"""The Sympiler driver: symbolic inspection → transformation → code generation.

:class:`Sympiler` is the user-facing compiler.  It is a *generic* driver: the
per-kernel knowledge (inspector, plan function, artifact type, cache
fingerprint) lives in one static table of
:class:`~repro.compiler.registry.KernelSpec` (:mod:`repro.compiler.registry`),
and :meth:`Sympiler.compile` walks the spec of the requested kernel name.
Adding a kernel therefore means adding an entry to that table; the driver
itself contains no kernel-specific branches.

Compiled artifacts are cached in a pattern-keyed LRU
(:mod:`repro.compiler.cache`): a second ``compile`` for an identical pattern,
kernel and option bundle returns the previously built artifact without
re-running inspection, transformation or code generation — the amortization
that makes the factor-once/solve-many scenarios of §1.2 pay off.
"""

from __future__ import annotations

import time
import warnings
from typing import Optional, Sequence, Set

import numpy as np

from repro.compiler.artifacts import (
    CompiledArtifact,
    CompileTimings,
    PatternMismatchError,
    SympiledCholesky,
    SympiledLDLT,
    SympiledTriangularSolve,
)
from repro.compiler.cache import ArtifactCache, CacheStats, cache_key
from repro.compiler.codegen.c_backend import CBackend, c_compiler_available
from repro.compiler.codegen.python_backend import PythonBackend
from repro.compiler.options import SympilerOptions
from repro.compiler.plan import CompilationContext
from repro.compiler.registry import kernel_spec
from repro.observe.trace import span
from repro.sparse.csc import CSCMatrix

__all__ = [
    "Sympiler",
    "SympiledTriangularSolve",
    "SympiledCholesky",
    "SympiledLDLT",
    "PatternMismatchError",
    "CompileTimings",
]


#: Compiler executables a fallback warning has already been emitted for, so a
#: toolchain-free environment sees one warning instead of one per compile.
_FALLBACK_WARNED: Set[str] = set()


def _c_backend_or_fallback(options: SympilerOptions):
    """The C backend, or the Python backend when no C toolchain exists.

    Environments without a working ``cc`` (minimal containers, bare CI
    runners) still get a functioning — just slower — compiler pipeline
    instead of an error; the degradation is announced once per missing
    compiler.  Set ``REPRO_CC`` (or ``SympilerOptions.c_compiler``) to point
    at a specific toolchain.
    """
    if not c_compiler_available(options.c_compiler):
        if options.c_compiler not in _FALLBACK_WARNED:
            _FALLBACK_WARNED.add(options.c_compiler)
            warnings.warn(
                f"C compiler {options.c_compiler!r} not found; falling back to "
                "the python code-generation backend",
                RuntimeWarning,
                stacklevel=4,
            )
        return PythonBackend()
    return CBackend(compiler=options.c_compiler, flags=options.c_flags)


_BACKEND_FACTORIES = {
    "python": lambda options: PythonBackend(),
    "c": _c_backend_or_fallback,
}


def _backend_for(options: SympilerOptions):
    factory = _BACKEND_FACTORIES.get(options.backend)
    if factory is None:
        raise ValueError(f"unknown backend {options.backend!r}")
    return factory(options)


#: Process-wide artifact cache shared by every ``Sympiler()`` that does not
#: bring its own — so independent drivers (solver instances, bench harness
#: experiments) amortize compiles of the same pattern.
_SHARED_CACHE = ArtifactCache()


class Sympiler:
    """The symbolic-enabled code generator (the paper's Figure 2 pipeline).

    Parameters
    ----------
    options:
        Default code-generation options (overridable per ``compile`` call).
    cache:
        Artifact cache; defaults to a process-wide shared cache.  Pass a fresh
        :class:`~repro.compiler.cache.ArtifactCache` to isolate (e.g. tests).
    """

    def __init__(
        self,
        options: Optional[SympilerOptions] = None,
        *,
        cache: Optional[ArtifactCache] = None,
    ) -> None:
        self.options = options or SympilerOptions()
        self.cache = cache if cache is not None else _SHARED_CACHE

    # ------------------------------------------------------------------ #
    def compile(
        self,
        kernel: str,
        matrix: CSCMatrix,
        options: Optional[SympilerOptions] = None,
        **kernel_args,
    ) -> CompiledArtifact:
        """Compile the named kernel, specialized to ``matrix``'s pattern.

        Parameters
        ----------
        kernel:
            A kernel name (:func:`~repro.compiler.registry.registered_kernels`).
        matrix:
            The input pattern — ``L`` for triangular solve, ``A`` for the
            factorizations.  Only its structure is read here.
        options:
            Per-call options overriding the compiler's defaults.
        kernel_args:
            Kernel-specific arguments declared by the spec (e.g.
            ``rhs_pattern`` for the triangular solve).

        Returns the spec's artifact; an identical (pattern, kernel, options)
        triple returns the cached artifact without recompiling.
        """
        spec = kernel_spec(kernel)
        spec.validate_args(kernel_args)
        # Canonicalize the arguments exactly once: one-shot iterables are
        # materialized and invalid input fails here, before the cache is
        # consulted, so error behaviour never depends on cache state.
        kernel_args = spec.normalize_args(matrix, kernel_args)
        options = options or self.options

        # The cache key uses the *requested* options: a forced-VI-Prune
        # compile must not alias a compile that asked for VI-Prune outright,
        # since their decision records differ even when the code does not.
        fingerprint = spec.fingerprint(matrix, kernel_args)
        key = cache_key(spec.name, fingerprint, options)

        forced_vi_prune = False
        if spec.requires_vi_prune and not options.enable_vi_prune:
            options = options.with_updates(enable_vi_prune=True)
            forced_vi_prune = True

        # Single-flight through the cache: concurrent compiles of the same
        # (kernel, pattern, options) — service worker threads registering one
        # pattern — collapse to one build; the other callers share the
        # resulting artifact instead of double-compiling.
        return self.cache.get_or_build(
            key,
            lambda: self._build(
                spec, matrix, options, kernel_args, fingerprint, forced_vi_prune
            ),
        )

    def _build(
        self,
        spec,
        matrix: CSCMatrix,
        options: SympilerOptions,
        kernel_args: dict,
        fingerprint: str,
        forced_vi_prune: bool,
    ) -> CompiledArtifact:
        """Run the full inspection → transformation → codegen pipeline once."""
        with span("compile", kernel=spec.name, backend=options.backend, fingerprint=fingerprint) as sp:
            artifact = self._build_traced(
                spec, matrix, options, kernel_args, fingerprint, forced_vi_prune
            )
            # True when no `cc` ran: the .so was on disk already — a disk-warm
            # start, or another pattern that generated the same C source.
            sp.set(so_shared=getattr(artifact.module, "so_shared", False))
            return artifact

    def _build_traced(
        self,
        spec,
        matrix: CSCMatrix,
        options: SympilerOptions,
        kernel_args: dict,
        fingerprint: str,
        forced_vi_prune: bool,
    ) -> CompiledArtifact:
        inspector = spec.inspector_cls()
        with span("inspect", kernel=spec.name):
            inspection = inspector.inspect(
                matrix, **spec.inspect_kwargs(options, kernel_args)
            )

        context = CompilationContext(method=spec.name, matrix=matrix, inspection=inspection, options=options)
        if forced_vi_prune:
            context.decisions["vi-prune-forced"] = True

        t0 = time.perf_counter()
        with span("transform", kernel=spec.name):
            loop = spec.plan(context)
        transform_seconds = time.perf_counter() - t0

        backend = _backend_for(options)
        # The entry point is named after the kernel, as a C identifier.
        entry_name = spec.name.replace("-", "_")
        with span("codegen", kernel=spec.name, backend=options.backend):
            module = backend.generate(loop, spec.name, entry_name, context)
        entry = module.compile()
        timings = CompileTimings(
            inspection=inspection.symbolic_seconds,
            transformation=transform_seconds,
            codegen=module.codegen_seconds,
            compile=module.compile_seconds,
        )
        return spec.artifact_cls(
            loop=loop,
            module=module,
            entry=entry,
            options=options,
            applied_transformations=list(context.applied),
            decisions=dict(context.decisions),
            timings=timings,
            fingerprint=fingerprint,
            operand_nnz=matrix.nnz,
            inspection=inspection,
        )

    # ------------------------------------------------------------------ #
    # Convenience wrappers (thin aliases over the generic entry point)
    # ------------------------------------------------------------------ #
    def compile_triangular_solve(
        self,
        L: CSCMatrix,
        rhs_pattern: Optional[Sequence[int] | np.ndarray] = None,
        options: Optional[SympilerOptions] = None,
    ) -> SympiledTriangularSolve:
        """Generate a solver for ``L x = b`` specialized to ``L``'s pattern.

        ``rhs_pattern`` holds the nonzero indices of the right-hand side;
        ``None`` means dense.
        """
        return self.compile("triangular-solve", L, options=options, rhs_pattern=rhs_pattern)

    def compile_cholesky(
        self,
        A: CSCMatrix,
        options: Optional[SympilerOptions] = None,
    ) -> SympiledCholesky:
        """Generate a Cholesky factorization specialized to ``A``'s pattern."""
        return self.compile("cholesky", A, options=options)

    # ------------------------------------------------------------------ #
    @property
    def cache_stats(self) -> CacheStats:
        """Hit/miss counters of the artifact cache this driver uses.

        With the default process-wide shared cache these counters aggregate
        every driver in the process; construct ``Sympiler(cache=ArtifactCache())``
        for per-driver counters.
        """
        return self.cache.stats
