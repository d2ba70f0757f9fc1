"""The Sympiler driver: symbolic inspection → transformation → code generation.

:class:`Sympiler` is the user-facing compiler.  It is a *generic* driver: the
per-kernel knowledge (inspect function, plan function, artifact type, entry
ABI) lives in one static table of
:class:`~repro.compiler.registry.KernelSpec` rows (:mod:`repro.compiler.registry`),
and :meth:`Sympiler.compile` walks the row of the requested kernel name.
Adding a kernel therefore means adding a row to that table; the driver
itself contains no kernel-specific branches.

Compiled artifacts are cached in a pattern-keyed LRU
(:mod:`repro.compiler.cache`): a second ``compile`` for an identical pattern,
kernel and option bundle returns the previously built artifact without
re-running inspection, transformation or code generation — the amortization
that makes the factor-once/solve-many scenarios of §1.2 pay off.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

import numpy as np

from repro.compiler.artifacts import CompiledArtifact, CompileTimings
from repro.compiler.cache import ArtifactCache, cache_key
from repro.compiler.codegen.c_backend import CBackend
from repro.compiler.codegen.python_backend import PythonBackend
from repro.compiler.codegen.runtime import pattern_fingerprint, rhs_fingerprint_extra
from repro.compiler.options import SympilerOptions
from repro.compiler.plan import CompilationContext
from repro.compiler.registry import kernel_spec
from repro.observe.trace import span
from repro.sparse.csc import CSCMatrix
from repro.symbolic import native
from repro.symbolic.inspector import normalize_rhs_pattern

__all__ = ["Sympiler", "CodegenError"]


class CodegenError(RuntimeError):
    """Raised when the plan chose a domain loop the kernel's entry is not printed from."""


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
        *,
        rhs_pattern: Optional[Sequence[int] | np.ndarray] = None,
    ) -> CompiledArtifact:
        """Compile the named kernel, specialized to ``matrix``'s pattern.

        Parameters
        ----------
        kernel:
            A kernel name (:func:`~repro.compiler.registry.registered_kernels`).
        matrix:
            The input pattern — ``L`` for triangular solve, ``A`` for the
            factorizations.  Only its structure is read.
        options:
            Per-call options overriding the compiler's defaults.
        rhs_pattern:
            The triangular solve's right-hand-side nonzero indices (``None``:
            dense); a factorization given one raises ``TypeError``.

        Returns the kernel's artifact; an identical (pattern, kernel, options)
        triple returns the cached artifact without recompiling.
        """
        spec = kernel_spec(kernel)
        options = options or self.options
        if spec.factorization:
            if rhs_pattern is not None:
                raise TypeError(f"kernel {spec.name!r} takes no rhs_pattern")
            rhs, extra = (), ""
        else:
            # Normalized exactly once: a one-shot iterable is read once and a
            # bad index fails here, before the cache is consulted, so error
            # behaviour never depends on cache state.
            rhs = (normalize_rhs_pattern(matrix.n, rhs_pattern),)
            extra = rhs_fingerprint_extra(matrix.n, rhs[0])
        fingerprint = pattern_fingerprint(matrix.indptr, matrix.indices, extra=extra)
        # The cache key uses the *requested* options: a forced-VI-Prune
        # compile must not alias a compile that asked for VI-Prune outright,
        # since their decision records differ even when the code does not.
        key = cache_key(spec.name, fingerprint, options)
        forced_vi_prune = spec.factorization and not options.enable_vi_prune
        if forced_vi_prune:
            options = options.with_updates(enable_vi_prune=True)

        # Single-flight through the cache: concurrent compiles of the same
        # (kernel, pattern, options) — service worker threads registering one
        # pattern — collapse to one build; the other callers share the
        # resulting artifact instead of double-compiling.
        return self.cache.get_or_build(
            key, lambda: self._build(spec, matrix, options, rhs, fingerprint, forced_vi_prune)
        )

    def _build(self, spec, matrix, options, rhs, fingerprint, forced_vi_prune) -> CompiledArtifact:
        """Run the full inspection → transformation → codegen pipeline once.

        Every compile needs the toolchain, whatever the backend: the symbolic
        phase runs in the native helper, which raises
        :class:`~repro.compiler.codegen.c_backend.CCompilationError` when it
        cannot be built, before anything else runs.
        """
        native.helper()
        with span("compile", kernel=spec.name, backend=options.backend, fingerprint=fingerprint) as sp:
            artifact = self._build_traced(spec, matrix, options, rhs, fingerprint, forced_vi_prune)
            # True when no `cc` ran: the .so was on disk already — a disk-warm
            # start, or another pattern that generated the same C source.
            sp.set(so_shared=getattr(artifact.module, "so_shared", False))
            return artifact

    def _build_traced(self, spec, matrix, options, rhs, fingerprint, forced_vi_prune) -> CompiledArtifact:
        with span("inspect", kernel=spec.name):
            inspection = spec.inspect(matrix, *rhs)

        context = CompilationContext(method=spec.name, matrix=matrix, inspection=inspection, options=options)
        if forced_vi_prune:
            context.decisions["vi-prune-forced"] = True

        t0 = time.perf_counter()
        with span("transform", kernel=spec.name):
            loop = spec.plan(context)
        transform_seconds = time.perf_counter() - t0
        role = "untransformed" if loop is None else loop.role
        if role not in spec.abi.loops:
            raise CodegenError(f"kernel {spec.name!r} has no {role} loop; it runs {', '.join(spec.abi.loops)}")

        if options.backend == "python":
            backend = PythonBackend()
        else:
            backend = CBackend(compiler=options.c_compiler, flags=options.c_flags)
        # The entry point is named after the kernel, as a C identifier.
        entry_name = spec.name.replace("-", "_")
        with span("codegen", kernel=spec.name, backend=options.backend):
            module = backend.generate(loop, spec, entry_name, context)
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
