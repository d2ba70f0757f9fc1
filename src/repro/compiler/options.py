"""Configuration of the Sympiler code generator.

Six fields:

* which inspector-guided transformations run (VS-Block, then VI-Prune, the
  order of the current Sympiler, §4.2),
* the code-generation backend,
* ``parallel``, which changes only the compile record (every kernel is
  serial; it stays for one caller, see :class:`SympilerOptions`),
* the C toolchain (executable and flags).

VS-Block's participation thresholds (§4.2) are constants of the planner
(:mod:`repro.compiler.plan`).  The worker-thread count of the batch entries
is a per-call argument (:func:`~repro.compiler.codegen.c_backend.resolve_num_threads`),
not an option: it changes no generated code.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Tuple

__all__ = ["SympilerOptions"]

_VALID_BACKENDS = ("python", "c")
_VALID_PARALLEL_MODES = ("none", "wavefront")


def _default_c_flags() -> Tuple[str, ...]:
    """Default C flags, overridable through ``REPRO_CFLAGS``.

    The built-in default tunes for the local machine (``-march=native``),
    which is wrong for caches shared between heterogeneous hosts — CI sets
    ``REPRO_CFLAGS`` to a portable flag set so restored ``.so`` artifacts
    run on whichever runner picks up the next job.  ``-s`` strips the
    static symbol table: ctypes resolves entry points through ``.dynsym``,
    which stripping keeps.

    ``-fno-tree-vectorize`` turns the compiler's auto-vectorizer off (GCC:
    loop and SLP vectorization; Clang reads it as ``-fno-vectorize``).  The
    generated code asks for vectors itself, where the inspection exposed
    dense blocks: the supernodal panel's register tiles and column sweeps
    (``repro_v4``).  Left on, the vectorizer turned the solve entry's
    indirect sweeps into gathers with in-order reductions, slower than the
    scalar loop on columns of 3-40 rows, and grew the supernodal module's
    ``.text`` by half.  The flags are part of a module's file name, so a
    cache built under other flags rebuilds its ``.so`` once.
    """
    env = os.environ.get("REPRO_CFLAGS")
    if env:
        return tuple(env.split())
    return ("-O3", "-march=native", "-fno-tree-vectorize", "-fPIC", "-shared", "-s")


@dataclass(frozen=True)
class SympilerOptions:
    """Immutable bundle of code-generation options.

    Attributes
    ----------
    backend:
        ``"c"`` (the default: specialized C compiled with the system compiler
        and loaded via ``ctypes``; without a toolchain the driver falls back
        to python, with one warning) or ``"python"`` (fixed NumPy reference
        kernels over the inspection tables: the oracle of the bitwise tests).
    enable_vi_prune, enable_vs_block:
        Toggles for the transformation stages; disabling both produces the
        un-transformed kernel (useful for ablations).  VS-Block still runs
        its §4.2 participation test: if the mean width of *all* supernodes
        (single columns included) is below 1.2, or none is at least 2 wide,
        the transformation is skipped for the matrix (the analogue of the
        paper's hand-tuned 160 on full-scale matrices).  Where VS-Block takes
        a Cholesky / LDLᵀ, every supernode is a dense column-major panel,
        updated by one dense block product per descendant supernode.
    parallel:
        ``"none"`` (the default) or ``"wavefront"``.  Every kernel is serial:
        ``"wavefront"`` compiles the same C source byte for byte (so the two
        share one ``.so``) and only records ``decisions["wavefront"] ==
        {"mode": "serial-fallback", "fallback_reason": "no-schedule"}`` on
        the artifact; the python backend ignores it.  Kept for its one
        caller, the wavefront rung of ``benchmarks/e2e``'s ladder.  Threads
        run across calls instead: ``BatchedSolver`` and ``solve_many`` take
        ``num_threads``.
    c_compiler, c_flags:
        Compiler executable and flags for the C backend.  The executable
        defaults to the ``REPRO_CC`` environment variable (read at option
        construction time), then ``"cc"``; when the executable cannot be
        found the driver falls back to the Python backend with a warning
        instead of erroring.  The flags default to ``REPRO_CFLAGS``
        (whitespace-split), then ``-O3 -march=native -fno-tree-vectorize
        -fPIC -shared -s`` — override with a portable set when the on-disk
        ``.so`` cache is shared between machines with different CPUs.  The
        auto-vectorizer is off because the generated code vectorizes its
        dense blocks explicitly (see :func:`_default_c_flags`); the flags
        are part of the cache fingerprint, so ``.so`` files built under
        other flags rebuild once.
    """

    backend: str = "c"
    enable_vi_prune: bool = True
    enable_vs_block: bool = True
    parallel: str = "none"

    c_compiler: str = field(default_factory=lambda: os.environ.get("REPRO_CC", "cc"))
    c_flags: Tuple[str, ...] = field(default_factory=_default_c_flags)

    def __post_init__(self) -> None:
        if self.backend not in _VALID_BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of {_VALID_BACKENDS}"
            )
        if self.parallel not in _VALID_PARALLEL_MODES:
            raise ValueError(
                f"unknown parallel mode {self.parallel!r}; expected one of "
                f"{_VALID_PARALLEL_MODES}"
            )

    # ------------------------------------------------------------------ #
    def with_updates(self, **changes) -> "SympilerOptions":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    @classmethod
    def baseline(cls) -> "SympilerOptions":
        """Options with every transformation disabled (un-transformed code).

        Only a triangular solve has an un-transformed kernel.  A factorization
        cannot run without its prune-sets, so for those kernels the driver
        forces VI-Prune back on and records it in
        ``decisions["vi-prune-forced"]``.
        """
        return cls(enable_vi_prune=False, enable_vs_block=False)
