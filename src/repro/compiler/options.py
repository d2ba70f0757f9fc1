"""Configuration of the Sympiler code generator.

The options gather every tunable the paper mentions:

* which inspector-guided transformations run (always VS-Block before
  VI-Prune, the order of the current Sympiler, §4.2),
* the VS-Block *participation* threshold — supernodal code is only generated
  when the average participating supernode is large enough (the paper uses a
  hand-tuned value of 160 on full-scale SuiteSparse matrices; the default
  here is expressed as an average supernode width suited to the down-scaled
  synthetic suite of :mod:`repro.bench.suite`),
* the code-generation backend,
* the thread count of the batch entries
  (:class:`~repro.solvers.batched.BatchedSolver`,
  ``SparseLinearSolver.solve_many``).
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
    """
    env = os.environ.get("REPRO_CFLAGS")
    if env:
        return tuple(env.split())
    return ("-O3", "-march=native", "-fPIC", "-shared", "-s")


@dataclass(frozen=True)
class SympilerOptions:
    """Immutable bundle of code-generation options.

    Attributes
    ----------
    backend:
        ``"python"`` (fixed NumPy reference kernels over the inspection
        tables, always available) or ``"c"`` (specialized C compiled with the
        system compiler and loaded via ``ctypes``).
    enable_vi_prune, enable_vs_block, enable_low_level:
        Toggles for the transformation stages; disabling all of them produces
        the un-transformed kernel (useful for ablations).  The low-level
        stage was loop distribution of the supernodal factorization, which
        gave its width-1 supernodes a column loop of their own; the supernode
        loop runs them as one-column panels now, so ``enable_low_level`` no
        longer changes the Cholesky / LDLᵀ code (nor any other).
    vs_block_min_avg_width:
        VS-Block participation threshold: if the mean width of *all*
        supernodes (single columns included) is below this value, or none is
        at least ``vs_block_min_supernode_width`` wide, the transformation is
        skipped for the matrix (the analogue of the paper's hand-tuned 160 on
        full-scale matrices).  Where VS-Block takes a Cholesky / LDLᵀ, every
        supernode is a dense column-major panel, updated by one dense block
        product per descendant supernode.
    vs_block_min_supernode_width:
        In a triangular solve, supernodes narrower than this are handled by
        the pruned column loop rather than the dense block path.
    parallel:
        Within-kernel execution mode of the *generated code*.  ``"none"``
        (the default) emits the sequential kernels; ``"wavefront"`` makes
        the C backend emit a level-parallel variant whose entry point walks
        the inspector's cached level-set schedule and dispatches the columns
        of each wavefront across a persistent worker pool (per-level
        barriers between wavefronts).  Results are bitwise identical to the
        serial kernel — levels are antichains of the column dependency DAG,
        so per-column writes are disjoint and every read crosses a barrier.
        Unlike ``num_threads`` this changes the generated code, so it *is*
        part of the cache fingerprints: serial and wavefront artifacts of
        one pattern cache (in memory and on disk) independently.  The
        backend automatically falls back to the serial body when the
        schedule has no parallelism to mine (see
        ``wavefront_min_avg_width``) or when the kernel is supernodal
        (VS-Block interaction — tracked as follow-up in ROADMAP.md); the
        python backend ignores the mode (it has no in-kernel threading).
    wavefront_min_avg_width:
        Serial-fallback threshold for ``parallel="wavefront"``: when the
        schedule's average level width is below this value (``n_levels``
        close to ``n`` — a deep elimination tree, e.g. a chain/tridiagonal
        pattern), the barrier overhead cannot pay off and the backend emits
        the serial body instead, recording the decision on the artifact.
    num_threads:
        Worker-thread count of the batch entries
        (:class:`~repro.solvers.batched.BatchedSolver`,
        ``SparseLinearSolver.solve_many``) when neither their argument nor
        ``REPRO_NUM_THREADS`` sets one.  ``1`` (the default) runs batch items
        sequentially; ``N > 1`` maps them over a thread pool when the backend
        can execute concurrently (the C backend releases the GIL inside the
        generated shared object, and its work buffers are thread-local);
        ``0`` means "one thread per available CPU".  Purely a
        runtime knob — the generated code is identical for every value, and
        the field is excluded from the cache fingerprints
        (:data:`repro.compiler.cache.RUNTIME_ONLY_OPTIONS`), so re-tuning it
        keeps hitting the same cached artifacts.
    c_compiler, c_flags:
        Compiler executable and flags for the C backend.  The executable
        defaults to the ``REPRO_CC`` environment variable (read at option
        construction time), then ``"cc"``; when the executable cannot be
        found the driver falls back to the Python backend with a warning
        instead of erroring.  The flags default to ``REPRO_CFLAGS``
        (whitespace-split), then ``-O3 -march=native -fPIC -shared -s`` —
        override with a portable set when the on-disk ``.so`` cache is
        shared between machines with different CPUs.
    """

    backend: str = "python"
    enable_vi_prune: bool = True
    enable_vs_block: bool = True
    enable_low_level: bool = True

    vs_block_min_avg_width: float = 1.2
    vs_block_min_supernode_width: int = 2

    parallel: str = "none"
    wavefront_min_avg_width: float = 1.5

    num_threads: int = 1

    c_compiler: str = field(default_factory=lambda: os.environ.get("REPRO_CC", "cc"))
    c_flags: Tuple[str, ...] = field(default_factory=_default_c_flags)

    def __post_init__(self) -> None:
        if self.backend not in _VALID_BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of {_VALID_BACKENDS}"
            )
        if self.vs_block_min_supernode_width < 1:
            raise ValueError("vs_block_min_supernode_width must be at least 1")
        if self.parallel not in _VALID_PARALLEL_MODES:
            raise ValueError(
                f"unknown parallel mode {self.parallel!r}; expected one of "
                f"{_VALID_PARALLEL_MODES}"
            )
        if self.wavefront_min_avg_width < 1.0:
            raise ValueError("wavefront_min_avg_width must be at least 1.0")
        if self.num_threads < 0:
            raise ValueError("num_threads must be non-negative (0 means one per CPU)")

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
        return cls(enable_vi_prune=False, enable_vs_block=False, enable_low_level=False)

    @classmethod
    def vi_prune_only(cls) -> "SympilerOptions":
        """Options enabling only VI-Prune."""
        return cls(enable_vs_block=False, enable_low_level=False)

    @classmethod
    def vs_block_only(cls) -> "SympilerOptions":
        """Options enabling only VS-Block.

        For the factorization kernels VI-Prune is forced back on (recorded in
        ``decisions["vi-prune-forced"]``): where VS-Block does not take the
        loop, the prune-sets are what makes it executable.
        """
        return cls(enable_vi_prune=False, enable_low_level=False)

    @classmethod
    def all_transformations(cls) -> "SympilerOptions":
        """Options enabling both inspector-guided passes and low-level ones."""
        return cls()
