"""Specialized-C code generation backend.

Emits C source whose *shape* follows the planned domain loop
(:mod:`repro.compiler.plan`), compiles it with the system C compiler and loads
the shared object through :mod:`ctypes`.  This is the closest analogue of the
original Sympiler, which generates C and compiles it with GCC ``-O3`` (§4.1);
the backend is optional — environments without a C compiler run the python
backend's reference kernels over the same tables.

What may be literal in the generated source
-------------------------------------------
Only what changes the *code*: which loop nest the plan chose
(simplicial or supernodal, serial or wavefront).  The
backend never reads the pattern to decide *what code* to emit: source is a
function of (kernel, options, code shape).  Everything that depends on the
sparsity pattern alone — every inspection set (``l_indptr``, ``prune_ptr``,
the supernode and descendant descriptors, the scatter tables, the level
schedule, the triangular solve's segment descriptors) and every size (``n``,
nnz, supernode, segment and level counts) — is *data*.  Its name and its
position come from the table contract (:mod:`repro.compiler.codegen.tables`):
the block is the contract of the kernel's domain loop, followed, for a
wavefront kernel, by the level schedule and (triangular solve) the pull
structure; the printed code names ``_C_<name>`` for a table and the bare name
for a size, and the python backend's reference kernels read the same block.
The loaded entry point receives the block through one trailing pointer
argument.  So the size of a source file and the time ``cc`` spends on it are
constants of the code shape, and two patterns that lower to the same code
produce byte-identical source and share one ``.so`` through the
source-fingerprint file stem; every serial triangular solve is the same
``.so``.

One step, printed once
----------------------
One emitter (:meth:`CBackend.generate`) prints every kernel from a table keyed
by the role of its domain loop (:data:`_LOOPS`): the preamble that initialises
the outputs, the body of one step (a column; a segment of the triangular
solve; a supernode of the VS-Block'd factorization) and the work buffers a
step reads.  The body becomes ``static inline int64_t {entry}_step(int64_t j,
<the entry's arrays>, const int64_t* const* repro_T)``, which returns 0 or the
failing column + 1.  The entry is the preamble and a loop over the steps; a
wavefront job calls the same step.  (``inline`` lets ``cc`` inline the step at
both call sites of a wavefront source, as it does at the one of a serial
source: out of line, the per-call binding cost IC(0) 20-30 % at one thread.)
The triangular solve alone has two
bodies: its serial step walks the segments and pushes each column's updates,
while the wavefront job runs the pull form, one row per step
(``{entry}_wf_step``).

Entry points generated (``repro_T`` is the table block; ``repro_T[0]`` holds
the scalar sizes, ``repro_T[k]`` the k-th registered inspection set):

* triangular solve — ``void <name>(const int64_t* Lp, const int64_t* Li,
  const double* Lx, const double* b, double* x,
  const int64_t* const* repro_T)``
* Cholesky — ``int64_t <name>(const int64_t* Ap, const int64_t* Ai,
  const double* Ax, double* Lx, const int64_t* const* repro_T)`` returning 0
  on success or ``j + 1`` when a non-positive pivot is met at column ``j``
  (``-1``: out of memory for the per-thread work buffers).  The supernodal
  kernel is the paper's VS-Block done the supernodal way (Ng & Peyton; the
  scheme of CHOLMOD): every supernode is a dense column-major panel, kept for
  the whole call in a per-thread store of ``sn_panel_total`` doubles, and
  each descendant supernode updates it with one dense block product
  scattered through relative row positions.  Its loops are plain C: no BLAS,
  whose results change with its thread count.

The table block is built once, when the module is loaded
(:meth:`CMethodSpec.wrap`), from the arrays the compile call already holds;
nothing is persisted for it, because every process re-runs inspection before
it loads a ``.so``.

Under ``SympilerOptions(parallel="wavefront")`` every entry point gains an
``int64_t n_threads`` argument (before the table block) and executes the
columns of each level of the inspector's cached
:class:`~repro.symbolic.levels.ExecutionSchedule` across a persistent pthread
worker pool, with a barrier between levels (the paper's H-Level parallelism,
applied *within* one numeric call); with ``n_threads <= 1`` it runs the
serial loop.  Levels are antichains of the column dependency DAG, so
per-column writes are disjoint and the result is bitwise identical to the
serial kernel; when the schedule has no parallelism to mine (or the kernel is
supernodal) the serial kernel is emitted behind the same ABI and the fallback
is recorded on the artifact.  The pool, the barrier and the
per-level clock are module state, so a wavefront source is stamped with the
fingerprint of its tables and its ``.so`` is never shared between patterns
(two patterns would serialise on one job mutex).
"""

from __future__ import annotations

import ctypes
import os
import shutil
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.compiler.cache import build_and_load, tmp_path_for
from repro.compiler.codegen import tables
from repro.compiler.codegen.runtime import generated_code_dir, pattern_fingerprint

if TYPE_CHECKING:  # plan.py imports codegen.tables, so this package loads first
    from repro.compiler.plan import DomainLoop

__all__ = [
    "CBackend",
    "CGeneratedModule",
    "CCompilationError",
    "CMethodSpec",
    "DiskCacheStats",
    "c_compiler_available",
    "disk_cache_stats",
    "reset_disk_cache_stats",
    "resolve_num_threads",
    "atomic_write_text",
    "tmp_path_for",
]


class CCompilationError(RuntimeError):
    """Raised when the C compiler is unavailable or compilation fails."""


#: Seconds one ``cc`` run may take.  No generated source needs more than a
#: few (their size does not grow with the pattern), so a compiler still
#: running after this long is hung, and the caller gets an error instead.
_CC_TIMEOUT_SECONDS = 300.0


def c_compiler_available(compiler: str = "cc") -> bool:
    """True when the requested C compiler executable is on PATH."""
    return shutil.which(compiler) is not None


@dataclass
class DiskCacheStats:
    """Counters of the on-disk generated-code caches (process-wide).

    ``compiles`` counts actual C compiler invocations; ``reuses`` counts
    loads of a pre-existing ``.so`` for the same source fingerprint.
    ``py_writes`` counts the kernel texts the python backend wrote into the
    cache directory (one per text, see
    :mod:`repro.compiler.codegen.python_backend`).  A warm-cache CI run
    asserts ``compiles == 0`` and ``py_writes == 0`` through these counters —
    the compile-amortization story made checkable instead of assumed.

    Also visible through the unified observability layer as the
    ``disk_cache`` collector in :func:`repro.observe.snapshot` (and as
    ``repro_disk_cache_*`` gauges in the Prometheus export); this class
    remains the mutation surface.
    """

    compiles: int = 0
    reuses: int = 0
    py_writes: int = 0
    #: Compiles avoided by waiting on another *process's* in-flight build of
    #: the same ``.so`` (cross-process single-flight via ``build_file_once``
    #: lockfiles); such waits also count as ``reuses``.
    lock_waits: int = 0
    #: Not a counter: the python backend reads nothing back.  The frozen benchmarks/e2e still
    #: adds this name to its disk hits (e2elib/phases.py); it goes when that read does.
    py_reuses = 0

    def __post_init__(self) -> None:
        # Backends increment these counters from service worker threads; a
        # bare `stats.field += 1` is a read-modify-write that can drop
        # increments under contention, so all mutation goes through bump().
        self._lock = threading.Lock()

    def bump(self, field_name: str, n: int = 1) -> None:
        """Atomically increment one counter."""
        with self._lock:
            setattr(self, field_name, getattr(self, field_name) + n)

    def reset(self) -> None:
        """Zero every counter atomically."""
        with self._lock:
            self.compiles = 0
            self.reuses = 0
            self.py_writes = 0
            self.lock_waits = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view used by the cache probe CLI (a consistent snapshot)."""
        with self._lock:
            return {
                "compiles": self.compiles,
                "reuses": self.reuses,
                "py_writes": self.py_writes,
                "lock_waits": self.lock_waits,
            }


_DISK_CACHE_STATS = DiskCacheStats()


def disk_cache_stats() -> DiskCacheStats:
    """The live process-wide on-disk cache counters."""
    return _DISK_CACHE_STATS


def reset_disk_cache_stats() -> None:
    """Zero the on-disk cache counters (tests and the cache probe)."""
    _DISK_CACHE_STATS.reset()


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + rename).

    Parallel workers compiling the same pattern therefore never observe a
    half-written source file in the shared on-disk cache.  The python
    backend writes its kernel texts the same way.
    """
    tmp = tmp_path_for(path)
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


@dataclass
class CGeneratedModule:
    """Generated C source plus its compiled shared object.

    ``constants`` are the inspection sets the source names, in the order the
    entry point expects them in its table block (see :meth:`CMethodSpec.wrap`).
    """

    source: str
    entry_name: str
    constants: Dict[str, np.ndarray]
    method: str
    codegen_seconds: float
    compiler: str
    flags: Tuple[str, ...]
    n: int
    # Within-kernel execution mode of the generated entry point: "none"
    # (serial ABI), "wavefront" (level-parallel, n_threads arg) or
    # "serial-fallback" (wavefront ABI around the serial body — emitted when
    # the schedule is too deep or the kernel supernodal).
    parallel: str = "none"
    meta: Dict[str, int] = field(default_factory=dict)
    compile_seconds: float = 0.0
    shared_object: Optional[str] = None
    #: True when the ``.so`` was already on disk (or another process was
    #: building it) — a disk-warm start, or another pattern that lowered to
    #: the same source.
    so_shared: bool = False
    _callable: Optional[Callable] = field(default=None, repr=False)
    _lib: Optional[ctypes.CDLL] = field(default=None, repr=False)

    @property
    def line_count(self) -> int:
        """Number of lines of generated source."""
        return self.source.count("\n") + 1

    # ------------------------------------------------------------------ #
    def compile(self) -> Callable:
        """Compile the C source and return the entry's binder (:meth:`CMethodSpec.wrap`).

        Source and shared object are written to the on-disk cache through a
        temp-file + atomic-rename protocol, so concurrent processes working on
        the same pattern never load a half-written artifact; a pre-existing
        ``.so`` for the same source fingerprint skips compilation entirely
        and writes nothing.
        """
        if self._callable is not None:
            return self._callable
        if not c_compiler_available(self.compiler):
            raise CCompilationError(
                f"C compiler {self.compiler!r} not found; use the python backend instead"
            )
        spec = _C_METHOD_SPECS.get(self.method)
        if spec is None:  # pragma: no cover - guarded during generation
            raise CCompilationError(f"unsupported method {self.method!r}")
        start = time.perf_counter()
        cache = generated_code_dir()
        extra_flags = []
        if not any(f.startswith("-ffp-contract") for f in self.flags):
            # Uniform rounding across every generated kernel: the default
            # -ffp-contract=fast fuses multiply-subtract differently for
            # different loop shapes, which would break the bitwise identity
            # between the serial (push) and wavefront (pull) triangular
            # solves.  An explicit -ffp-contract in the flags wins.
            extra_flags.append("-ffp-contract=off")
        if "#include <pthread.h>" in self.source:
            # REPRO_CFLAGS cannot be asked to carry -pthread (kernels without
            # threads or work buffers must keep compiling without it), so it
            # is derived from the source itself.
            extra_flags.append("-pthread")
        # The stem covers source AND toolchain: the same generated source
        # built with different flags (an -O0 vs -O3 ablation, say) must not
        # reuse the other's shared object.
        source_fp = pattern_fingerprint(
            np.frombuffer(self.source.encode(), dtype=np.uint8),
            extra=f"{self.compiler} {' '.join((*self.flags, *extra_flags))}",
        )
        stem = f"{self.entry_name}_{source_fp}"
        c_path = os.path.join(cache, stem + ".c")
        so_path = os.path.join(cache, stem + ".so")

        def count(outcome: str) -> None:
            _DISK_CACHE_STATS.bump("compiles" if outcome == "built" else "reuses")
            if outcome == "waited":
                _DISK_CACHE_STATS.bump("lock_waits")
            self.so_shared = outcome != "built"

        # Cross-process single-flight: shard workers (and parallel CI jobs)
        # cold-compiling the same source run exactly one ``cc`` between them.
        # The source file exists for `cc` (and for whoever debugs a kernel); a
        # start that finds the .so never writes it.
        lib = build_and_load(
            so_path,
            lambda out: [self.compiler, *self.flags, *extra_flags, "-o", out, c_path, "-lm"],
            span_name="cc",
            span_attrs={
                "entry": self.entry_name,
                "method": self.method,
                "source_bytes": len(self.source.encode()),
            },
            timeout_seconds=_CC_TIMEOUT_SECONDS,
            error=lambda _reason, detail: CCompilationError(detail),
            before_cc=lambda: atomic_write_text(c_path, self.source),
            on_outcome=count,
        )
        fn = getattr(lib, self.entry_name)
        self._lib = lib
        self.shared_object = so_path
        self.compile_seconds = time.perf_counter() - start
        self._callable = spec.wrap(self, fn)
        return self._callable

    # ------------------------------------------------------------------ #
    # Wavefront per-level profiling (observability layer)
    # ------------------------------------------------------------------ #
    def set_wavefront_profiling(self, on: bool) -> bool:
        """Raise/lower the runtime per-level timing flag in the loaded ``.so``.

        The timestamp instructions are always compiled into wavefront kernels
        (so the cache key never forks on profiling) but record only while
        this flag is up.  Returns False when this module is not a loaded
        wavefront kernel (serial fallback, python backend, not yet compiled).
        """
        if self._lib is None or self.parallel != "wavefront":
            return False
        setter = self._lib.repro_wf_set_profile
        setter.argtypes = [ctypes.c_int64]
        setter.restype = None
        setter(1 if on else 0)
        return True

    def wavefront_level_seconds(self) -> Optional[np.ndarray]:
        """Per-level durations (seconds) of the last *profiled* parallel run.

        Reads the ``{entry}_wf_level_times`` timestamp buffer written by
        participant 0 and returns its consecutive differences — one float per
        schedule level.  ``None`` when this module is not a loaded wavefront
        kernel or profiling was never enabled (the buffer is all zeros).
        Note the serial dispatch path (``n_threads <= 1``) bypasses the pool
        and records nothing.
        """
        n_levels = int(self.meta.get("wf_n_levels", 0))
        if self._lib is None or self.parallel != "wavefront" or n_levels <= 0:
            return None
        getter = getattr(self._lib, f"{self.entry_name}_wf_level_times")
        getter.restype = ctypes.POINTER(ctypes.c_double)
        getter.argtypes = []
        ts = np.ctypeslib.as_array(getter(), shape=(n_levels + 1,))
        if not ts.any():
            return None
        return np.diff(ts.copy())


# --------------------------------------------------------------------------- #
# Per-method ABI specs (entry signature + ctypes binder)
# --------------------------------------------------------------------------- #
_NUMPY_DTYPES = {"int64_t": np.int64, "double": np.float64}


def num_threads_from_env() -> Optional[int]:
    """The ``REPRO_NUM_THREADS`` override: ``None`` when unset or blank.

    The one parser of the variable (:func:`resolve_num_threads` reads it).
    Surrounding blanks are ignored; anything else must be an integer.
    """
    raw = os.environ.get("REPRO_NUM_THREADS", "")
    if not raw.strip():
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"REPRO_NUM_THREADS must be an integer, got {raw!r}") from None


def resolve_num_threads(num_threads: Optional[int], unset: int = 1) -> int:
    """Normalize a thread-count knob to a concrete worker count.

    The one precedence of every entry point: an explicit ``num_threads``
    wins; when it is ``None``, ``REPRO_NUM_THREADS`` applies (CI runners and
    service containers pin the count there without touching call sites);
    with neither, ``unset``.  ``0`` at any step means one per CPU.

    Entry points differ only in ``unset``.  A wavefront kernel's own call
    (:func:`_wavefront_threads`) passes ``0``: called without any request it
    should saturate the machine, that being its purpose.  The batch entries
    (``BatchedSolver``, ``SparseLinearSolver.solve_many``) pass the
    requested ``SympilerOptions.num_threads``, whose default is 1.  The knob
    is runtime-only: it is excluded from cache fingerprints, so re-tuning it
    never recompiles.
    """
    if num_threads is None:
        num_threads = num_threads_from_env()
    if num_threads is None:
        num_threads = unset
    num_threads = int(num_threads)
    if num_threads < 0:
        raise ValueError("num_threads must be non-negative (0 means one per CPU)")
    if num_threads == 0:
        return os.cpu_count() or 1
    return num_threads


def _wavefront_threads(num_threads: Optional[int]) -> int:
    """The thread count of one wavefront entry call: one per CPU when nothing is set."""
    return resolve_num_threads(num_threads, 0)


@dataclass(frozen=True)
class CMethodSpec:
    """ABI description of one kernel method for the C backend.

    The entry point takes the ``inputs`` (``(C name, element type)`` of each
    ``const`` array, in order), then one ``double*`` per ``outputs`` entry
    (``(C name, size attribute)`` — the buffer length is that attribute of
    the inspection result: ``n``, ``factor_nnz``, ``l_nnz``, ...), then, when
    compiled for ``parallel="wavefront"``, an ``int64_t n_threads``, and last
    the table block ``const int64_t* const* repro_T`` — one pointer per
    inspection set the source names, in registration order.  The kernel's
    step function takes the same arrays (:attr:`params`).  ``failure`` is the
    message (a template over ``{column}``) of the ``ValueError`` raised when
    the entry returns the positive status ``column + 1``; ``None`` declares a
    ``void`` entry that cannot fail.  ``loops`` are the roles of the domain
    loops (:data:`_LOOPS`) the kernel can be printed from, ``"untransformed"``
    standing for a body without one; ``wavefront_loop`` names the loop the
    wavefront job runs when it is not the serial one.  Both the emitted C
    signature and the ctypes binder derive from this one description.
    """

    inputs: Tuple[Tuple[str, str], ...]
    outputs: Tuple[Tuple[str, str], ...]
    loops: Tuple[str, ...]
    failure: Optional[str] = None
    wavefront_loop: Optional[str] = None

    @property
    def params(self) -> List[str]:
        """The C declarations of the entry's arrays, in ABI order."""
        inputs = [f"const {ctype}* {name}" for name, ctype in self.inputs]
        return inputs + [f"double* {name}" for name, _ in self.outputs]

    @property
    def names(self) -> List[str]:
        """The C names of the entry's arrays, in ABI order."""
        return [name for name, _ in (*self.inputs, *self.outputs)]

    def signature(self, name: str, wavefront: bool) -> str:
        """The C prototype of the entry point ``name``."""
        params = [*self.params, *(["int64_t n_threads"] if wavefront else []), "const int64_t* const* repro_T"]
        restype = "void" if self.failure is None else "int64_t"
        return f"{restype} {name}({', '.join(params)})"

    @property
    def dtypes(self) -> List[type]:
        """The NumPy dtype of each of the entry's arrays, in ABI order."""
        return [_NUMPY_DTYPES[ctype] for _, ctype in self.inputs] + [np.float64] * len(self.outputs)

    def wrap(self, module: "CGeneratedModule", fn) -> Callable:
        """The binder of the loaded entry point ``fn``.

        ``bind(inputs, outputs)`` takes the input arrays and the output
        buffers in ABI order — checked by the caller for length, dtype and
        contiguity (:meth:`~repro.compiler.artifacts.CompiledArtifact.bind`)
        — and reads their addresses once.  It returns ``run(num_threads=None)``,
        which calls the entry on those addresses and nothing else, and keeps
        the arrays alive.  An entry compiled for ``parallel="wavefront"``
        (whatever ``module.parallel`` it got) resolves ``num_threads`` per
        call — the thread count is a runtime knob, never baked in; a serial
        entry ignores it.

        The table block is bound here, once: an array of the addresses of
        ``module.constants``' buffers, which the closures keep alive for as
        long as a binder or a call exists.  A call passes the block's address
        last, whatever the number of tables.
        """
        wavefront = module.parallel != "none"
        fn.restype = None if self.failure is None else ctypes.c_int64
        tail = [ctypes.c_int64] if wavefront else []
        fn.argtypes = [ctypes.c_void_p] * len(self.names) + tail + [ctypes.c_void_p]
        tables = list(module.constants.values())  # contiguous int64, see tables.entry
        block = (ctypes.c_void_p * len(tables))(*(t.ctypes.data for t in tables))
        block_address = ctypes.addressof(block)
        failure = self.failure

        def bind(inputs, outputs):
            arrays = (*inputs, *outputs)
            addresses = [a.ctypes.data for a in arrays]

            def run(num_threads=None, _keepalive=(arrays, tables, block)):
                # _keepalive: the buffers behind the addresses must live as
                # long as the call that hands them out.
                if wavefront:
                    status = fn(*addresses, _wavefront_threads(num_threads), block_address)
                else:
                    status = fn(*addresses, block_address)
                if status:
                    if status < 0:
                        raise MemoryError("out of memory for the kernel's per-thread work buffers")
                    raise ValueError(failure.format(column=int(status) - 1))

            return run

        return bind


_FACTOR_INPUTS = (("Ap", "int64_t"), ("Ai", "int64_t"), ("Ax", "double"))
_ZERO_PIVOT = "matrix is singular (zero pivot) at column {column}"
_LEFT_LOOKING = ("supernodal-cholesky", "simplicial-cholesky")

_C_METHOD_SPECS: Dict[str, CMethodSpec] = {
    "triangular-solve": CMethodSpec(
        inputs=(("Lp", "int64_t"), ("Li", "int64_t"), ("Lx", "double"), ("b", "double")),
        outputs=(("x", "n"),),
        loops=("trisolve-segments", "untransformed"),
        wavefront_loop="trisolve-rows",
    ),
    "cholesky": CMethodSpec(
        inputs=_FACTOR_INPUTS,
        outputs=(("Lx", "factor_nnz"),),
        loops=_LEFT_LOOKING,
        failure="matrix is not positive definite at column {column}",
    ),
    "ldlt": CMethodSpec(
        inputs=_FACTOR_INPUTS,
        outputs=(("Lx", "factor_nnz"), ("D", "n")),
        loops=_LEFT_LOOKING,
        failure=_ZERO_PIVOT,
    ),
    "lu": CMethodSpec(
        inputs=_FACTOR_INPUTS,
        outputs=(("Lx", "l_nnz"), ("Ux", "u_nnz")),
        loops=("simplicial-lu",),
        failure=_ZERO_PIVOT,
    ),
    "ic0": CMethodSpec(
        inputs=_FACTOR_INPUTS,
        outputs=(("Lx", "factor_nnz"),),
        loops=("incomplete-cholesky",),
        failure="IC(0) breakdown: non-positive pivot at column {column}",
    ),
    "ilu0": CMethodSpec(
        inputs=_FACTOR_INPUTS,
        outputs=(("Lx", "l_nnz"), ("Ux", "u_nnz")),
        loops=("incomplete-lu",),
        failure="ILU(0) breakdown: zero pivot at column {column}",
    ),
}


class _CEmitter:
    """Accumulates indented C source lines."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.indent = 0

    def emit(self, line: str = "") -> None:
        self.lines.append(("    " * self.indent) + line if line else "")

    def push(self) -> None:
        self.indent += 1

    def pop(self) -> None:
        self.indent -= 1

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


_WF_RUNTIME = r"""
/* --------------------------------------------------------------------- */
/* Wavefront (H-Level) runtime: a persistent detached worker pool plus a */
/* sense-reversing barrier.  One loaded kernel runs one wavefront job at */
/* a time (pool and barrier are module state); concurrent callers        */
/* serialize on the job mutex — the batched runtime threads across items */
/* instead of stacking within-item pools.                                */
/* --------------------------------------------------------------------- */
typedef struct {
    void (*run)(int64_t tid, int64_t nt, void* job);
    void* job;
    int64_t active;
} repro_wf_task_t;

static pthread_mutex_t repro_wf_job_mu = PTHREAD_MUTEX_INITIALIZER;
static pthread_mutex_t repro_wf_mu = PTHREAD_MUTEX_INITIALIZER;
static pthread_cond_t repro_wf_cv = PTHREAD_COND_INITIALIZER;
static pthread_cond_t repro_wf_done_cv = PTHREAD_COND_INITIALIZER;
static repro_wf_task_t repro_wf_cur;
static int64_t repro_wf_gen = 0;
static int64_t repro_wf_outstanding = 0;
static int64_t repro_wf_nworkers = 0;

static _Atomic int64_t repro_wf_bar_count;
static _Atomic int64_t repro_wf_bar_sense;
static _Atomic int64_t repro_wf_status;

/* Per-level profiling is opt-in at *runtime* (the observability layer's
   wavefront_levels flag): the timestamp code is always compiled in — so the
   source fingerprint, and therefore the on-disk cache key, does not fork on
   a profiling toggle — but records only while this flag is raised. */
static _Atomic int64_t repro_wf_profile_flag;

void repro_wf_set_profile(int64_t on) {
    atomic_store_explicit(&repro_wf_profile_flag, on, memory_order_relaxed);
}

static int64_t repro_wf_profile_on(void) {
    return atomic_load_explicit(&repro_wf_profile_flag, memory_order_relaxed);
}

static double repro_wf_now(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}

static void repro_wf_barrier(int64_t nparts, int64_t* sense) {
    int64_t s = 1 - *sense;
    *sense = s;
    if (atomic_fetch_add_explicit(&repro_wf_bar_count, 1, memory_order_acq_rel)
        == nparts - 1) {
        atomic_store_explicit(&repro_wf_bar_count, 0, memory_order_relaxed);
        atomic_store_explicit(&repro_wf_bar_sense, s, memory_order_release);
    } else {
        while (atomic_load_explicit(&repro_wf_bar_sense, memory_order_acquire) != s)
            sched_yield();
    }
}

static int64_t repro_wf_ok(void) {
    return atomic_load_explicit(&repro_wf_status, memory_order_relaxed) == INT64_MAX;
}

static void repro_wf_fail(int64_t status) {
    /* CAS-min: the smallest failing column wins, whatever thread found it,
       so the reported status matches the serial kernel's first failure. */
    int64_t seen = atomic_load_explicit(&repro_wf_status, memory_order_relaxed);
    while (status < seen &&
           !atomic_compare_exchange_weak_explicit(
               &repro_wf_status, &seen, status,
               memory_order_acq_rel, memory_order_relaxed)) {}
}

static void* repro_wf_worker(void* arg) {
    int64_t tid = (int64_t)(intptr_t)arg;
    int64_t seen = 0;
    for (;;) {
        pthread_mutex_lock(&repro_wf_mu);
        while (repro_wf_gen == seen) pthread_cond_wait(&repro_wf_cv, &repro_wf_mu);
        seen = repro_wf_gen;
        repro_wf_task_t task = repro_wf_cur;
        pthread_mutex_unlock(&repro_wf_mu);
        if (tid < task.active) {
            task.run(tid, task.active, task.job);
            pthread_mutex_lock(&repro_wf_mu);
            if (--repro_wf_outstanding == 0)
                pthread_cond_signal(&repro_wf_done_cv);
            pthread_mutex_unlock(&repro_wf_mu);
        }
    }
    return 0;
}

static int64_t repro_wf_launch(void (*run)(int64_t, int64_t, void*),
                               void* job, int64_t n_threads) {
    pthread_mutex_lock(&repro_wf_job_mu);
    atomic_store_explicit(&repro_wf_status, INT64_MAX, memory_order_relaxed);
    atomic_store_explicit(&repro_wf_bar_count, 0, memory_order_relaxed);
    atomic_store_explicit(&repro_wf_bar_sense, 0, memory_order_relaxed);
    pthread_mutex_lock(&repro_wf_mu);
    while (repro_wf_nworkers < n_threads - 1) {
        pthread_t th;
        if (pthread_create(&th, 0, repro_wf_worker,
                           (void*)(intptr_t)(repro_wf_nworkers + 1)) != 0)
            break;  /* degraded: run with the workers that did start */
        pthread_detach(th);
        repro_wf_nworkers++;
    }
    int64_t active =
        n_threads < repro_wf_nworkers + 1 ? n_threads : repro_wf_nworkers + 1;
    repro_wf_cur.run = run;
    repro_wf_cur.job = job;
    repro_wf_cur.active = active;
    repro_wf_outstanding = active - 1;
    repro_wf_gen++;
    pthread_cond_broadcast(&repro_wf_cv);
    pthread_mutex_unlock(&repro_wf_mu);
    run(0, active, job);
    pthread_mutex_lock(&repro_wf_mu);
    while (repro_wf_outstanding != 0)
        pthread_cond_wait(&repro_wf_done_cv, &repro_wf_mu);
    pthread_mutex_unlock(&repro_wf_mu);
    int64_t status = atomic_load_explicit(&repro_wf_status, memory_order_acquire);
    pthread_mutex_unlock(&repro_wf_job_mu);
    return status == INT64_MAX ? 0 : status;
}
"""


_WORK_BUFFERS = r"""
/* Per-thread work buffers, grown on demand: nothing in this source is sized
   by a pattern, so one loaded kernel serves patterns of different n — and
   calls from many threads at once (the batched runtime maps the entry point
   over a thread pool; ctypes releases the GIL).  The three buffers are carved
   from one block per thread (8-byte elements throughout), which is freed
   when the thread exits, by the destructor of a pthread key (if the process
   has run out of keys it stays until the process ends). */
typedef struct {
    double* f; int64_t* rowmap; double* panel;
    int64_t f_n, rowmap_n, panel_n;
} repro_ws_t;

static _Thread_local repro_ws_t* repro_ws;
static pthread_key_t repro_ws_key;
static pthread_once_t repro_ws_once = PTHREAD_ONCE_INIT;
static int repro_ws_key_ok;

static void repro_ws_free(void* p) {
    free(((repro_ws_t*)p)->f);
    free(p);
}

static void repro_ws_make_key(void) {
    repro_ws_key_ok = pthread_key_create(&repro_ws_key, repro_ws_free) == 0;
}

/* The calling thread's buffers with at least the given element counts, or
   NULL when memory runs out.  Contents are unspecified: every kernel
   initialises what it reads. */
static repro_ws_t* repro_ws_reserve(int64_t f_n, int64_t rowmap_n, int64_t panel_n) {
    repro_ws_t* ws = repro_ws;
    if (!ws) {
        ws = (repro_ws_t*)calloc(1, sizeof(repro_ws_t));
        if (!ws) return 0;
        pthread_once(&repro_ws_once, repro_ws_make_key);
        if (repro_ws_key_ok) pthread_setspecific(repro_ws_key, ws);
        repro_ws = ws;
    }
    if (f_n <= ws->f_n && rowmap_n <= ws->rowmap_n && panel_n <= ws->panel_n)
        return ws;
    /* Grow: one fresh block that fits the largest request seen of each. */
    if (f_n < ws->f_n) f_n = ws->f_n;
    if (rowmap_n < ws->rowmap_n) rowmap_n = ws->rowmap_n;
    if (panel_n < ws->panel_n) panel_n = ws->panel_n;
    double* base = (double*)malloc((size_t)(f_n + rowmap_n + panel_n) * 8);
    if (!base) return 0;
    free(ws->f);
    ws->f = base;
    ws->rowmap = (int64_t*)(base + f_n);
    ws->panel = base + f_n + rowmap_n;
    ws->f_n = f_n; ws->rowmap_n = rowmap_n; ws->panel_n = panel_n;
    return ws;
}
"""


#: ``repro_ws_reserve`` arguments of each kind of work buffers, and what a step binds of them.
_WORK = {
    "column": ("n, 0, 0", ("double* const repro_f = repro_ws->f;",)),
    "panel": (
        "n, n, sn_panel_total",
        (
            "double* const repro_f = repro_ws->f;",
            "int64_t* const repro_rowmap = repro_ws->rowmap;",
            "double* const repro_store = repro_ws->panel;",
        ),
    ),
}


# --------------------------------------------------------------------------- #
# Step bodies, one per domain loop
# --------------------------------------------------------------------------- #
def _column_solve(out: _CEmitter) -> None:
    """Column ``j`` of the push-form triangular solve: ``x[j]``, then its updates below the diagonal."""
    out.emit("int64_t p0 = Lp[j], p1 = Lp[j + 1];")
    out.emit("double xj = x[j] / Lx[p0];")
    out.emit("x[j] = xj;")
    out.emit("for (int64_t p = p0 + 1; p < p1; p++) x[Li[p]] -= Lx[p] * xj;")


def _segment_step(out: _CEmitter, domain: DomainLoop) -> None:
    """Segment ``s`` of the :func:`tables.trisolve_segments` walk: a pruned column run or one supernode block.

    A block solves its ``w x w`` diagonal block and updates the rows below it
    one column at a time, with positions read from the descriptor: the code
    is specialised by neither width nor pattern, and the floating-point
    operations and their order are those of the column-by-column solve.
    """
    out.emit("const int64_t* d = _C_seg + 5 * s;")
    out.emit("const int64_t w = d[0];")
    out.emit("if (w == 0) {")
    out.push()
    out.emit("/* pruned column loop over run_cols[d[1] .. d[2]) */")
    out.emit("for (int64_t t = d[1]; t < d[2]; t++) {")
    out.push()
    out.emit("int64_t j = _C_run_cols[t];")
    _column_solve(out)
    out.pop()
    out.emit("}")
    out.emit("return 0;")
    out.pop()
    out.emit("}")
    out.emit("/* supernode block: dense solve of the w x w diagonal block, then the panel update */")
    out.emit("const int64_t c0 = d[1], n_off = d[2], off_lo = d[3];")
    out.emit("const int64_t* cs = _C_blk_cs + d[4];")
    out.emit("for (int64_t jj = 0; jj < w; jj++) {")
    out.push()
    out.emit("int64_t pd = cs[jj];")
    out.emit("double xj = x[c0 + jj] / Lx[pd];")
    out.emit("x[c0 + jj] = xj;")
    out.emit("for (int64_t i = 1; i < w - jj; i++) x[c0 + jj + i] -= Lx[pd + i] * xj;")
    out.emit("for (int64_t r = 0; r < n_off; r++) x[Li[off_lo + r]] -= Lx[pd + (w - jj) + r] * xj;")
    out.pop()
    out.emit("}")


def _row_step(out: _CEmitter, domain: Optional[DomainLoop]) -> None:
    """Row ``j`` of the pull-form triangular solve (:func:`tables.trisolve_rows`): the wavefront job's step."""
    out.emit("double acc = b[j];")
    out.emit(
        "for (int64_t s = _C_wf_row_ptr[j]; s < _C_wf_row_ptr[j + 1]; s++) "
        "acc -= Lx[_C_wf_row_pos[s]] * x[_C_wf_row_col[s]];"
    )
    out.emit("x[j] = acc / Lx[Lp[j]];")


def _cholesky_step(out: _CEmitter, domain: DomainLoop) -> None:
    """One left-looking LLᵀ / LDLᵀ column ``j`` over the thread-local work vector ``repro_f``.

    Its updates are ``prune_ptr[j] .. prune_ptr[j + 1]`` of the
    ``update_pos`` / ``_end`` / ``_col`` tables.  The only shared-array
    writes are column ``j`` of ``Lx`` (and ``D[j]``).
    """
    ldlt = domain.factor_kind == "ldlt"
    out.emit("for (int64_t p = _C_a_diag_pos[j]; p < _C_a_col_end[j]; p++) repro_f[Ai[p]] = Ax[p];")
    out.emit("for (int64_t t = _C_prune_ptr[j]; t < _C_prune_ptr[j + 1]; t++) {")
    out.push()
    out.emit("int64_t ps = _C_update_pos[t], pe = _C_update_end[t];")
    out.emit("double ljk = Lx[ps] * D[_C_update_col[t]];" if ldlt else "double ljk = Lx[ps];")
    out.emit("for (int64_t p = ps; p < pe; p++) repro_f[_C_l_indices[p]] -= Lx[p] * ljk;")
    out.pop()
    out.emit("}")
    out.emit("int64_t lp0 = _C_l_indptr[j], lp1 = _C_l_indptr[j + 1];")
    out.emit("double d = repro_f[j];")
    if ldlt:
        out.emit("if (d == 0.0) return j + 1;")
        out.emit("D[j] = d;")
        out.emit("Lx[lp0] = 1.0;")
        out.emit("for (int64_t p = lp0 + 1; p < lp1; p++) Lx[p] = repro_f[_C_l_indices[p]] / d;")
    else:
        out.emit("if (!(d > 0.0)) return j + 1;")
        out.emit("double ljj = sqrt(d);")
        out.emit("Lx[lp0] = ljj;")
        out.emit("for (int64_t p = lp0 + 1; p < lp1; p++) Lx[p] = repro_f[_C_l_indices[p]] / ljj;")
    out.emit("for (int64_t p = lp0; p < lp1; p++) repro_f[_C_l_indices[p]] = 0.0;")


def _supernode_step(out: _CEmitter, domain: DomainLoop) -> None:
    """Supernode ``s`` of the VS-Block'd loop: one block update per descendant supernode, then the panel's own columns.

    The panel (the supernode's ``nr`` rows x its ``w`` columns, column-major)
    lives in the thread's panel store for the whole factorization, where the
    supernodes it updates later read it.  Each descendant ``d`` subtracts the
    dense block ``C(:, j) = Σ_q Pd(:, q) Pd(j, q)`` (LDLᵀ: ``· D``),
    accumulated column by column from zero with ``q`` ascending in the
    all-zero work vector ``repro_f``, through the row map; ``repro_f`` is
    cleared as it is read.  The panel is then factored left-looking, one
    column at a time, and each column is copied out into ``Lx``.  A
    one-column supernode runs the same code.
    """
    scale = " * D[{0} + q]" if domain.factor_kind == "ldlt" else ""
    out.emit("int64_t c0 = _C_sup_start[s], w = _C_sup_end[s] - c0;")
    out.emit("int64_t r0 = _C_l_indptr[c0], nr = _C_l_indptr[c0 + 1] - r0;")
    out.emit("double* const P = repro_store + _C_sup_panel_ptr[s];")
    out.emit("for (int64_t i = 0; i < nr; i++) repro_rowmap[_C_l_indices[r0 + i]] = i;")
    out.emit("memset(P, 0, nr * w * sizeof(double));")
    out.emit("for (int64_t k = 0; k < w; k++)")
    out.emit(
        "    for (int64_t p = _C_a_diag_pos[c0 + k]; p < _C_a_col_end[c0 + k]; p++) "
        "P[k * nr + repro_rowmap[Ai[p]]] = Ax[p];"
    )
    out.emit("for (int64_t t = _C_desc_ptr[s]; t < _C_desc_ptr[s + 1]; t++) {")
    out.push()
    out.emit("int64_t d0 = _C_sup_start[_C_desc_sup[t]], wd = _C_sup_end[_C_desc_sup[t]] - d0;")
    out.emit("int64_t nd = _C_l_indptr[d0 + 1] - _C_l_indptr[d0];")
    out.emit("const int64_t* rows = _C_l_indices + _C_l_indptr[d0];")
    out.emit("const double* Pd = repro_store + _C_sup_panel_ptr[_C_desc_sup[t]];")
    out.emit("for (int64_t j = _C_desc_i0[t]; j < _C_desc_i1[t]; j++) {")
    out.push()
    out.emit("for (int64_t q = 0; q < wd; q++) {")
    out.emit("    const double* a = Pd + q * nd;")
    out.emit(f"    double m = a[j]{scale.format('d0')};")
    out.emit("    for (int64_t i = j; i < nd; i++) repro_f[i] += a[i] * m;")
    out.emit("}")
    out.emit("double* pj = P + (rows[j] - c0) * nr;")
    out.emit("for (int64_t i = j; i < nd; i++) {")
    out.emit("    pj[repro_rowmap[rows[i]]] -= repro_f[i];")
    out.emit("    repro_f[i] = 0.0;")
    out.emit("}")
    out.pop()
    out.emit("}")
    out.pop()
    out.emit("}")
    out.emit("for (int64_t k = 0; k < w; k++) {")
    out.push()
    out.emit("double* pk = P + k * nr;")
    out.emit("for (int64_t q = 0; q < k; q++) {")
    out.emit("    const double* a = P + q * nr;")
    out.emit(f"    double m = a[k]{scale.format('c0')};")
    out.emit("    for (int64_t i = k; i < nr; i++) pk[i] -= a[i] * m;")
    out.emit("}")
    out.emit("double piv = pk[k];")
    if domain.factor_kind == "ldlt":
        out.emit("if (piv == 0.0) return c0 + k + 1;")
        out.emit("D[c0 + k] = piv;")
        out.emit("pk[k] = 1.0;")
    else:
        out.emit("if (!(piv > 0.0)) return c0 + k + 1;")
        out.emit("piv = sqrt(piv);")
        out.emit("pk[k] = piv;")
    out.emit("for (int64_t i = k + 1; i < nr; i++) pk[i] /= piv;")
    out.emit("memcpy(Lx + _C_l_indptr[c0 + k], pk + k, (nr - k) * sizeof(double));")
    out.pop()
    out.emit("}")


def _lu_step(out: _CEmitter, domain: DomainLoop) -> None:
    """One left-looking LU column ``j`` over the thread-local work vector ``repro_f``.

    Scatter ``A(:, j)``, apply the update columns, store column ``j`` of ``U``
    and ``L``, restore the work vector to zero.  Writes outside the work
    vector land only in columns ``j`` of ``Lx`` / ``Ux``.
    """
    out.emit("for (int64_t p = _C_a_col_start[j]; p < _C_a_col_end[j]; p++) repro_f[Ai[p]] = Ax[p];")
    out.emit("for (int64_t t = _C_prune_ptr[j]; t < _C_prune_ptr[j + 1]; t++) {")
    out.push()
    out.emit("int64_t ps = _C_update_pos[t], pe = _C_update_end[t];")
    out.emit("double ukj = repro_f[_C_update_col[t]];")
    out.emit("for (int64_t p = ps; p < pe; p++) repro_f[_C_l_indices[p]] -= Lx[p] * ukj;")
    out.pop()
    out.emit("}")
    out.emit("int64_t u0 = _C_u_indptr[j], u1 = _C_u_indptr[j + 1];")
    out.emit("for (int64_t p = u0; p < u1; p++) Ux[p] = repro_f[_C_u_indices[p]];")
    out.emit("double piv = repro_f[j];")
    out.emit("if (piv == 0.0) return j + 1;")
    out.emit("int64_t lp0 = _C_l_indptr[j], lp1 = _C_l_indptr[j + 1];")
    out.emit("Lx[lp0] = 1.0;")
    out.emit("for (int64_t p = lp0 + 1; p < lp1; p++) Lx[p] = repro_f[_C_l_indices[p]] / piv;")
    out.emit("for (int64_t p = u0; p < u1; p++) repro_f[_C_u_indices[p]] = 0.0;")
    out.emit("for (int64_t p = lp0; p < lp1; p++) repro_f[_C_l_indices[p]] = 0.0;")


def _ic0_step(out: _CEmitter, domain: DomainLoop) -> None:
    """One IC(0) elimination step ``j``, in place on the ``tril(A)`` pattern: writes land only in column ``j``."""
    out.emit("for (int64_t t = _C_prune_ptr[j]; t < _C_prune_ptr[j + 1]; t++) {")
    out.push()
    out.emit("double ljk = Lx[_C_mult_pos[t]];")
    out.emit(
        "for (int64_t s = _C_l_scat_ptr[t]; s < _C_l_scat_ptr[t + 1]; s++) "
        "Lx[_C_l_scat_dst[s]] -= Lx[_C_l_scat_src[s]] * ljk;"
    )
    out.pop()
    out.emit("}")
    out.emit("int64_t lp0 = _C_l_indptr[j], lp1 = _C_l_indptr[j + 1];")
    out.emit("double d = Lx[lp0];")
    out.emit("if (!(d > 0.0)) return j + 1;")
    out.emit("double ljj = sqrt(d);")
    out.emit("Lx[lp0] = ljj;")
    out.emit("for (int64_t p = lp0 + 1; p < lp1; p++) Lx[p] /= ljj;")


def _ilu0_step(out: _CEmitter, domain: DomainLoop) -> None:
    """One ILU(0) elimination step ``j``, in place on the ``A`` pattern.

    All writes land in column ``j`` of ``Ux`` and ``Lx``, all reads come from
    columns ``k < j``.
    """
    out.emit("for (int64_t t = _C_prune_ptr[j]; t < _C_prune_ptr[j + 1]; t++) {")
    out.push()
    out.emit("double ukj = Ux[_C_mult_pos[t]];")
    out.emit(
        "for (int64_t s = _C_u_scat_ptr[t]; s < _C_u_scat_ptr[t + 1]; s++) "
        "Ux[_C_u_scat_dst[s]] -= Lx[_C_u_scat_src[s]] * ukj;"
    )
    out.emit(
        "for (int64_t s = _C_l_scat_ptr[t]; s < _C_l_scat_ptr[t + 1]; s++) "
        "Lx[_C_l_scat_dst[s]] -= Lx[_C_l_scat_src[s]] * ukj;"
    )
    out.pop()
    out.emit("}")
    out.emit("double piv = Ux[_C_u_indptr[j + 1] - 1];")
    out.emit("if (piv == 0.0) return j + 1;")
    out.emit("int64_t lp0 = _C_l_indptr[j], lp1 = _C_l_indptr[j + 1];")
    out.emit("Lx[lp0] = 1.0;")
    out.emit("for (int64_t p = lp0 + 1; p < lp1; p++) Lx[p] /= piv;")


@dataclass(frozen=True)
class _Loop:
    """How one domain loop is printed (see :meth:`CBackend.generate`).

    ``extent`` is the number of steps and ``index`` the step variable;
    ``preamble`` initialises the outputs before the first step; ``step``
    prints the body of one step from the planned :class:`DomainLoop` (``None``
    for an untransformed kernel); ``work`` is the kind of work buffers
    (:data:`_WORK`) a step reads.  ``contract``, given the operand, the level
    schedule and the serial loop's contract, returns what this loop reads on
    top of the schedule when a wavefront job runs it.
    """

    extent: str
    preamble: Tuple[str, ...]
    step: Callable[[_CEmitter, Optional[DomainLoop]], None]
    index: str = "j"
    work: Optional[str] = None
    contract: Optional[Callable[..., tables.Contract]] = None


_X_IS_B = ("for (int64_t i = 0; i < n; i++) x[i] = b[i];",)
_ZERO_LX = "memset(Lx, 0, nnz_l * sizeof(double));"

#: The printer of every domain loop, by role (``"untransformed"``: no domain loop).
_LOOPS: Dict[str, _Loop] = {
    "untransformed": _Loop("n", _X_IS_B, lambda out, domain: _column_solve(out)),
    "trisolve-segments": _Loop("n_seg", _X_IS_B, _segment_step, index="s"),
    "trisolve-rows": _Loop("n", _X_IS_B, _row_step, contract=tables.trisolve_rows),
    "simplicial-cholesky": _Loop("n", (_ZERO_LX,), _cholesky_step, work="column"),
    "supernodal-cholesky": _Loop("n_super", (_ZERO_LX,), _supernode_step, index="s", work="panel"),
    "simplicial-lu": _Loop("n", (_ZERO_LX, "memset(Ux, 0, nnz_u * sizeof(double));"), _lu_step, work="column"),
    "incomplete-cholesky": _Loop(
        "n", ("for (int64_t i = 0; i < nnz_l; i++) Lx[i] = Ax[_C_a_lower_pos[i]];",), _ic0_step
    ),
    "incomplete-lu": _Loop(
        "n",
        (
            "for (int64_t i = 0; i < nnz_u; i++) Ux[i] = Ax[_C_a_upper_pos[i]];",
            _ZERO_LX,
            "for (int64_t i = 0; i < n_below; i++) Lx[_C_l_gather_dst[i]] = Ax[_C_a_lower_pos[i]];",
        ),
        _ilu0_step,
    ),
}


class CBackend:
    """Generate and compile specialized C code from a planned domain loop."""

    name = "c"

    def __init__(
        self,
        compiler: str = "cc",
        flags: Tuple[str, ...] = ("-O3", "-march=native", "-fPIC", "-shared"),
    ) -> None:
        self.compiler = compiler
        self.flags = tuple(flags)

    # ------------------------------------------------------------------ #
    def generate(self, domain: Optional[DomainLoop], method: str, entry: str, context) -> CGeneratedModule:
        """The :class:`CGeneratedModule` of ``method`` running ``domain`` (``None``: the untransformed loop).

        It holds the step function, the wavefront job if any, and the entry
        point ``entry``.
        """
        start = time.perf_counter()
        spec = _C_METHOD_SPECS.get(method)
        if spec is None:
            raise CCompilationError(f"unsupported method {method!r}")
        role = "untransformed" if domain is None else domain.role
        if role not in spec.loops:
            raise CCompilationError(f"the C backend requires a VI-Pruned or VS-Block'd {method} kernel")
        loop = _LOOPS[role]
        contracts = [({}, {}) if domain is None else domain.contract]
        parallel, fallback = "none", None
        if context.options.parallel == "wavefront":
            parallel, fallback = self._wavefront_mode(context, role)
        job = _LOOPS[spec.wavefront_loop or role] if parallel == "wavefront" else None
        if job is not None:
            schedule = context.inspection.schedule
            contracts.append(tables.level_schedule(schedule))
            if job.contract is not None:
                contracts.append(job.contract(context.matrix, schedule, contracts[0]))
        constants = tables.block(context.inspection.n, *contracts)
        dims = ["n", *(name for sizes, _ in contracts for name in sizes)]

        code = _CEmitter()
        self._emit_step(code, f"{entry}_step", loop, domain, spec)
        if job is not None:
            step = f"{entry}_step"
            if job is not loop:
                step = f"{entry}_wf_step"
                self._emit_step(code, step, job, domain, spec)
            self._emit_job(code, entry, step, job, spec, schedule.n_levels)
        code.emit(spec.signature(entry, wavefront=parallel != "none") + " {")
        code.push()
        code.emit("REPRO_BIND_TABLES")
        for line in loop.preamble:
            code.emit(line)
        if job is not None:
            self._emit_launch(code, entry, spec)
        elif fallback is not None:
            code.emit(f"(void)n_threads;  /* serial fallback: {fallback} */")
        self._emit_serial_loop(code, entry, loop, spec)
        code.pop()
        code.emit("}")

        # The runtimes go in when the emitted code calls them.
        text = "\n".join(code.lines)
        work_buffers = "repro_ws" in text
        out = _CEmitter()
        out.emit("/* Sympiler-generated kernel (C backend). */")
        if job is not None:
            # Pool, barrier and level clock are module state: key the module
            # by its tables so that no two patterns share (and serialise on)
            # one loaded wavefront kernel.
            tables_fp = pattern_fingerprint(*constants.values())
            out.emit(f"/* wavefront module of the tables {tables_fp}; not shared between patterns */")
        out.emit("#include <stdint.h>")
        out.emit("#include <math.h>")
        out.emit("#include <string.h>")
        if work_buffers:
            out.emit("#include <stdlib.h>")
        if work_buffers or job is not None:
            out.emit("#include <pthread.h>")
        if job is not None:
            out.emit("#include <stdatomic.h>")
            out.emit("#include <sched.h>")
            out.emit("#include <time.h>")
        out.emit("")
        # The inspection sets and sizes this code names, bound at the top of
        # every function from the table block its caller passes down.
        bind = [f"const int64_t* const {name} = repro_T[{k}];" for k, name in enumerate(constants)]
        bind += [f"const int64_t {name} = _C_dims[{k}];" for k, name in enumerate(dims)]
        out.emit("#define REPRO_BIND_TABLES \\")
        out.lines.extend(f"    {line} \\" for line in bind[:-1])
        out.emit(f"    {bind[-1]}")
        if work_buffers:
            out.emit(_WORK_BUFFERS)
        if job is not None:
            out.emit(_WF_RUNTIME)
        out.emit("")
        out.lines.extend(code.lines)
        source = out.source()
        codegen_seconds = time.perf_counter() - start
        meta = {}
        if job is not None:
            # The per-level profiling buffer length, needed by
            # wavefront_level_seconds() to read the timestamps back out.
            meta["wf_n_levels"] = int(schedule.n_levels)
        return CGeneratedModule(
            source=source,
            entry_name=entry,
            constants=constants,
            method=method,
            codegen_seconds=codegen_seconds,
            compiler=self.compiler,
            flags=self.flags,
            n=int(context.inspection.n),
            parallel=parallel,
            meta=meta,
        )

    @staticmethod
    def _wavefront_mode(context, role: str) -> Tuple[str, Optional[str]]:
        """``("wavefront", None)`` or ``("serial-fallback", reason)``, recorded under ``decisions["wavefront"]``.

        The wavefront ABI is kept either way — on fallback the serial kernel
        is emitted behind it — so artifact callers never need to care which
        body the compile chose.
        """
        schedule = getattr(context.inspection, "schedule", None)
        if schedule is None:
            reason = "no-schedule"
        elif role == "supernodal-cholesky":
            # A supernode reads its descendants' panels from the calling
            # thread's panel store, so one thread runs every supernode.
            reason = "supernodal"
        elif schedule.n_scheduled == 0:
            reason = "empty-schedule"
        elif schedule.average_width < context.options.wavefront_min_avg_width:
            # n_levels close to n: a deep elimination tree, where per-level
            # barriers cost more than the parallelism they unlock.
            reason = "deep-etree"
        else:
            reason = None
        mode = "wavefront" if reason is None else "serial-fallback"
        info: Dict[str, object] = {"mode": mode}
        if reason is not None:
            info["fallback_reason"] = reason
        if schedule is not None:
            info["n_levels"] = schedule.n_levels
            info["max_width"] = schedule.max_width
            info["average_width"] = round(schedule.average_width, 3)
        context.decisions["wavefront"] = info
        return mode, reason

    @staticmethod
    def _emit_step(out: _CEmitter, name: str, loop: _Loop, domain: Optional[DomainLoop], spec: CMethodSpec) -> None:
        """Print ``static inline int64_t {name}(int64_t j, <the entry's arrays>, repro_T)``: one step of ``loop``.

        It returns 0, or the failing column + 1.
        """
        params = ", ".join(spec.params)
        out.emit(f"static inline int64_t {name}(int64_t {loop.index}, {params}, const int64_t* const* repro_T) {{")
        out.push()
        out.emit("REPRO_BIND_TABLES")
        for line in _WORK[loop.work][1] if loop.work else ():
            out.emit(line)
        loop.step(out, domain)
        out.emit("return 0;")
        out.pop()
        out.emit("}")
        out.emit("")

    @staticmethod
    def _emit_serial_loop(out: _CEmitter, entry: str, loop: _Loop, spec: CMethodSpec) -> None:
        """Reserve and clear this thread's work buffers, then run every step in order."""
        if loop.work:
            out.emit(f"if (!repro_ws_reserve({_WORK[loop.work][0]})) return -1;")
            out.emit("memset(repro_ws->f, 0, n * sizeof(double));")
        i = loop.index
        head = f"for (int64_t {i} = 0; {i} < {loop.extent}; {i}++)"
        call = f"{entry}_step({i}, {', '.join(spec.names)}, repro_T)"
        if spec.failure is None:
            out.emit(f"{head} {call};")
            return
        out.emit(f"{head} {{")
        out.push()
        out.emit(f"int64_t st = {call};")
        out.emit("if (st) return st;")
        out.pop()
        out.emit("}")
        out.emit("return 0;")

    @staticmethod
    def _emit_job(out: _CEmitter, entry: str, step: str, loop: _Loop, spec: CMethodSpec, n_levels: int) -> None:
        """Print the wavefront job: its argument struct and ``{entry}_wf_run``, which runs ``step`` level by level.

        Participant ``tid`` of ``nt`` takes one contiguous chunk of each
        level's slice of ``_C_wf_order``, with a barrier after every level;
        the first failing step's status stops every participant.
        """
        fields = " ".join(f"{decl};" for decl in spec.params)
        out.emit(f"typedef struct {{ {fields} const int64_t* const* repro_T; }} {entry}_wf_job_t;")
        out.emit("")
        # Per-level wall-clock timestamps, recorded by participant 0 only
        # (after each barrier every level's columns are complete, so tid 0's
        # clock reads bound the level) and only while the runtime profiling
        # flag is raised.  Exported for ctypes via {entry}_wf_level_times.
        # Module state like the pool: sized by this pattern's level count.
        out.emit(f"static double {entry}_wf_level_ts[{n_levels} + 1];")
        out.emit(f"double* {entry}_wf_level_times(void) {{ return {entry}_wf_level_ts; }}")
        out.emit("")
        out.emit(f"static void {entry}_wf_run(int64_t tid, int64_t nt, void* jobv) {{")
        out.push()
        out.emit(f"{entry}_wf_job_t* job = ({entry}_wf_job_t*)jobv;")
        out.emit("const int64_t* const* repro_T = job->repro_T;")
        out.emit("REPRO_BIND_TABLES")
        out.emit("int64_t wf_sense = 0;")
        out.emit("int64_t wf_prof = tid == 0 && repro_wf_profile_on();")
        out.emit(f"if (wf_prof) {entry}_wf_level_ts[0] = repro_wf_now();")
        if loop.work:
            # A failed earlier call may have bailed out of a step with the
            # thread-local work vector still scattered (and another pattern
            # may have used it since); restore the all-zeros invariant the
            # steps rely on.
            out.emit(f"if (repro_ws_reserve({_WORK[loop.work][0]})) memset(repro_ws->f, 0, n * sizeof(double));")
            out.emit("else repro_wf_fail(-1);")
        out.emit("for (int64_t l = 0; l < wf_n_levels; l++) {")
        out.push()
        out.emit("int64_t lo = _C_wf_level_ptr[l], hi = _C_wf_level_ptr[l + 1];")
        out.emit("int64_t chunk = (hi - lo + nt - 1) / nt;")
        out.emit("int64_t s = lo + tid * chunk;")
        out.emit("int64_t e = s + chunk < hi ? s + chunk : hi;")
        out.emit("if (repro_wf_ok()) {")
        out.push()
        out.emit("for (int64_t t = s; t < e; t++) {")
        out.push()
        args = ", ".join(f"job->{name}" for name in spec.names)
        out.emit(f"int64_t st = {step}(_C_wf_order[t], {args}, repro_T);")
        out.emit("if (st != 0) { repro_wf_fail(st); break; }")
        out.pop()
        out.emit("}")
        out.pop()
        out.emit("}")
        out.emit("repro_wf_barrier(nt, &wf_sense);")
        out.emit(f"if (wf_prof) {entry}_wf_level_ts[l + 1] = repro_wf_now();")
        out.pop()
        out.emit("}")
        out.pop()
        out.emit("}")
        out.emit("")

    @staticmethod
    def _emit_launch(out: _CEmitter, entry: str, spec: CMethodSpec) -> None:
        """Hand the call to the worker pool when it has more than one thread to use."""
        out.emit("if (n_threads > wf_max_width) n_threads = wf_max_width;")
        out.emit("if (n_threads > 1) {")
        out.push()
        out.emit(f"{entry}_wf_job_t wf_job = {{ {', '.join(spec.names)}, repro_T }};")
        launch = f"repro_wf_launch({entry}_wf_run, &wf_job, n_threads)"
        if spec.failure is None:
            out.emit(f"{launch};")
            out.emit("return;")
        else:
            out.emit(f"return {launch};")
        out.pop()
        out.emit("}")
