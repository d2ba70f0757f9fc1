"""Specialized-C code generation backend.

Emits C source whose *shape* follows the transformed AST, compiles it with the
system C compiler and loads the shared object through :mod:`ctypes`.  This is
the closest analogue of the original Sympiler, which generates C and compiles
it with GCC ``-O3`` (§4.1); the backend is optional — environments without a
C compiler run the python backend's reference kernels over the same tables.

What may be literal in the generated source
-------------------------------------------
Only what changes the *code*, and only as much of it as an existing option
bounds: which loop nest a transformation chose (simplicial or supernodal,
distributed or not, serial or wavefront) and the unrolled supernode widths
(one ``switch`` case per width up to ``unroll_max_width`` whenever the
low-level passes are enabled).  The backend never reads the pattern to decide
*what code* to emit: source is a function of (kernel, options, code shape).
Everything that depends on the sparsity pattern alone — every inspection set
(``l_indptr``, ``prune_ptr``, the supernode and descendant descriptors, the
scatter tables, the level schedule, the triangular solve's segment
descriptors) and every size (``n``, nnz, supernode, segment and level counts)
— is *data*.  Its name and its position come from the table contract
(:mod:`repro.compiler.codegen.tables`, one function per domain loop): a body
emitter binds a contract result (:meth:`CBackend._bind`) and then only prints
— ``_C_<name>`` for a table, the bare name for a size — and the python
backend's reference kernels read the same block.  Only the wavefront emitters
register tables of their own (level schedule, pull structure), on top of it.
The loaded entry point receives the block through one trailing pointer
argument.  So the size of a source file and the time ``cc`` spends on it are
constants of the code shape, and two patterns that lower to the same code
produce byte-identical source and share one ``.so`` through the
source-fingerprint file stem; every serial triangular solve of one option
bundle is the same ``.so``.

Entry points generated (``repro_T`` is the table block; ``repro_T[0]`` holds
the scalar sizes, ``repro_T[k]`` the k-th registered inspection set):

* triangular solve — ``void <name>(const int64_t* Lp, const int64_t* Li,
  const double* Lx, const double* b, double* x,
  const int64_t* const* repro_T)``
* Cholesky — ``int64_t <name>(const int64_t* Ap, const int64_t* Ai,
  const double* Ax, double* Lx, const int64_t* const* repro_T)`` returning 0
  on success or ``j + 1`` when a non-positive pivot is met at column ``j``
  (``-1``: out of memory for the per-thread work buffers).

The table block is built once, when the module is loaded
(:meth:`CMethodSpec.wrap`), from the arrays the compile call already holds;
nothing is persisted for it, because every process re-runs inspection before
it loads a ``.so``.

Under ``SympilerOptions(parallel="wavefront")`` every entry point gains an
``int64_t n_threads`` argument (before the table block) and executes the
columns of each level of the inspector's cached
:class:`~repro.runtime.levels.ExecutionSchedule` across a persistent pthread
worker pool, with a barrier between levels (the paper's H-Level parallelism,
applied *within* one numeric call).  Levels are antichains of the column
dependency DAG, so per-column writes are disjoint and the result is bitwise
identical to the serial kernel; when the schedule has no parallelism to mine
(or the kernel is supernodal) the serial body is emitted behind the same ABI
and the fallback is recorded on the artifact.  The pool, the barrier and the
per-level clock are module state, so a wavefront source is stamped with the
fingerprint of its tables and its ``.so`` is never shared between patterns
(two patterns would serialise on one job mutex).
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import shutil
import subprocess
import threading
import time
import uuid
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.compiler.ast import DomainLoop, KernelFunction, domain_loop
from repro.compiler.cache import build_file_once
from repro.compiler.codegen import tables
from repro.compiler.codegen.runtime import generated_code_dir, pattern_fingerprint
from repro.compiler.registration import register_unique
from repro.observe.events import emit as emit_event
from repro.observe.trace import span as observe_span

__all__ = [
    "CBackend",
    "CGeneratedModule",
    "CCompilationError",
    "CMethodSpec",
    "DiskCacheStats",
    "c_compiler_available",
    "disk_cache_stats",
    "reset_disk_cache_stats",
    "register_c_method",
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


def tmp_path_for(path: str) -> str:
    """A collision-free temp name next to ``path``.

    The uuid component keeps concurrent *threads* of one process (same pid)
    from sharing a temp file, not just concurrent processes.
    """
    return f"{path}.tmp-{os.getpid()}-{uuid.uuid4().hex[:8]}"


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
        """Compile the C source and return a NumPy-friendly wrapper.

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

        def _invoke_cc() -> None:
            # The source file exists for `cc` (and for whoever debugs a
            # kernel); a start that finds the .so never gets here.
            atomic_write_text(c_path, self.source)
            tmp_so = tmp_path_for(so_path)
            cmd = [self.compiler, *self.flags, *extra_flags, "-o", tmp_so, c_path, "-lm"]
            try:
                with observe_span(
                    "cc",
                    entry=self.entry_name,
                    method=self.method,
                    source_bytes=len(self.source.encode()),
                ):
                    try:
                        proc = subprocess.run(
                            cmd, capture_output=True, text=True, timeout=_CC_TIMEOUT_SECONDS
                        )
                    except subprocess.TimeoutExpired:
                        raise CCompilationError(
                            f"C compilation timed out after {_CC_TIMEOUT_SECONDS:g} s "
                            f"({' '.join(cmd)})"
                        ) from None
                if proc.returncode != 0:
                    raise CCompilationError(
                        f"C compilation failed ({' '.join(cmd)}):\n{proc.stderr}"
                    )
                os.replace(tmp_so, so_path)
            finally:
                if os.path.exists(tmp_so):
                    os.unlink(tmp_so)

        for rebuilt in (False, True):
            # Cross-process single-flight: shard workers (and parallel CI
            # jobs) cold-compiling the same source run exactly one ``cc``
            # between them; the losers load the winner's atomically-published
            # ``.so``.
            outcome = build_file_once(so_path, _invoke_cc)
            if outcome == "built":
                _DISK_CACHE_STATS.bump("compiles")
            else:
                _DISK_CACHE_STATS.bump("reuses")
                if outcome == "waited":
                    _DISK_CACHE_STATS.bump("lock_waits")
            self.so_shared = outcome != "built"
            try:
                lib = ctypes.CDLL(so_path)
                break
            except OSError as exc:
                # A truncated or foreign file under the right name (a crashed
                # copy, a full disk): build_file_once would answer "hit" for
                # it on every later start, so replace it — once — instead of
                # failing forever.
                if rebuilt:
                    raise CCompilationError(
                        f"shared object {so_path} cannot be loaded even after a rebuild: {exc}"
                    ) from exc
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(so_path)
                emit_event("so_rebuilt", path=so_path)
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
        try:
            setter = self._lib.repro_wf_set_profile
        except AttributeError:  # pragma: no cover - older cached .so
            return False
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
        try:
            getter = getattr(self._lib, f"{self.entry_name}_wf_level_times")
        except AttributeError:  # pragma: no cover - older cached .so
            return None
        getter.restype = ctypes.POINTER(ctypes.c_double)
        getter.argtypes = []
        ts = np.ctypeslib.as_array(getter(), shape=(n_levels + 1,))
        if not ts.any():
            return None
        return np.diff(ts.copy())


# --------------------------------------------------------------------------- #
# Per-method ABI specs (entry signature + ctypes wrapper)
# --------------------------------------------------------------------------- #
_NUMPY_DTYPES = {"int64_t": np.int64, "double": np.float64}


def num_threads_from_env() -> Optional[int]:
    """The ``REPRO_NUM_THREADS`` override: ``None`` when unset or blank.

    The one parser of the variable, for the wavefront entry below and for
    :func:`repro.runtime.engine.resolve_num_threads` (it lives here because
    the runtime imports this module).  Surrounding blanks are ignored;
    anything else must be an integer.
    """
    raw = os.environ.get("REPRO_NUM_THREADS", "")
    if not raw.strip():
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"REPRO_NUM_THREADS must be an integer, got {raw!r}") from None


def _wavefront_threads(num_threads: Optional[int]) -> int:
    """Resolve the thread count of one wavefront entry call.

    Precedence: explicit argument > ``REPRO_NUM_THREADS`` environment
    override > one thread per available CPU (``0`` means "one per CPU" at
    any level).  Mirrors :func:`repro.runtime.engine.resolve_num_threads`
    except for the last step — a wavefront kernel called without any request
    should saturate the machine, that being its purpose.
    """
    if num_threads is None:
        num_threads = num_threads_from_env()
    if num_threads is None:
        num_threads = 0
    num_threads = int(num_threads)
    if num_threads < 0:
        raise ValueError("num_threads must be non-negative (0 means one per CPU)")
    if num_threads == 0:
        return os.cpu_count() or 1
    return num_threads


@dataclass(frozen=True)
class CMethodSpec:
    """ABI description of one kernel method for the C backend.

    The entry point takes the ``inputs`` (``(C name, element type)`` of each
    ``const`` array, in order), then one ``double*`` per ``outputs`` entry
    (``(C name, size attribute)`` — the buffer length is that attribute of
    the inspection result: ``n``, ``factor_nnz``, ``l_nnz``, ...), then, when
    ``wavefront``, an ``int64_t n_threads``, and last the table block
    ``const int64_t* const* repro_T`` — one pointer per inspection set the
    source names, in registration order.  ``failure`` is the message (a
    template over ``{column}``) of the ``ValueError`` raised when the entry
    returns the positive status ``column + 1``; ``None`` declares a ``void``
    entry that cannot fail.  ``body_emitter`` names the :class:`CBackend`
    method emitting the function body.  Both the emitted C signature and the
    NumPy-friendly ctypes wrapper derive from this one description, so
    registering a new kernel method means adding a spec instead of editing
    the generator.
    """

    body_emitter: str
    inputs: Tuple[Tuple[str, str], ...]
    outputs: Tuple[Tuple[str, str], ...]
    failure: Optional[str] = None
    wavefront: bool = False

    @property
    def signature(self) -> str:
        """The C prototype, a format template over ``{name}``."""
        params = [f"const {ctype}* {name}" for name, ctype in self.inputs]
        params += [f"double* {name}" for name, _ in self.outputs]
        if self.wavefront:
            params.append("int64_t n_threads")
        params.append("const int64_t* const* repro_T")
        restype = "void" if self.failure is None else "int64_t"
        return f"{restype} {{name}}({', '.join(params)})"

    def wrap(self, module: "CGeneratedModule", fn) -> Callable:
        """The NumPy-friendly wrapper of the loaded entry point ``fn``.

        Takes the input arrays positionally, allocates the outputs and
        returns them (a bare array for one output, a tuple otherwise).  A
        wavefront entry's wrapper also takes ``num_threads=None``, resolved
        per call — the thread count is a runtime knob, never baked in.

        The table block is bound here, once: an array of the addresses of
        ``module.constants``' buffers, which the closure keeps alive for as
        long as the wrapper exists.  A call passes the block's address and
        nothing else, whatever the number of tables.
        """
        dtypes = [_NUMPY_DTYPES[ctype] for _, ctype in self.inputs]
        sizes = [module.meta[attr] for _, attr in self.outputs]
        pointers = [np.ctypeslib.ndpointer(dtype=d, flags="C_CONTIGUOUS") for d in dtypes]
        pointers += [np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")] * len(sizes)
        fn.restype = None if self.failure is None else ctypes.c_int64
        fn.argtypes = pointers + ([ctypes.c_int64] if self.wavefront else []) + [ctypes.c_void_p]
        tables = list(module.constants.values())  # contiguous int64, see _add_constant
        block = (ctypes.c_void_p * len(tables))(*(t.ctypes.data for t in tables))
        block_address = ctypes.addressof(block)

        def call(arrays, tail=(), _keepalive=(tables, block)):
            # _keepalive: the buffers behind `block_address` must live as
            # long as the callable that hands the address out.
            args = [np.ascontiguousarray(a, dtype=d) for a, d in zip(arrays, dtypes)]
            outs = [np.zeros(size, dtype=np.float64) for size in sizes]
            status = fn(*args, *outs, *tail, block_address)
            if status:
                if status < 0:
                    raise MemoryError("out of memory for the kernel's per-thread work buffers")
                raise ValueError(self.failure.format(column=int(status) - 1))
            return outs[0] if len(outs) == 1 else tuple(outs)

        if self.wavefront:
            return lambda *arrays, num_threads=None: call(arrays, (_wavefront_threads(num_threads),))
        return lambda *arrays: call(arrays)


_FACTOR_INPUTS = (("Ap", "int64_t"), ("Ai", "int64_t"), ("Ax", "double"))
_ZERO_PIVOT = "matrix is singular (zero pivot) at column {column}"

_C_METHOD_SPECS: Dict[str, CMethodSpec] = {
    "triangular-solve": CMethodSpec(
        body_emitter="_emit_trisolve_body",
        inputs=(("Lp", "int64_t"), ("Li", "int64_t"), ("Lx", "double"), ("b", "double")),
        outputs=(("x", "n"),),
    ),
    "cholesky": CMethodSpec(
        body_emitter="_emit_factorization_body",
        inputs=_FACTOR_INPUTS,
        outputs=(("Lx", "factor_nnz"),),
        failure="matrix is not positive definite at column {column}",
    ),
    "ldlt": CMethodSpec(
        body_emitter="_emit_factorization_body",
        inputs=_FACTOR_INPUTS,
        outputs=(("Lx", "factor_nnz"), ("D", "n")),
        failure=_ZERO_PIVOT,
    ),
    "lu": CMethodSpec(
        body_emitter="_emit_lu_body",
        inputs=_FACTOR_INPUTS,
        outputs=(("Lx", "l_nnz"), ("Ux", "u_nnz")),
        failure=_ZERO_PIVOT,
    ),
    "ic0": CMethodSpec(
        body_emitter="_emit_ic0_body",
        inputs=_FACTOR_INPUTS,
        outputs=(("Lx", "factor_nnz"),),
        failure="IC(0) breakdown: non-positive pivot at column {column}",
    ),
    "ilu0": CMethodSpec(
        body_emitter="_emit_ilu0_body",
        inputs=_FACTOR_INPUTS,
        outputs=(("Lx", "l_nnz"), ("Ux", "u_nnz")),
        failure="ILU(0) breakdown: zero pivot at column {column}",
    ),
}
# Level-parallel (wavefront) variants: same kernels behind an ABI with a
# runtime thread count, their bodies emitted by the `_emit_wf_*`
# twin of the serial emitter.  Selected by options.parallel, which is part of
# the options fingerprint, so serial and wavefront artifacts of one pattern
# cache independently in memory and on disk.
_C_METHOD_SPECS.update(
    {
        f"{method}@wavefront": replace(
            spec, wavefront=True, body_emitter=spec.body_emitter.replace("_emit_", "_emit_wf_")
        )
        for method, spec in list(_C_METHOD_SPECS.items())
    }
)


def register_c_method(method: str, spec: CMethodSpec) -> None:
    """Register the ABI spec of an additional kernel method."""
    register_unique(_C_METHOD_SPECS, method, spec, kind="C method spec")


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


_DENSE_TRSM = r"""
static void repro_dense_trsm_rt(const double* Ld, int64_t w, double* B, int64_t nrow) {
    /* Solve X * Ld^T = B in place, B row-major (nrow x w). */
    for (int64_t r = 0; r < nrow; r++) {
        double* row = B + r * w;
        for (int64_t k = 0; k < w; k++) {
            double v = row[k];
            for (int64_t j = 0; j < k; j++) v -= Ld[k * w + j] * row[j];
            row[k] = v / Ld[k * w + k];
        }
    }
}
"""


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
   over a thread pool; ctypes releases the GIL).  The four buffers are carved
   from one block per thread (8-byte elements throughout), which is freed
   when the thread exits, by the destructor of a pthread key (if the process
   has run out of keys it stays until the process ends). */
typedef struct {
    double* f; int64_t* rowmap; double* panel; double* mult;
    int64_t f_n, rowmap_n, panel_n, mult_n;
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
static repro_ws_t* repro_ws_reserve(int64_t f_n, int64_t rowmap_n,
                                    int64_t panel_n, int64_t mult_n) {
    repro_ws_t* ws = repro_ws;
    if (!ws) {
        ws = (repro_ws_t*)calloc(1, sizeof(repro_ws_t));
        if (!ws) return 0;
        pthread_once(&repro_ws_once, repro_ws_make_key);
        if (repro_ws_key_ok) pthread_setspecific(repro_ws_key, ws);
        repro_ws = ws;
    }
    if (f_n <= ws->f_n && rowmap_n <= ws->rowmap_n && panel_n <= ws->panel_n && mult_n <= ws->mult_n)
        return ws;
    /* Grow: one fresh block that fits the largest request seen of each. */
    if (f_n < ws->f_n) f_n = ws->f_n;
    if (rowmap_n < ws->rowmap_n) rowmap_n = ws->rowmap_n;
    if (panel_n < ws->panel_n) panel_n = ws->panel_n;
    if (mult_n < ws->mult_n) mult_n = ws->mult_n;
    double* base = (double*)malloc((size_t)(f_n + rowmap_n + panel_n + mult_n) * 8);
    if (!base) return 0;
    free(ws->f);
    ws->f = base;
    ws->rowmap = (int64_t*)(base + f_n);
    ws->panel = base + f_n + rowmap_n;
    ws->mult = ws->panel + panel_n;
    ws->f_n = f_n; ws->rowmap_n = rowmap_n; ws->panel_n = panel_n; ws->mult_n = mult_n;
    return ws;
}
"""


class CBackend:
    """Generate and compile specialized C code from a transformed kernel."""

    name = "c"

    def __init__(
        self,
        compiler: str = "cc",
        flags: Tuple[str, ...] = ("-O3", "-march=native", "-fPIC", "-shared"),
    ) -> None:
        self.compiler = compiler
        self.flags = tuple(flags)

    # ------------------------------------------------------------------ #
    def generate(self, kernel: KernelFunction, context) -> CGeneratedModule:
        """Emit a :class:`CGeneratedModule` for ``kernel``."""
        start = time.perf_counter()
        # Table 0 holds the scalar sizes (self._dims); its slot is taken now
        # so that it is first whatever the emitters register.
        self._constants: Dict[str, np.ndarray] = {"_C_dims": None}
        self._dims: Dict[str, int] = {}
        self._dim("n", context.inspection.n)
        # Helper functions the body emitters place before the entry point,
        # and the mode the artifact reports.
        self._prelude: List[str] = []
        self._parallel_mode = "none"
        method_key = kernel.method
        if getattr(context.options, "parallel", "none") == "wavefront":
            wf_key = f"{kernel.method}@wavefront"
            if wf_key in _C_METHOD_SPECS:
                method_key = wf_key
        method_spec = _C_METHOD_SPECS.get(method_key)
        if method_spec is None:
            raise CCompilationError(f"unsupported method {kernel.method!r}")
        body_out = _CEmitter()
        body_out.indent = 1
        body_out.emit("REPRO_BIND_TABLES")
        getattr(self, method_spec.body_emitter)(body_out, kernel, context)
        signature = method_spec.signature.format(name=kernel.name)
        self._constants["_C_dims"] = np.asarray(list(self._dims.values()), dtype=np.int64)

        # The runtimes go in when the emitted code calls them.
        code = "\n".join((*self._prelude, *body_out.lines))
        wavefront, work_buffers = "repro_wf_launch(" in code, "repro_ws" in code
        out = _CEmitter()
        out.emit("/* Sympiler-generated kernel (C backend). */")
        if wavefront:
            # Pool, barrier and level clock are module state: key the module
            # by its tables so that no two patterns share (and serialise on)
            # one loaded wavefront kernel.
            tables_fp = pattern_fingerprint(*self._constants.values())
            out.emit(f"/* wavefront module of the tables {tables_fp}; not shared between patterns */")
        out.emit("#include <stdint.h>")
        out.emit("#include <math.h>")
        out.emit("#include <string.h>")
        if work_buffers:
            out.emit("#include <stdlib.h>")
        if work_buffers or wavefront:
            out.emit("#include <pthread.h>")
        if wavefront:
            out.emit("#include <stdatomic.h>")
            out.emit("#include <sched.h>")
            out.emit("#include <time.h>")
        out.emit("")
        # The inspection sets and sizes this code names, bound at the top of
        # every function from the table block its caller passes down.
        bind = [f"const int64_t* const {name} = repro_T[{k}];" for k, name in enumerate(self._constants)]
        bind += [f"const int64_t {name} = _C_dims[{k}];" for k, name in enumerate(self._dims)]
        out.emit("#define REPRO_BIND_TABLES \\")
        out.lines.extend(f"    {line} \\" for line in bind[:-1])
        out.emit(f"    {bind[-1]}")
        if "repro_dense_trsm_rt(" in code:
            out.emit(_DENSE_TRSM)
        if work_buffers:
            out.emit(_WORK_BUFFERS)
        if wavefront:
            out.emit(_WF_RUNTIME)
        out.emit("")
        out.lines.extend(self._prelude)
        out.emit(signature + " {")
        out.lines.extend(body_out.lines)
        out.emit("}")
        source = out.source()
        codegen_seconds = time.perf_counter() - start
        # Output-buffer lengths of the ctypes wrapper (CMethodSpec.outputs).
        meta = {attr: int(getattr(context.inspection, attr)) for _, attr in method_spec.outputs}
        if self._parallel_mode == "wavefront":
            # The per-level profiling buffer length, needed by
            # wavefront_level_seconds() to read the timestamps back out.
            meta["wf_n_levels"] = int(context.inspection.schedule.n_levels)
        return CGeneratedModule(
            source=source,
            entry_name=kernel.name,
            constants=dict(self._constants),
            method=method_key,
            codegen_seconds=codegen_seconds,
            compiler=self.compiler,
            flags=self.flags,
            n=int(context.inspection.n),
            parallel=self._parallel_mode,
            meta=meta,
        )

    # ------------------------------------------------------------------ #
    # Run-time tables / helpers
    # ------------------------------------------------------------------ #
    def _add_constant(self, name: str, value: np.ndarray) -> str:
        """Register an inspection set as a run-time table; returns its C name."""
        cname, value = tables.entry(name, value)
        # A serial body emitted behind the wavefront dispatch registers the
        # same sets a second time.
        if not np.array_equal(self._constants.setdefault(cname, value), value):
            raise CCompilationError(f"table {name!r} registered with two values")
        return cname

    def _dim(self, name: str, value: int) -> None:
        """Register a pattern-dependent size as the run-time scalar ``name``."""
        if self._dims.setdefault(name, int(value)) != int(value):
            raise CCompilationError(f"size {name!r} registered with two values")

    def _bind(self, contract: tables.Contract) -> None:
        """Register what a body names: one result of the table contract, in its order."""
        dims, sets = contract
        for name, value in dims.items():
            self._dim(name, value)
        for name, value in sets.items():
            self._add_constant(name, value)

    @staticmethod
    def _domain_loop(kernel: KernelFunction, *roles: str) -> DomainLoop:
        """The domain loop of ``kernel``, which must be one of ``roles``."""
        stmt = domain_loop(kernel)
        if stmt is None or stmt.role not in roles:
            raise CCompilationError(f"the C backend requires a VI-Pruned or VS-Block'd {kernel.method} kernel")
        return stmt

    @staticmethod
    def _emit_work_buffers(out: _CEmitter, supernodal: bool = False) -> None:
        """Bind the calling thread's work buffers in a status-returning body.

        Every factorization over a dense work vector needs ``repro_f[n]``; the
        supernodal loop also needs the row map and the panel/multiplier
        buffers of its largest supernode (sizes of its contract).
        """
        if supernodal:
            out.emit("repro_ws_t* const ws = repro_ws_reserve(n, n, sn_max_panel, sn_max_width);")
        else:
            out.emit("repro_ws_t* const ws = repro_ws_reserve(n, 0, 0, 0);")
        out.emit("if (!ws) return -1;")
        out.emit("double* const repro_f = ws->f;")
        if supernodal:
            out.emit("int64_t* const repro_rowmap = ws->rowmap;")
            out.emit("double* const repro_panel = ws->panel;")
            out.emit("double* const repro_mult = ws->mult;")

    # ------------------------------------------------------------------ #
    # Triangular solve
    # ------------------------------------------------------------------ #
    def _emit_trisolve_body(self, out: _CEmitter, kernel: KernelFunction, context) -> None:
        """Emit the serial triangular solve: ``x = b``, then one walk of the segments."""
        stmt = domain_loop(kernel)
        out.emit("for (int64_t i = 0; i < n; i++) x[i] = b[i];")
        if stmt is not None:
            self._bind(stmt.contract)
            options = context.options
            unroll_max = options.unroll_max_width if options.enable_low_level else 0
            self._emit_segment_loop(kernel.name, unroll_max)
            out.emit(f"{kernel.name}_segments(Lp, Li, Lx, x, repro_T);")
        else:
            out.emit("for (int64_t j = 0; j < n; j++) {")
            out.push()
            self._emit_column_solve(out)
            out.pop()
            out.emit("}")

    @staticmethod
    def _emit_column_solve(out: _CEmitter) -> None:
        out.emit("int64_t p0 = Lp[j], p1 = Lp[j + 1];")
        out.emit("double xj = x[j] / Lx[p0];")
        out.emit("x[j] = xj;")
        out.emit("for (int64_t p = p0 + 1; p < p1; p++) x[Li[p]] -= Lx[p] * xj;")

    def _emit_segment_loop(self, entry: str, unroll_max: int) -> None:
        """Emit ``{entry}_segments``, the walk of the :func:`tables.trisolve_segments` contract.

        Supernode widths up to ``unroll_max`` (``unroll_max_width`` when the
        low-level passes are enabled, else 0) get one unrolled ``switch`` case
        each, with positions read from the descriptor, and wider ones take
        the generic loop: the code is specialised by width, never by
        supernode or by pattern.  The floating-point operations and their
        order are those of the column-by-column solve either way.
        """
        p = _CEmitter()
        p.emit(
            f"static void {entry}_segments(const int64_t* Lp, const int64_t* Li, "
            "const double* Lx, double* x, const int64_t* const* repro_T) {"
        )
        p.push()
        p.emit("REPRO_BIND_TABLES")
        p.emit("for (int64_t s = 0; s < n_seg; s++) {")
        p.push()
        p.emit("const int64_t* d = _C_seg + 5 * s;")
        p.emit("const int64_t w = d[0];")
        p.emit("if (w == 0) {")
        p.push()
        p.emit("/* pruned column loop over run_cols[d[1] .. d[2]) */")
        p.emit("for (int64_t t = d[1]; t < d[2]; t++) {")
        p.push()
        p.emit("int64_t j = _C_run_cols[t];")
        self._emit_column_solve(p)
        p.pop()
        p.emit("}")
        p.emit("continue;")
        p.pop()
        p.emit("}")
        p.emit("/* supernode block: dense solve of the w x w diagonal block, then the panel update */")
        p.emit("const int64_t c0 = d[1], n_off = d[2], off_lo = d[3];")
        p.emit("const int64_t* cs = _C_blk_cs + d[4];")
        if unroll_max:
            p.emit("switch (w) {")
        for w in range(1, unroll_max + 1):
            p.emit(f"case {w}: {{")
            p.push()
            for ii in range(w):
                terms = [f"Lx[cs[{jj}] + {ii - jj}] * xb{jj}" for jj in range(ii)]
                rhs = f"x[c0 + {ii}]"
                if terms:
                    rhs = f"({rhs} - " + " - ".join(terms) + ")"
                p.emit(f"double xb{ii} = {rhs} / Lx[cs[{ii}]];")
            for ii in range(w):
                p.emit(f"x[c0 + {ii}] = xb{ii};")
            for jj in range(w):
                p.emit(
                    "for (int64_t r = 0; r < n_off; r++) "
                    f"x[Li[off_lo + r]] -= Lx[cs[{jj}] + {w - jj} + r] * xb{jj};"
                )
            p.emit("break;")
            p.pop()
            p.emit("}")
        if unroll_max:
            p.emit("default:")
            p.push()
        p.emit("for (int64_t jj = 0; jj < w; jj++) {")
        p.push()
        p.emit("int64_t pd = cs[jj];")
        p.emit("double xj = x[c0 + jj] / Lx[pd];")
        p.emit("x[c0 + jj] = xj;")
        p.emit("for (int64_t i = 1; i < w - jj; i++) x[c0 + jj + i] -= Lx[pd + i] * xj;")
        p.emit("for (int64_t r = 0; r < n_off; r++) x[Li[off_lo + r]] -= Lx[pd + (w - jj) + r] * xj;")
        p.pop()
        p.emit("}")
        if unroll_max:
            p.pop()
            p.emit("}")
        p.pop()
        p.emit("}")
        p.pop()
        p.emit("}")
        p.emit("")
        self._prelude.extend(p.lines)

    # ------------------------------------------------------------------ #
    # Left-looking factorizations (Cholesky and LDL^T)
    # ------------------------------------------------------------------ #
    @classmethod
    def _left_looking_loop(cls, kernel: KernelFunction) -> DomainLoop:
        """The supernodal loop of the kernel if VS-Block made one, else the simplicial."""
        return cls._domain_loop(kernel, "supernodal-cholesky", "simplicial-cholesky")

    def _emit_left_looking_c(self, out: _CEmitter, stmt: DomainLoop) -> None:
        if stmt.role == "supernodal-cholesky":
            self._emit_supernodal_cholesky_c(out, stmt)
        else:
            self._emit_simplicial_cholesky_c(out, stmt)

    def _emit_factorization_body(self, out: _CEmitter, kernel: KernelFunction, context) -> None:
        out.emit("(void)Ap;  /* the A pattern arrives through the inspection tables */")
        self._emit_left_looking_c(out, self._left_looking_loop(kernel))

    def _emit_lu_body(self, out: _CEmitter, kernel: KernelFunction, context) -> None:
        out.emit("(void)Ap;  /* the A pattern arrives through the inspection tables */")
        self._emit_simplicial_lu_c(out, self._domain_loop(kernel, "simplicial-lu"))

    # ------------------------------------------------------------------ #
    # No-fill incomplete factorizations (IC(0) and ILU(0))
    # ------------------------------------------------------------------ #
    def _emit_ic0_body(self, out: _CEmitter, kernel: KernelFunction, context) -> None:
        out.emit("(void)Ap; (void)Ai;  /* the A pattern arrives through the inspection tables */")
        self._emit_incomplete_ic0_c(out, self._domain_loop(kernel, "incomplete-cholesky"))

    def _emit_ilu0_body(self, out: _CEmitter, kernel: KernelFunction, context) -> None:
        out.emit("(void)Ap; (void)Ai;  /* the A pattern arrives through the inspection tables */")
        self._emit_incomplete_ilu0_c(out, self._domain_loop(kernel, "incomplete-lu"))

    @staticmethod
    def _emit_ic0_column(out: _CEmitter) -> None:
        # The body of one elimination step j.  Writes land only in column j
        # of Lx (the scatter destinations are column-j positions), which is
        # what lets the wavefront variant run a whole level of steps at once.
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

    @staticmethod
    def _emit_ic0_preamble(out: _CEmitter) -> None:
        out.emit("for (int64_t i = 0; i < nnz_l; i++) Lx[i] = Ax[_C_a_lower_pos[i]];")

    def _emit_incomplete_ic0_c(self, out: _CEmitter, stmt: DomainLoop) -> None:
        self._bind(stmt.contract)
        out.emit("/* IC(0): in-place no-fill elimination on the tril(A) pattern */")
        self._emit_ic0_preamble(out)
        out.emit("for (int64_t j = 0; j < n; j++) {")
        out.push()
        self._emit_ic0_column(out)
        out.pop()
        out.emit("}")
        out.emit("return 0;")

    @staticmethod
    def _emit_ilu0_column(out: _CEmitter) -> None:
        # One elimination step j: all writes land in column j of Ux and Lx,
        # all reads come from columns k < j (strictly earlier wavefronts).
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

    @staticmethod
    def _emit_ilu0_preamble(out: _CEmitter) -> None:
        out.emit("for (int64_t i = 0; i < nnz_u; i++) Ux[i] = Ax[_C_a_upper_pos[i]];")
        out.emit("memset(Lx, 0, nnz_l * sizeof(double));")
        out.emit("for (int64_t i = 0; i < n_below; i++) Lx[_C_l_gather_dst[i]] = Ax[_C_a_lower_pos[i]];")

    def _emit_incomplete_ilu0_c(self, out: _CEmitter, stmt: DomainLoop) -> None:
        self._bind(stmt.contract)
        out.emit("/* ILU(0): in-place no-fill elimination on the A pattern */")
        self._emit_ilu0_preamble(out)
        out.emit("for (int64_t j = 0; j < n; j++) {")
        out.push()
        self._emit_ilu0_column(out)
        out.pop()
        out.emit("}")
        out.emit("return 0;")

    @staticmethod
    def _emit_simplicial_lu_column(out: _CEmitter) -> None:
        # One left-looking LU step: scatter A(:, j) into the thread-local
        # work vector, apply the update columns, store column j of U and L,
        # restore the work vector to zero.  Writes outside the work vector
        # land only in columns j of Lx/Ux.
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

    def _emit_simplicial_lu_c(self, out: _CEmitter, stmt: DomainLoop) -> None:
        self._bind(stmt.contract)
        self._emit_work_buffers(out)
        out.emit("memset(Lx, 0, nnz_l * sizeof(double));")
        out.emit("memset(Ux, 0, nnz_u * sizeof(double));")
        out.emit("memset(repro_f, 0, n * sizeof(double));")
        out.emit("for (int64_t j = 0; j < n; j++) {")
        out.push()
        self._emit_simplicial_lu_column(out)
        out.pop()
        out.emit("}")
        out.emit("return 0;")

    def _emit_simplicial_chol_column(self, out: _CEmitter, stmt: DomainLoop) -> None:
        # One left-looking Cholesky/LDL^T step over the thread-local work
        # vector; the only shared-array writes are column j of Lx (and D[j]).
        ldlt = stmt.factor_kind == "ldlt"
        out.emit("for (int64_t p = _C_a_diag_pos[j]; p < _C_a_col_end[j]; p++) repro_f[Ai[p]] = Ax[p];")
        out.emit("for (int64_t t = _C_prune_ptr[j]; t < _C_prune_ptr[j + 1]; t++) {")
        out.push()
        out.emit("int64_t ps = _C_update_pos[t], pe = _C_update_end[t];")
        if ldlt:
            out.emit("double ljk = Lx[ps] * D[_C_update_col[t]];")
        else:
            out.emit("double ljk = Lx[ps];")
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

    def _emit_simplicial_cholesky_c(self, out: _CEmitter, stmt: DomainLoop) -> None:
        self._bind(stmt.contract)
        self._emit_work_buffers(out)
        out.emit("memset(Lx, 0, nnz_l * sizeof(double));")
        out.emit("memset(repro_f, 0, n * sizeof(double));")
        out.emit("for (int64_t j = 0; j < n; j++) {")
        out.push()
        self._emit_simplicial_chol_column(out, stmt)
        out.pop()
        out.emit("}")
        out.emit("return 0;")

    def _emit_supernodal_cholesky_c(self, out: _CEmitter, stmt: DomainLoop) -> None:
        ldlt = stmt.factor_kind == "ldlt"
        self._bind(stmt.contract)
        self._emit_work_buffers(out, supernodal=True)
        out.emit("memset(Lx, 0, nnz_l * sizeof(double));")
        out.emit("memset(repro_f, 0, n * sizeof(double));")
        out.emit("for (int64_t s = 0; s < n_super; s++) {")
        out.push()
        out.emit("int64_t c0 = _C_sup_start[s], c1 = _C_sup_end[s];")
        out.emit("int64_t w = c1 - c0;")
        if stmt.distribute_single_columns:
            out.emit("if (w == 1) {")
            out.push()
            out.emit("int64_t lp0 = _C_l_indptr[c0], lp1 = _C_l_indptr[c0 + 1];")
            out.emit("for (int64_t p = _C_a_diag_pos[c0]; p < _C_a_col_end[c0]; p++) repro_f[Ai[p]] = Ax[p];")
            out.emit("for (int64_t t = _C_desc_ptr[s]; t < _C_desc_ptr[s + 1]; t++) {")
            out.push()
            out.emit("int64_t ps = _C_desc_pos[t], pe = _C_desc_end[t];")
            if ldlt:
                out.emit("double ljk = Lx[ps] * D[_C_desc_col[t]];")
            else:
                out.emit("double ljk = Lx[ps];")
            out.emit("for (int64_t p = ps; p < pe; p++) repro_f[_C_l_indices[p]] -= Lx[p] * ljk;")
            out.pop()
            out.emit("}")
            out.emit("double d = repro_f[c0];")
            if ldlt:
                out.emit("if (d == 0.0) return c0 + 1;")
                out.emit("D[c0] = d;")
                out.emit("Lx[lp0] = 1.0;")
                out.emit("for (int64_t p = lp0 + 1; p < lp1; p++) Lx[p] = repro_f[_C_l_indices[p]] / d;")
            else:
                out.emit("if (!(d > 0.0)) return c0 + 1;")
                out.emit("double ljj = sqrt(d);")
                out.emit("Lx[lp0] = ljj;")
                out.emit("for (int64_t p = lp0 + 1; p < lp1; p++) Lx[p] = repro_f[_C_l_indices[p]] / ljj;")
            out.emit("for (int64_t p = lp0; p < lp1; p++) repro_f[_C_l_indices[p]] = 0.0;")
            out.emit("continue;")
            out.pop()
            out.emit("}")
        out.emit("int64_t r0 = _C_l_indptr[c0], r1 = _C_l_indptr[c0 + 1];")
        out.emit("int64_t nr = r1 - r0;")
        out.emit("for (int64_t i = 0; i < nr; i++) repro_rowmap[_C_l_indices[r0 + i]] = i;")
        out.emit("for (int64_t i = 0; i < nr * w; i++) repro_panel[i] = 0.0;")
        out.emit("for (int64_t jj = 0; jj < w; jj++) {")
        out.push()
        out.emit("int64_t c = c0 + jj;")
        out.emit(
            "for (int64_t p = _C_a_diag_pos[c]; p < _C_a_col_end[c]; p++) "
            "repro_panel[repro_rowmap[Ai[p]] * w + jj] = Ax[p];"
        )
        out.pop()
        out.emit("}")
        out.emit("for (int64_t t = _C_desc_ptr[s]; t < _C_desc_ptr[s + 1]; t++) {")
        out.push()
        out.emit("int64_t ps = _C_desc_pos[t], pm = _C_desc_mult_end[t], pe = _C_desc_end[t];")
        out.emit("for (int64_t i = 0; i < w; i++) repro_mult[i] = 0.0;")
        if ldlt:
            out.emit("double dk = D[_C_desc_col[t]];")
            out.emit("for (int64_t p = ps; p < pm; p++) repro_mult[_C_l_indices[p] - c0] = Lx[p] * dk;")
        else:
            out.emit("for (int64_t p = ps; p < pm; p++) repro_mult[_C_l_indices[p] - c0] = Lx[p];")
        out.emit("for (int64_t p = ps; p < pe; p++) {")
        out.push()
        out.emit("double* row = repro_panel + repro_rowmap[_C_l_indices[p]] * w;")
        out.emit("double lv = Lx[p];")
        out.emit("for (int64_t i = 0; i < w; i++) row[i] -= lv * repro_mult[i];")
        out.pop()
        out.emit("}")
        out.pop()
        out.emit("}")
        if ldlt:
            # Dense LDL^T of the diagonal block; pivots go straight into D.
            out.emit("/* dense LDL^T of the w x w diagonal block (in place) */")
            out.emit("for (int64_t k = 0; k < w; k++) {")
            out.push()
            out.emit("double piv = repro_panel[k * w + k];")
            out.emit("if (piv == 0.0) return c0 + k + 1;")
            out.emit("D[c0 + k] = piv;")
            out.emit("repro_panel[k * w + k] = 1.0;")
            out.emit("for (int64_t i = k + 1; i < w; i++) repro_panel[i * w + k] /= piv;")
            out.emit("for (int64_t j = k + 1; j < w; j++) {")
            out.push()
            out.emit("double cjk = repro_panel[j * w + k] * piv;")
            out.emit("for (int64_t i = j; i < w; i++) repro_panel[i * w + j] -= repro_panel[i * w + k] * cjk;")
            out.pop()
            out.emit("}")
            out.pop()
            out.emit("}")
            # Off-diagonal panel: X (D L_d^T) = B -> trsm by L_d^T, then /= D.
            out.emit("repro_dense_trsm_rt(repro_panel, w, repro_panel + w * w, nr - w);")
            out.emit("for (int64_t r = 0; r < nr - w; r++)")
            out.push()
            out.emit("for (int64_t k = 0; k < w; k++) repro_panel[(w + r) * w + k] /= D[c0 + k];")
            out.pop()
        else:
            # Dense factorization of the diagonal block (row-major, stride w).
            out.emit("/* dense Cholesky of the w x w diagonal block (in place) */")
            out.emit("for (int64_t k = 0; k < w; k++) {")
            out.push()
            out.emit("double piv = repro_panel[k * w + k];")
            out.emit("if (!(piv > 0.0)) return c0 + k + 1;")
            out.emit("piv = sqrt(piv);")
            out.emit("repro_panel[k * w + k] = piv;")
            out.emit("for (int64_t i = k + 1; i < w; i++) repro_panel[i * w + k] /= piv;")
            out.emit("for (int64_t j = k + 1; j < w; j++) {")
            out.push()
            out.emit("double djk = repro_panel[j * w + k];")
            out.emit("for (int64_t i = j; i < w; i++) repro_panel[i * w + j] -= repro_panel[i * w + k] * djk;")
            out.pop()
            out.emit("}")
            out.pop()
            out.emit("}")
            out.emit("repro_dense_trsm_rt(repro_panel, w, repro_panel + w * w, nr - w);")
        out.emit("for (int64_t jj = 0; jj < w; jj++) {")
        out.push()
        out.emit("int64_t c = c0 + jj;")
        out.emit("int64_t lp0 = _C_l_indptr[c];")
        out.emit("for (int64_t i = jj; i < w; i++) Lx[lp0 + (i - jj)] = repro_panel[i * w + jj];")
        out.emit("for (int64_t r = 0; r < nr - w; r++) Lx[lp0 + (w - jj) + r] = repro_panel[(w + r) * w + jj];")
        out.pop()
        out.emit("}")
        out.pop()
        out.emit("}")
        out.emit("return 0;")

    # ------------------------------------------------------------------ #
    # Wavefront (level-parallel) kernel variants
    # ------------------------------------------------------------------ #
    def _wf_fallback_reason(self, context, *, supernodal: bool = False) -> Optional[str]:
        """Why a wavefront body cannot (usefully) be emitted, or ``None``.

        The wavefront ABI is kept either way — on fallback the serial body is
        emitted behind it — so artifact callers never need to care which body
        the compile chose.
        """
        schedule = getattr(context.inspection, "schedule", None)
        if schedule is None:
            return "no-schedule"
        if supernodal:
            # VS-Block panels update ancestor supernodes in place; scheduling
            # them by column levels would break the disjoint-write argument.
            # Tracked as follow-up in ROADMAP.md.
            return "supernodal"
        if schedule.n_scheduled == 0:
            return "empty-schedule"
        if schedule.average_width < context.options.wavefront_min_avg_width:
            # n_levels close to n: a deep elimination tree, where per-level
            # barriers cost more than the parallelism they unlock.
            return "deep-etree"
        return None

    def _wf_serial_fallback(self, out: _CEmitter, context, *, supernodal: bool = False) -> bool:
        """Record the wavefront decision; True when the serial body must be emitted."""
        fallback = self._wf_fallback_reason(context, supernodal=supernodal)
        schedule = getattr(context.inspection, "schedule", None)
        mode = "wavefront" if fallback is None else "serial-fallback"
        info: Dict[str, object] = {"mode": mode}
        if fallback is not None:
            info["fallback_reason"] = fallback
            out.emit(f"(void)n_threads;  /* serial fallback: {fallback} */")
        if schedule is not None:
            info["n_levels"] = schedule.n_levels
            info["max_width"] = schedule.max_width
            info["average_width"] = round(schedule.average_width, 3)
        context.decisions["wavefront"] = info
        self._parallel_mode = mode
        return fallback is not None

    def _emit_wavefront_scaffold(
        self,
        out: _CEmitter,
        kernel: KernelFunction,
        context,
        *,
        params: List[Tuple[str, str]],
        emit_column: Callable[[_CEmitter], None],
        emit_parallel_preamble: Optional[Callable[[_CEmitter], None]],
        emit_serial: Callable[[_CEmitter], None],
        returns_status: bool,
        uses_work_vector: bool,
    ) -> None:
        """Emit the level-parallel entry body plus its prelude functions.

        ``{entry}_wf_col`` holds the per-column body shared verbatim with the
        serial emitters (``return j + 1`` failure lines become its status);
        ``{entry}_wf_run`` is the per-participant loop over levels with a
        barrier after each; the entry body itself dispatches: serial body for
        ``n_threads <= 1``, preamble + pool launch otherwise.
        """
        schedule = context.inspection.schedule
        entry = kernel.name
        worder = self._add_constant("wf_order", schedule.order)
        wlp = self._add_constant("wf_level_ptr", schedule.level_ptr)
        self._dim("wf_n_levels", schedule.n_levels)
        self._dim("wf_max_width", schedule.max_width)
        params = [*params, ("const int64_t* const*", "repro_T")]

        p = _CEmitter()
        arg_decls = "".join(f", {decl} {name}" for decl, name in params)
        p.emit(f"static int64_t {entry}_wf_col(int64_t t{arg_decls}) {{")
        p.push()
        p.emit("REPRO_BIND_TABLES")
        if uses_work_vector:
            p.emit("double* const repro_f = repro_ws->f;  /* reserved by this participant */")
        p.emit(f"int64_t j = {worder}[t];")
        emit_column(p)
        p.emit("return 0;")
        p.pop()
        p.emit("}")
        p.emit("")
        fields = " ".join(f"{decl} {name};" for decl, name in params)
        p.emit(f"typedef struct {{ {fields} }} {entry}_wf_job_t;")
        p.emit("")
        # Per-level wall-clock timestamps, recorded by participant 0 only
        # (after each barrier every level's columns are complete, so tid 0's
        # clock reads bound the level) and only while the runtime profiling
        # flag is raised.  Exported for ctypes via {entry}_wf_level_times.
        # Module state like the pool: sized by this pattern's level count.
        p.emit(f"static double {entry}_wf_level_ts[{schedule.n_levels} + 1];")
        p.emit(f"double* {entry}_wf_level_times(void) {{ return {entry}_wf_level_ts; }}")
        p.emit("")
        p.emit(f"static void {entry}_wf_run(int64_t tid, int64_t nt, void* jobv) {{")
        p.push()
        p.emit(f"{entry}_wf_job_t* job = ({entry}_wf_job_t*)jobv;")
        p.emit("const int64_t* const* repro_T = job->repro_T;")
        p.emit("REPRO_BIND_TABLES")
        p.emit("int64_t wf_sense = 0;")
        p.emit("int64_t wf_prof = tid == 0 && repro_wf_profile_on();")
        p.emit(f"if (wf_prof) {entry}_wf_level_ts[0] = repro_wf_now();")
        if uses_work_vector:
            # A failed earlier call may have bailed out of a column body with
            # the thread-local work vector still scattered (and another
            # pattern may have used it since); restore the all-zeros
            # invariant the column bodies rely on.
            p.emit("repro_ws_t* const ws = repro_ws_reserve(n, 0, 0, 0);")
            p.emit("if (ws) memset(ws->f, 0, n * sizeof(double));")
            p.emit("else repro_wf_fail(-1);")
        p.emit("for (int64_t l = 0; l < wf_n_levels; l++) {")
        p.push()
        p.emit(f"int64_t lo = {wlp}[l], hi = {wlp}[l + 1];")
        p.emit("int64_t chunk = (hi - lo + nt - 1) / nt;")
        p.emit("int64_t s = lo + tid * chunk;")
        p.emit("int64_t e = s + chunk < hi ? s + chunk : hi;")
        p.emit("if (repro_wf_ok()) {")
        p.push()
        p.emit("for (int64_t t = s; t < e; t++) {")
        p.push()
        call_args = "".join(f", job->{name}" for _, name in params)
        p.emit(f"int64_t st = {entry}_wf_col(t{call_args});")
        p.emit("if (st != 0) { repro_wf_fail(st); break; }")
        p.pop()
        p.emit("}")
        p.pop()
        p.emit("}")
        p.emit("repro_wf_barrier(nt, &wf_sense);")
        p.emit(f"if (wf_prof) {entry}_wf_level_ts[l + 1] = repro_wf_now();")
        p.pop()
        p.emit("}")
        p.pop()
        p.emit("}")
        p.emit("")
        self._prelude.extend(p.lines)

        out.emit("if (n_threads > wf_max_width) n_threads = wf_max_width;")
        out.emit("if (n_threads <= 1) {")
        out.push()
        emit_serial(out)
        out.pop()
        out.emit("}")
        if emit_parallel_preamble is not None:
            emit_parallel_preamble(out)
        init = ", ".join(name for _, name in params)
        out.emit(f"{entry}_wf_job_t wf_job = {{ {init} }};")
        if returns_status:
            out.emit(f"return repro_wf_launch({entry}_wf_run, &wf_job, n_threads);")
        else:
            out.emit(f"repro_wf_launch({entry}_wf_run, &wf_job, n_threads);")

    def _trisolve_serial_order(self, kernel: KernelFunction, n: int) -> List[int]:
        """Columns in the order the *serial* body processes them.

        The serial trisolve does not visit columns in ascending index order:
        VI-Prune emits the reach set in the inspector's topological order and
        VS-Block walks supernode panels.  The pull-form wavefront body must
        subtract each row's updates in this exact order to stay bitwise
        identical, so the order is read off the very segment table the serial
        kernel walks.
        """
        stmt = domain_loop(kernel)
        if stmt is None:  # the untransformed loop over every column
            return list(range(n))
        run_cols = stmt.contract[1]["run_cols"]
        cols: List[int] = []
        for w, a, b, _, _ in stmt.contract[1]["seg"].reshape(-1, 5).tolist():
            cols.extend(run_cols[a:b].tolist() if w == 0 else range(a, a + w))
        return cols

    def _trisolve_pull_structure(
        self, context, schedule, serial_order: List[int]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Row-oriented (pull) view of the scheduled triangular solve.

        The serial kernels push column updates ``x[Li[p]] -= Lx[p] * xj`` as
        each source column executes; two same-level columns may push into the
        same ``x[i]``, so the push form cannot run a level concurrently.  The
        pull form makes column ``j`` gather its own updates instead — and
        because it subtracts them in the serial body's own column-execution
        order (``serial_order``), the float operation sequence per entry is
        identical and the result bitwise equal to the serial kernel.
        """
        Lp = np.asarray(context.matrix.indptr, dtype=np.int64)
        Li = np.asarray(context.matrix.indices, dtype=np.int64)
        order = np.asarray(schedule.order, dtype=np.int64)
        rows: Dict[int, List[Tuple[int, int]]] = {int(j): [] for j in order}
        # A VS-Block'd body solves whole supernodes, so with a sparse right-
        # hand side it may also visit columns outside the reach set: their x
        # stays zero and their updates subtract zeros, so the pull form (which
        # schedules the reach set only) leaves them out.
        serial_order = [c for c in serial_order if c in rows]
        if sorted(serial_order) != sorted(rows):
            raise CCompilationError(
                "the serial trisolve body does not visit every column of the "
                "level-set schedule exactly once"
            )
        for c in serial_order:
            for p in range(int(Lp[c]) + 1, int(Lp[c + 1])):
                i = int(Li[p])
                if i not in rows:
                    # Reach sets are closed under L-edges, so every update
                    # target of a scheduled column is itself scheduled.
                    raise CCompilationError(
                        f"trisolve schedule is not closed: column {c} updates "
                        f"unscheduled row {i}"
                    )
                rows[i].append((p, c))
        row_ptr = [0]
        row_pos: List[int] = []
        row_col: List[int] = []
        diag_pos: List[int] = []
        for j in order:
            for p, c in rows[int(j)]:
                row_pos.append(p)
                row_col.append(c)
            row_ptr.append(len(row_pos))
            diag_pos.append(int(Lp[int(j)]))
        return (
            np.asarray(row_ptr, dtype=np.int64),
            np.asarray(row_pos, dtype=np.int64),
            np.asarray(row_col, dtype=np.int64),
            np.asarray(diag_pos, dtype=np.int64),
        )

    def _emit_wf_trisolve_body(self, out: _CEmitter, kernel: KernelFunction, context) -> None:
        if self._wf_serial_fallback(out, context):
            self._emit_trisolve_body(out, kernel, context)
            return
        schedule = context.inspection.schedule
        wrp, wpos, wcol, wdiag = self._trisolve_pull_structure(
            context, schedule, self._trisolve_serial_order(kernel, context.inspection.n)
        )
        rp = self._add_constant("wf_row_ptr", wrp)
        rpos = self._add_constant("wf_row_pos", wpos)
        rcol = self._add_constant("wf_row_col", wcol)
        dg = self._add_constant("wf_diag_pos", wdiag)

        def emit_column(p: _CEmitter) -> None:
            p.emit("double acc = b[j];")
            p.emit(
                f"for (int64_t s = {rp}[t]; s < {rp}[t + 1]; s++) "
                f"acc -= Lx[{rpos}[s]] * x[{rcol}[s]];"
            )
            p.emit(f"x[j] = acc / Lx[{dg}[t]];")

        def emit_serial(p: _CEmitter) -> None:
            self._emit_trisolve_body(p, kernel, context)
            p.emit("return;")

        self._emit_wavefront_scaffold(
            out,
            kernel,
            context,
            params=[("const double*", "Lx"), ("const double*", "b"), ("double*", "x")],
            emit_column=emit_column,
            emit_parallel_preamble=lambda p: p.emit("for (int64_t i = 0; i < n; i++) x[i] = b[i];"),
            emit_serial=emit_serial,
            returns_status=False,
            uses_work_vector=False,
        )

    def _emit_wf_factorization_body(self, out: _CEmitter, kernel: KernelFunction, context) -> None:
        out.emit("(void)Ap;  /* the A pattern arrives through the inspection tables */")
        stmt = self._left_looking_loop(kernel)
        if self._wf_serial_fallback(out, context, supernodal=stmt.role == "supernodal-cholesky"):
            self._emit_left_looking_c(out, stmt)
            return
        self._bind(stmt.contract)
        params = [("const int64_t*", "Ai"), ("const double*", "Ax"), ("double*", "Lx")]
        if stmt.factor_kind == "ldlt":
            params.append(("double*", "D"))

        self._emit_wavefront_scaffold(
            out,
            kernel,
            context,
            params=params,
            emit_column=lambda p: self._emit_simplicial_chol_column(p, stmt),
            emit_parallel_preamble=lambda p: p.emit("memset(Lx, 0, nnz_l * sizeof(double));"),
            emit_serial=lambda p: self._emit_simplicial_cholesky_c(p, stmt),
            returns_status=True,
            uses_work_vector=True,
        )

    def _emit_wf_lu_body(self, out: _CEmitter, kernel: KernelFunction, context) -> None:
        out.emit("(void)Ap;  /* the A pattern arrives through the inspection tables */")
        stmt = self._domain_loop(kernel, "simplicial-lu")
        if self._wf_serial_fallback(out, context):
            self._emit_simplicial_lu_c(out, stmt)
            return
        self._bind(stmt.contract)

        def emit_parallel_preamble(p: _CEmitter) -> None:
            p.emit("memset(Lx, 0, nnz_l * sizeof(double));")
            p.emit("memset(Ux, 0, nnz_u * sizeof(double));")

        self._emit_wavefront_scaffold(
            out,
            kernel,
            context,
            params=[
                ("const int64_t*", "Ai"),
                ("const double*", "Ax"),
                ("double*", "Lx"),
                ("double*", "Ux"),
            ],
            emit_column=self._emit_simplicial_lu_column,
            emit_parallel_preamble=emit_parallel_preamble,
            emit_serial=lambda p: self._emit_simplicial_lu_c(p, stmt),
            returns_status=True,
            uses_work_vector=True,
        )

    def _emit_wf_ic0_body(self, out: _CEmitter, kernel: KernelFunction, context) -> None:
        out.emit("(void)Ap; (void)Ai;  /* the A pattern arrives through the inspection tables */")
        stmt = self._domain_loop(kernel, "incomplete-cholesky")
        if self._wf_serial_fallback(out, context):
            self._emit_incomplete_ic0_c(out, stmt)
            return
        self._bind(stmt.contract)

        self._emit_wavefront_scaffold(
            out,
            kernel,
            context,
            params=[("double*", "Lx")],
            emit_column=self._emit_ic0_column,
            emit_parallel_preamble=self._emit_ic0_preamble,
            emit_serial=lambda p: self._emit_incomplete_ic0_c(p, stmt),
            returns_status=True,
            uses_work_vector=False,
        )

    def _emit_wf_ilu0_body(self, out: _CEmitter, kernel: KernelFunction, context) -> None:
        out.emit("(void)Ap; (void)Ai;  /* the A pattern arrives through the inspection tables */")
        stmt = self._domain_loop(kernel, "incomplete-lu")
        if self._wf_serial_fallback(out, context):
            self._emit_incomplete_ilu0_c(out, stmt)
            return
        self._bind(stmt.contract)

        self._emit_wavefront_scaffold(
            out,
            kernel,
            context,
            params=[("double*", "Lx"), ("double*", "Ux")],
            emit_column=self._emit_ilu0_column,
            emit_parallel_preamble=self._emit_ilu0_preamble,
            emit_serial=lambda p: self._emit_incomplete_ilu0_c(p, stmt),
            returns_status=True,
            uses_work_vector=False,
        )
