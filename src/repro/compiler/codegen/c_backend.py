"""Specialized-C code generation backend.

Emits matrix-specialized C source (inspection sets as ``static const`` arrays,
loop structure following the transformed AST), compiles it with the system C
compiler and loads the resulting shared object through :mod:`ctypes`.  This is
the closest analogue of the original Sympiler, which generates C and compiles
it with GCC ``-O3`` (§4.1); the backend is optional — environments without a
C compiler use the Python backend instead.

Entry points generated:

* triangular solve — ``void <name>(const int64_t* Lp, const int64_t* Li,
  const double* Lx, const double* b, double* x)``
* Cholesky — ``int64_t <name>(const int64_t* Ap, const int64_t* Ai,
  const double* Ax, double* Lx)`` returning 0 on success or ``j + 1`` when a
  non-positive pivot is met at column ``j``.

Under ``SympilerOptions(parallel="wavefront")`` every entry point gains a
trailing ``int64_t n_threads`` argument and executes the columns of each
level of the inspector's cached :class:`~repro.runtime.levels.ExecutionSchedule`
across a persistent pthread worker pool, with a barrier between levels (the
paper's H-Level parallelism, applied *within* one numeric call).  Levels are
antichains of the column dependency DAG, so per-column writes are disjoint
and the result is bitwise identical to the serial kernel; when the schedule
has no parallelism to mine (or the kernel is supernodal) the serial body is
emitted behind the same ABI and the fallback is recorded on the artifact.
"""

from __future__ import annotations

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

from repro.compiler.ast import (
    Assign,
    Block,
    Call,
    Comment,
    ForRange,
    IncompleteFactorLoop,
    KernelFunction,
    PeeledColumnSolve,
    PrunedColumnSolveLoop,
    SimplicialCholeskyLoop,
    Stmt,
    SupernodalCholeskyLoop,
    SupernodeTriangularBlock,
    Var,
)
from repro.compiler.cache import build_file_once
from repro.compiler.codegen.runtime import generated_code_dir, pattern_fingerprint
from repro.compiler.registration import register_unique
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


def c_compiler_available(compiler: str = "cc") -> bool:
    """True when the requested C compiler executable is on PATH."""
    return shutil.which(compiler) is not None


@dataclass
class DiskCacheStats:
    """Counters of the on-disk generated-code caches (process-wide).

    ``compiles`` counts actual C compiler invocations; ``reuses`` counts
    loads of a pre-existing ``.so`` for the same source fingerprint.
    ``py_writes``/``py_reuses`` are the python backend's analogues: persisted
    generated-Python modules written versus loaded back from disk (see
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
    py_reuses: int = 0
    #: Compiles avoided by waiting on another *process's* in-flight build of
    #: the same ``.so`` (cross-process single-flight via ``build_file_once``
    #: lockfiles); such waits also count as ``reuses``.
    lock_waits: int = 0

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
            self.py_reuses = 0
            self.lock_waits = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view used by the cache probe CLI (a consistent snapshot)."""
        with self._lock:
            return {
                "compiles": self.compiles,
                "reuses": self.reuses,
                "py_writes": self.py_writes,
                "py_reuses": self.py_reuses,
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
    half-written source file in the shared on-disk cache.  Shared with the
    python backend's persisted-source cache, which follows the same
    protocol.
    """
    tmp = tmp_path_for(path)
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _format_c_array(name: str, values: np.ndarray, ctype: str) -> str:
    """Render a constant array as a ``static const`` C definition."""
    flat = np.asarray(values).ravel()
    if ctype == "int64_t":
        body = ",".join(str(int(v)) for v in flat)
    else:
        body = ",".join(repr(float(v)) for v in flat)
    if flat.size == 0:
        # Zero-length arrays are not portable C; emit a one-element dummy.
        return f"static const {ctype} {name}[1] = {{0}};"
    return f"static const {ctype} {name}[{flat.size}] = {{{body}}};"


@dataclass
class CGeneratedModule:
    """Generated C source plus its compiled shared object."""

    source: str
    entry_name: str
    constants: Dict[str, np.ndarray]
    method: str
    codegen_seconds: float
    compiler: str
    flags: Tuple[str, ...]
    n: int
    # Within-kernel execution mode of the generated entry point: "none"
    # (serial ABI), "wavefront" (level-parallel, trailing n_threads arg) or
    # "serial-fallback" (wavefront ABI around the serial body — emitted when
    # the schedule is too deep or the kernel supernodal).
    parallel: str = "none"
    meta: Dict[str, int] = field(default_factory=dict)
    compile_seconds: float = 0.0
    shared_object: Optional[str] = None
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
        ``.so`` for the same source fingerprint skips compilation entirely.
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
            # REPRO_CFLAGS cannot be asked to carry -pthread (serial kernels
            # must keep compiling without it), so it is derived from the
            # source itself: wavefront kernels embed the pthread runtime.
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
        atomic_write_text(c_path, self.source)

        def _invoke_cc() -> None:
            tmp_so = tmp_path_for(so_path)
            cmd = [self.compiler, *self.flags, *extra_flags, "-o", tmp_so, c_path, "-lm"]
            try:
                with observe_span("cc", entry=self.entry_name, method=self.method):
                    proc = subprocess.run(cmd, capture_output=True, text=True)
                if proc.returncode != 0:
                    raise CCompilationError(
                        f"C compilation failed ({' '.join(cmd)}):\n{proc.stderr}"
                    )
                os.replace(tmp_so, so_path)
            finally:
                if os.path.exists(tmp_so):
                    os.unlink(tmp_so)

        # Cross-process single-flight: shard workers (and parallel CI jobs)
        # cold-compiling the same pattern run exactly one ``cc`` between them;
        # the losers load the winner's atomically-published ``.so``.
        outcome = build_file_once(so_path, _invoke_cc)
        if outcome == "built":
            _DISK_CACHE_STATS.bump("compiles")
        else:
            _DISK_CACHE_STATS.bump("reuses")
            if outcome == "waited":
                _DISK_CACHE_STATS.bump("lock_waits")
        lib = ctypes.CDLL(so_path)
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


def _wavefront_threads(num_threads: Optional[int]) -> int:
    """Resolve the thread count of one wavefront entry call.

    Precedence: explicit argument > ``REPRO_NUM_THREADS`` environment
    override > one thread per available CPU (``0`` means "one per CPU" at
    any level).  Mirrors :func:`repro.runtime.engine.resolve_num_threads`
    except for the last step — a wavefront kernel called without any request
    should saturate the machine, that being its purpose — and lives here
    rather than in the runtime because the runtime imports this module.
    """
    if num_threads is None:
        env = os.environ.get("REPRO_NUM_THREADS", "").strip()
        num_threads = int(env) if env else 0
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
    ``wavefront``, a trailing ``int64_t n_threads``.  ``failure`` is the
    message (a template over ``{column}``) of the ``ValueError`` raised when
    the entry returns the nonzero status ``column + 1``; ``None`` declares a
    ``void`` entry that cannot fail.  ``body_emitter`` names the
    :class:`CBackend` method emitting the function body.  Both the emitted C
    signature and the NumPy-friendly ctypes wrapper derive from this one
    description, so registering a new kernel method means adding a spec
    instead of editing the generator.
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
        restype = "void" if self.failure is None else "int64_t"
        return f"{restype} {{name}}({', '.join(params)})"

    def wrap(self, module: "CGeneratedModule", fn) -> Callable:
        """The NumPy-friendly wrapper of the loaded entry point ``fn``.

        Takes the input arrays positionally, allocates the outputs and
        returns them (a bare array for one output, a tuple otherwise).  A
        wavefront entry's wrapper also takes ``num_threads=None``, resolved
        per call — the thread count is a runtime knob, never baked in.
        """
        dtypes = [_NUMPY_DTYPES[ctype] for _, ctype in self.inputs]
        sizes = [module.meta[attr] for _, attr in self.outputs]
        pointers = [np.ctypeslib.ndpointer(dtype=d, flags="C_CONTIGUOUS") for d in dtypes]
        pointers += [np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")] * len(sizes)
        fn.restype = None if self.failure is None else ctypes.c_int64
        fn.argtypes = pointers + ([ctypes.c_int64] if self.wavefront else [])

        def call(arrays, tail=()):
            args = [np.ascontiguousarray(a, dtype=d) for a, d in zip(arrays, dtypes)]
            outs = [np.zeros(size, dtype=np.float64) for size in sizes]
            status = fn(*args, *outs, *tail)
            if status:
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
# trailing runtime thread count, their bodies emitted by the `_emit_wf_*`
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


_DENSE_HELPERS = r"""
static void repro_dense_chol(double* D, int64_t w) {
    for (int64_t k = 0; k < w; k++) {
        double piv = sqrt(D[k * w + k]);
        D[k * w + k] = piv;
        for (int64_t i = k + 1; i < w; i++) D[i * w + k] /= piv;
        for (int64_t j = k + 1; j < w; j++) {
            double djk = D[j * w + k];
            for (int64_t i = j; i < w; i++) D[i * w + j] -= D[i * w + k] * djk;
        }
    }
}

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
        self._constants: Dict[str, np.ndarray] = {}
        self._const_counter = 0
        self._n = context.inspection.n
        # Wavefront state, filled in by the wavefront body emitters: helper
        # functions to place before the entry point, whether the pthread
        # runtime is needed, and the mode the artifact reports.
        self._prelude: List[str] = []
        self._needs_wf_runtime = False
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
        getattr(self, method_spec.body_emitter)(body_out, kernel, context)
        signature = method_spec.signature.format(name=kernel.name)

        out = _CEmitter()
        out.emit("/* Sympiler-generated kernel (C backend). */")
        out.emit("#include <stdint.h>")
        out.emit("#include <math.h>")
        out.emit("#include <string.h>")
        if self._needs_wf_runtime:
            out.emit("#include <pthread.h>")
            out.emit("#include <stdatomic.h>")
            out.emit("#include <sched.h>")
            out.emit("#include <time.h>")
        out.emit("")
        for name, value in sorted(self._constants.items()):
            out.emit(_format_c_array(name, value, "int64_t"))
        out.emit("")
        # Static work buffers and dense helpers are keyed off the domain
        # statements actually present, not off the kernel name.
        has_factor_loop = bool(
            self._domain_nodes(kernel, (SimplicialCholeskyLoop, SupernodalCholeskyLoop))
        )
        if has_factor_loop:
            out.emit(_DENSE_HELPERS)
            # Work buffers are _Thread_local so one loaded kernel may run
            # concurrently over many value sets (the batched runtime maps the
            # entry point over a thread pool; ctypes releases the GIL).
            out.emit(f"static _Thread_local double repro_f[{self._n}];")
            out.emit(f"static _Thread_local int64_t repro_rowmap[{self._n}];")
            max_panel = self._max_panel_size(kernel)
            if max_panel:
                out.emit(f"static _Thread_local double repro_panel[{max_panel}];")
                max_w = self._max_supernode_width(kernel)
                out.emit(f"static _Thread_local double repro_mult[{max(max_w, 1)}];")
            out.emit("")
        if self._needs_wf_runtime:
            out.emit(_WF_RUNTIME)
            out.lines.extend(self._prelude)
            out.emit("")
        out.emit(signature + " {")
        out.lines.extend(body_out.lines)
        out.emit("}")
        source = out.source()
        codegen_seconds = time.perf_counter() - start
        for name, value in self._constants.items():
            if name not in kernel.constants:
                kernel.constants[name] = value
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
            n=self._n,
            parallel=self._parallel_mode,
            meta=meta,
        )

    # ------------------------------------------------------------------ #
    # Constant management / helpers
    # ------------------------------------------------------------------ #
    def _add_constant(self, name: str, value: np.ndarray) -> str:
        cname = f"_C_{name}"
        if cname in self._constants:
            existing = self._constants[cname]
            if existing.shape == np.asarray(value).shape and np.array_equal(existing, value):
                return cname
            self._const_counter += 1
            cname = f"_C_{name}_{self._const_counter}"
        self._constants[cname] = np.asarray(value, dtype=np.int64)
        return cname

    @staticmethod
    def _domain_nodes(kernel: KernelFunction, node_type) -> List[Stmt]:
        from repro.compiler.ast import walk

        return [node for node in walk(kernel.body) if isinstance(node, node_type)]

    def _max_panel_size(self, kernel: KernelFunction) -> int:
        loops = self._domain_nodes(kernel, SupernodalCholeskyLoop)
        best = 0
        for loop in loops:
            for s in range(loop.n_supernodes):
                c0 = int(loop.sup_start[s])
                c1 = int(loop.sup_end[s])
                w = c1 - c0
                nr = int(loop.l_indptr[c0 + 1] - loop.l_indptr[c0])
                best = max(best, nr * w)
        return best

    def _max_supernode_width(self, kernel: KernelFunction) -> int:
        loops = self._domain_nodes(kernel, SupernodalCholeskyLoop)
        best = 0
        for loop in loops:
            widths = loop.sup_end - loop.sup_start
            if widths.size:
                best = max(best, int(widths.max()))
        return best

    # ------------------------------------------------------------------ #
    # Triangular solve
    # ------------------------------------------------------------------ #
    def _emit_trisolve_body(self, out: _CEmitter, kernel: KernelFunction, context) -> None:
        n = self._n
        out.emit(f"for (int64_t i = 0; i < {n}; i++) x[i] = b[i];")
        self._emit_trisolve_block(out, kernel.body, context)

    def _emit_trisolve_block(self, out: _CEmitter, block: Block, context) -> None:
        for stmt in block.statements:
            if isinstance(stmt, Comment):
                out.emit(f"/* {stmt.text} */")
            elif isinstance(stmt, Block):
                self._emit_trisolve_block(out, stmt, context)
            elif isinstance(stmt, Assign):
                # The only generic assignment in the lowered trisolve is the
                # initial copy of b into x, already emitted in the preamble.
                if isinstance(stmt.target, Var) and stmt.target.name == "x" and isinstance(stmt.value, Call):
                    continue
                raise CCompilationError("unexpected generic assignment in C trisolve")
            elif isinstance(stmt, ForRange):
                if stmt.annotations.get("role") == "column-loop":
                    self._emit_trisolve_all_columns(out)
                else:
                    raise CCompilationError("unexpected generic loop in C trisolve")
            elif isinstance(stmt, PrunedColumnSolveLoop):
                self._emit_pruned_loop_c(out, stmt)
            elif isinstance(stmt, PeeledColumnSolve):
                self._emit_peeled_c(out, stmt)
            elif isinstance(stmt, SupernodeTriangularBlock):
                self._emit_supernode_trisolve_c(out, stmt)
            else:
                raise CCompilationError(f"C backend cannot emit {type(stmt).__name__}")

    def _emit_trisolve_all_columns(self, out: _CEmitter) -> None:
        n = self._n
        out.emit(f"for (int64_t j = 0; j < {n}; j++) {{")
        out.push()
        out.emit("int64_t p0 = Lp[j], p1 = Lp[j + 1];")
        out.emit("double xj = x[j] / Lx[p0];")
        out.emit("x[j] = xj;")
        out.emit("for (int64_t p = p0 + 1; p < p1; p++) x[Li[p]] -= Lx[p] * xj;")
        out.pop()
        out.emit("}")

    def _emit_pruned_loop_c(self, out: _CEmitter, stmt: PrunedColumnSolveLoop) -> None:
        cname = self._add_constant(stmt.constant_name, stmt.columns)
        out.emit(f"/* pruned column loop over {stmt.columns.size} columns */")
        out.emit(f"for (int64_t t = 0; t < {stmt.columns.size}; t++) {{")
        out.push()
        out.emit(f"int64_t j = {cname}[t];")
        out.emit("int64_t p0 = Lp[j], p1 = Lp[j + 1];")
        out.emit("double xj = x[j] / Lx[p0];")
        out.emit("x[j] = xj;")
        out.emit("for (int64_t p = p0 + 1; p < p1; p++) x[Li[p]] -= Lx[p] * xj;")
        out.pop()
        out.emit("}")

    def _emit_peeled_c(self, out: _CEmitter, stmt: PeeledColumnSolve) -> None:
        j = stmt.column
        out.emit(f"/* peeled column {j} */")
        if stmt.nnz == 1:
            out.emit(f"x[{j}] /= Lx[{stmt.diag_pos}];")
            return
        out.emit("{")
        out.push()
        out.emit(f"double xj = x[{j}] / Lx[{stmt.diag_pos}];")
        out.emit(f"x[{j}] = xj;")
        if stmt.unroll:
            for offset, row in enumerate(stmt.rows):
                out.emit(f"x[{int(row)}] -= Lx[{stmt.offdiag_start + offset}] * xj;")
        else:
            out.emit(
                f"for (int64_t p = {stmt.offdiag_start}; p < {stmt.offdiag_end}; p++) "
                "x[Li[p]] -= Lx[p] * xj;"
            )
        out.pop()
        out.emit("}")

    def _emit_supernode_trisolve_c(self, out: _CEmitter, stmt: SupernodeTriangularBlock) -> None:
        c0, w, n_rows = stmt.c0, stmt.width, stmt.n_rows
        col_starts = stmt.col_starts
        n_off = stmt.n_offdiag_rows
        off_lo = stmt.rows_start + w
        out.emit(f"/* supernode {stmt.sn_id}: columns {c0}..{c0 + w} */")
        out.emit("{")
        out.push()
        if stmt.unroll:
            for ii in range(w):
                terms = []
                for jj in range(ii):
                    pos = int(col_starts[jj]) + (ii - jj)
                    terms.append(f"Lx[{pos}] * xb{jj}")
                rhs = f"x[{c0 + ii}]"
                if terms:
                    rhs = f"({rhs} - " + " - ".join(terms) + ")"
                out.emit(f"double xb{ii} = {rhs} / Lx[{int(col_starts[ii])}];")
            for ii in range(w):
                out.emit(f"x[{c0 + ii}] = xb{ii};")
            for jj in range(w):
                p0 = int(col_starts[jj]) + (w - jj)
                out.emit(
                    f"for (int64_t r = 0; r < {n_off}; r++) "
                    f"x[Li[{off_lo} + r]] -= Lx[{p0} + r] * xb{jj};"
                )
        else:
            cs_name = self._add_constant(f"sn{stmt.sn_id}_col_starts", col_starts)
            out.emit(f"for (int64_t jj = 0; jj < {w}; jj++) {{")
            out.push()
            out.emit(f"int64_t cs = {cs_name}[jj];")
            out.emit(f"double xj = x[{c0} + jj] / Lx[cs];")
            out.emit(f"x[{c0} + jj] = xj;")
            out.emit(f"for (int64_t i = 1; i < {w} - jj; i++) x[{c0} + jj + i] -= Lx[cs + i] * xj;")
            out.emit(
                f"for (int64_t r = 0; r < {n_off}; r++) "
                f"x[Li[{off_lo} + r]] -= Lx[cs + ({w} - jj) + r] * xj;"
            )
            out.pop()
            out.emit("}")
        out.pop()
        out.emit("}")

    # ------------------------------------------------------------------ #
    # Left-looking factorizations (Cholesky and LDL^T)
    # ------------------------------------------------------------------ #
    def _emit_factorization_body(self, out: _CEmitter, kernel: KernelFunction, context) -> None:
        simplicial = self._domain_nodes(kernel, SimplicialCholeskyLoop)
        supernodal = self._domain_nodes(kernel, SupernodalCholeskyLoop)
        out.emit("(void)Ap;  /* the A pattern is baked into the generated constants */")
        if supernodal:
            self._emit_supernodal_cholesky_c(out, supernodal[0])
        elif simplicial:
            self._emit_simplicial_cholesky_c(out, simplicial[0])
        else:
            raise CCompilationError(
                "the C backend requires a VI-Pruned or VS-Block'd factorization kernel"
            )

    def _emit_lu_body(self, out: _CEmitter, kernel: KernelFunction, context) -> None:
        simplicial = [
            node
            for node in self._domain_nodes(kernel, SimplicialCholeskyLoop)
            if node.factor_kind == "lu"
        ]
        if not simplicial:
            raise CCompilationError("the C backend requires a VI-Pruned LU kernel")
        out.emit("(void)Ap;  /* the A pattern is baked into the generated constants */")
        self._emit_simplicial_lu_c(out, simplicial[0])

    # ------------------------------------------------------------------ #
    # No-fill incomplete factorizations (IC(0) and ILU(0))
    # ------------------------------------------------------------------ #
    def _emit_ic0_body(self, out: _CEmitter, kernel: KernelFunction, context) -> None:
        loops = [
            node
            for node in self._domain_nodes(kernel, IncompleteFactorLoop)
            if node.factor_kind == "ic0"
        ]
        if not loops:
            raise CCompilationError("the C backend requires a VI-Pruned IC(0) kernel")
        out.emit("(void)Ap; (void)Ai;  /* the A pattern is baked into the constants */")
        self._emit_incomplete_ic0_c(out, loops[0])

    def _emit_ilu0_body(self, out: _CEmitter, kernel: KernelFunction, context) -> None:
        loops = [
            node
            for node in self._domain_nodes(kernel, IncompleteFactorLoop)
            if node.factor_kind == "ilu0"
        ]
        if not loops:
            raise CCompilationError("the C backend requires a VI-Pruned ILU(0) kernel")
        out.emit("(void)Ap; (void)Ai;  /* the A pattern is baked into the constants */")
        self._emit_incomplete_ilu0_c(out, loops[0])

    def _incomplete_ic0_names(self, stmt: IncompleteFactorLoop) -> Dict[str, str]:
        return {
            "lp": self._add_constant("l_indptr", stmt.l_indptr),
            "alp": self._add_constant("a_lower_pos", stmt.a_lower_pos),
            "pp": self._add_constant("prune_ptr", stmt.prune_ptr),
            "mp": self._add_constant("mult_pos", stmt.mult_pos),
            "lsp": self._add_constant("l_scat_ptr", stmt.l_scat_ptr),
            "lss": self._add_constant("l_scat_src", stmt.l_scat_src),
            "lsd": self._add_constant("l_scat_dst", stmt.l_scat_dst),
        }

    def _emit_ic0_column(self, out: _CEmitter, c: Dict[str, str]) -> None:
        # The body of one elimination step j.  Writes land only in column j
        # of Lx (the scatter destinations are column-j positions), which is
        # what lets the wavefront variant run a whole level of steps at once.
        out.emit(f"for (int64_t t = {c['pp']}[j]; t < {c['pp']}[j + 1]; t++) {{")
        out.push()
        out.emit(f"double ljk = Lx[{c['mp']}[t]];")
        out.emit(
            f"for (int64_t s = {c['lsp']}[t]; s < {c['lsp']}[t + 1]; s++) "
            f"Lx[{c['lsd']}[s]] -= Lx[{c['lss']}[s]] * ljk;"
        )
        out.pop()
        out.emit("}")
        out.emit(f"int64_t lp0 = {c['lp']}[j], lp1 = {c['lp']}[j + 1];")
        out.emit("double d = Lx[lp0];")
        out.emit("if (!(d > 0.0)) return j + 1;")
        out.emit("double ljj = sqrt(d);")
        out.emit("Lx[lp0] = ljj;")
        out.emit("for (int64_t p = lp0 + 1; p < lp1; p++) Lx[p] /= ljj;")

    def _emit_incomplete_ic0_c(self, out: _CEmitter, stmt: IncompleteFactorLoop) -> None:
        c = self._incomplete_ic0_names(stmt)
        nnzl = int(stmt.l_indptr[-1])
        out.emit("/* IC(0): in-place no-fill elimination on the tril(A) pattern */")
        out.emit(f"for (int64_t i = 0; i < {nnzl}; i++) Lx[i] = Ax[{c['alp']}[i]];")
        out.emit(f"for (int64_t j = 0; j < {stmt.n}; j++) {{")
        out.push()
        self._emit_ic0_column(out, c)
        out.pop()
        out.emit("}")
        out.emit("return 0;")

    def _incomplete_ilu0_names(self, stmt: IncompleteFactorLoop) -> Dict[str, str]:
        return {
            "lp": self._add_constant("l_indptr", stmt.l_indptr),
            "up": self._add_constant("u_indptr", stmt.u_indptr),
            "alp": self._add_constant("a_lower_pos", stmt.a_lower_pos),
            "aup": self._add_constant("a_upper_pos", stmt.a_upper_pos),
            "lgd": self._add_constant("l_gather_dst", stmt.l_gather_dst),
            "pp": self._add_constant("prune_ptr", stmt.prune_ptr),
            "mp": self._add_constant("mult_pos", stmt.mult_pos),
            "usp": self._add_constant("u_scat_ptr", stmt.u_scat_ptr),
            "uss": self._add_constant("u_scat_src", stmt.u_scat_src),
            "usd": self._add_constant("u_scat_dst", stmt.u_scat_dst),
            "lsp": self._add_constant("l_scat_ptr", stmt.l_scat_ptr),
            "lss": self._add_constant("l_scat_src", stmt.l_scat_src),
            "lsd": self._add_constant("l_scat_dst", stmt.l_scat_dst),
        }

    def _emit_ilu0_column(self, out: _CEmitter, c: Dict[str, str]) -> None:
        # One elimination step j: all writes land in column j of Ux and Lx,
        # all reads come from columns k < j (strictly earlier wavefronts).
        out.emit(f"for (int64_t t = {c['pp']}[j]; t < {c['pp']}[j + 1]; t++) {{")
        out.push()
        out.emit(f"double ukj = Ux[{c['mp']}[t]];")
        out.emit(
            f"for (int64_t s = {c['usp']}[t]; s < {c['usp']}[t + 1]; s++) "
            f"Ux[{c['usd']}[s]] -= Lx[{c['uss']}[s]] * ukj;"
        )
        out.emit(
            f"for (int64_t s = {c['lsp']}[t]; s < {c['lsp']}[t + 1]; s++) "
            f"Lx[{c['lsd']}[s]] -= Lx[{c['lss']}[s]] * ukj;"
        )
        out.pop()
        out.emit("}")
        out.emit(f"double piv = Ux[{c['up']}[j + 1] - 1];")
        out.emit("if (piv == 0.0) return j + 1;")
        out.emit(f"int64_t lp0 = {c['lp']}[j], lp1 = {c['lp']}[j + 1];")
        out.emit("Lx[lp0] = 1.0;")
        out.emit("for (int64_t p = lp0 + 1; p < lp1; p++) Lx[p] /= piv;")

    def _emit_ilu0_preamble(self, out: _CEmitter, stmt: IncompleteFactorLoop, c: Dict[str, str]) -> None:
        nnzl = int(stmt.l_indptr[-1])
        nnzu = int(stmt.u_indptr[-1])
        n_below = int(stmt.a_lower_pos.size)
        out.emit(f"for (int64_t i = 0; i < {nnzu}; i++) Ux[i] = Ax[{c['aup']}[i]];")
        out.emit(f"memset(Lx, 0, {nnzl} * sizeof(double));")
        out.emit(
            f"for (int64_t i = 0; i < {n_below}; i++) Lx[{c['lgd']}[i]] = Ax[{c['alp']}[i]];"
        )

    def _emit_incomplete_ilu0_c(self, out: _CEmitter, stmt: IncompleteFactorLoop) -> None:
        c = self._incomplete_ilu0_names(stmt)
        out.emit("/* ILU(0): in-place no-fill elimination on the A pattern */")
        self._emit_ilu0_preamble(out, stmt, c)
        out.emit(f"for (int64_t j = 0; j < {stmt.n}; j++) {{")
        out.push()
        self._emit_ilu0_column(out, c)
        out.pop()
        out.emit("}")
        out.emit("return 0;")

    def _simplicial_lu_names(self, stmt: SimplicialCholeskyLoop) -> Dict[str, str]:
        return {
            "lp": self._add_constant("l_indptr", stmt.l_indptr),
            "li": self._add_constant("l_indices", stmt.l_indices),
            "up": self._add_constant("u_indptr", stmt.u_indptr),
            "ui": self._add_constant("u_indices", stmt.u_indices),
            "ad": self._add_constant("a_col_start", stmt.a_diag_pos),
            "ae": self._add_constant("a_col_end", stmt.a_col_end),
            "pp": self._add_constant("prune_ptr", stmt.prune_ptr),
            "upos": self._add_constant("update_pos", stmt.update_pos),
            "uend": self._add_constant("update_end", stmt.update_end),
            "ucol": self._add_constant("update_col", stmt.update_col),
        }

    def _emit_simplicial_lu_column(self, out: _CEmitter, c: Dict[str, str]) -> None:
        # One left-looking LU step: scatter A(:, j) into the thread-local
        # work vector, apply the update columns, store column j of U and L,
        # restore the work vector to zero.  Writes outside the work vector
        # land only in columns j of Lx/Ux.
        out.emit(f"for (int64_t p = {c['ad']}[j]; p < {c['ae']}[j]; p++) repro_f[Ai[p]] = Ax[p];")
        out.emit(f"for (int64_t t = {c['pp']}[j]; t < {c['pp']}[j + 1]; t++) {{")
        out.push()
        out.emit(f"int64_t ps = {c['upos']}[t], pe = {c['uend']}[t];")
        out.emit(f"double ukj = repro_f[{c['ucol']}[t]];")
        out.emit(f"for (int64_t p = ps; p < pe; p++) repro_f[{c['li']}[p]] -= Lx[p] * ukj;")
        out.pop()
        out.emit("}")
        out.emit(f"int64_t u0 = {c['up']}[j], u1 = {c['up']}[j + 1];")
        out.emit(f"for (int64_t p = u0; p < u1; p++) Ux[p] = repro_f[{c['ui']}[p]];")
        out.emit("double piv = repro_f[j];")
        out.emit("if (piv == 0.0) return j + 1;")
        out.emit(f"int64_t lp0 = {c['lp']}[j], lp1 = {c['lp']}[j + 1];")
        out.emit("Lx[lp0] = 1.0;")
        out.emit(f"for (int64_t p = lp0 + 1; p < lp1; p++) Lx[p] = repro_f[{c['li']}[p]] / piv;")
        out.emit(f"for (int64_t p = u0; p < u1; p++) repro_f[{c['ui']}[p]] = 0.0;")
        out.emit(f"for (int64_t p = lp0; p < lp1; p++) repro_f[{c['li']}[p]] = 0.0;")

    def _emit_simplicial_lu_c(self, out: _CEmitter, stmt: SimplicialCholeskyLoop) -> None:
        c = self._simplicial_lu_names(stmt)
        nnzl = int(stmt.l_indptr[-1])
        nnzu = int(stmt.u_indptr[-1])
        out.emit(f"memset(Lx, 0, {nnzl} * sizeof(double));")
        out.emit(f"memset(Ux, 0, {nnzu} * sizeof(double));")
        out.emit(f"memset(repro_f, 0, {stmt.n} * sizeof(double));")
        out.emit(f"for (int64_t j = 0; j < {stmt.n}; j++) {{")
        out.push()
        self._emit_simplicial_lu_column(out, c)
        out.pop()
        out.emit("}")
        out.emit("return 0;")

    def _simplicial_chol_names(self, stmt: SimplicialCholeskyLoop) -> Dict[str, str]:
        ldlt = stmt.factor_kind == "ldlt"
        return {
            "lp": self._add_constant("l_indptr", stmt.l_indptr),
            "li": self._add_constant("l_indices", stmt.l_indices),
            "ad": self._add_constant("a_diag_pos", stmt.a_diag_pos),
            "ae": self._add_constant("a_col_end", stmt.a_col_end),
            "pp": self._add_constant("prune_ptr", stmt.prune_ptr),
            "up": self._add_constant("update_pos", stmt.update_pos),
            "ue": self._add_constant("update_end", stmt.update_end),
            "uc": self._add_constant("update_col", stmt.update_col) if ldlt else None,
        }

    def _emit_simplicial_chol_column(
        self, out: _CEmitter, stmt: SimplicialCholeskyLoop, c: Dict[str, str]
    ) -> None:
        # One left-looking Cholesky/LDL^T step over the thread-local work
        # vector; the only shared-array writes are column j of Lx (and D[j]).
        ldlt = stmt.factor_kind == "ldlt"
        out.emit(f"for (int64_t p = {c['ad']}[j]; p < {c['ae']}[j]; p++) repro_f[Ai[p]] = Ax[p];")
        out.emit(f"for (int64_t t = {c['pp']}[j]; t < {c['pp']}[j + 1]; t++) {{")
        out.push()
        out.emit(f"int64_t ps = {c['up']}[t], pe = {c['ue']}[t];")
        if ldlt:
            out.emit(f"double ljk = Lx[ps] * D[{c['uc']}[t]];")
        else:
            out.emit("double ljk = Lx[ps];")
        out.emit(f"for (int64_t p = ps; p < pe; p++) repro_f[{c['li']}[p]] -= Lx[p] * ljk;")
        out.pop()
        out.emit("}")
        out.emit(f"int64_t lp0 = {c['lp']}[j], lp1 = {c['lp']}[j + 1];")
        out.emit("double d = repro_f[j];")
        if ldlt:
            out.emit("if (d == 0.0) return j + 1;")
            out.emit("D[j] = d;")
            out.emit("Lx[lp0] = 1.0;")
            out.emit(f"for (int64_t p = lp0 + 1; p < lp1; p++) Lx[p] = repro_f[{c['li']}[p]] / d;")
        else:
            out.emit("if (!(d > 0.0)) return j + 1;")
            out.emit("double ljj = sqrt(d);")
            out.emit("Lx[lp0] = ljj;")
            out.emit(f"for (int64_t p = lp0 + 1; p < lp1; p++) Lx[p] = repro_f[{c['li']}[p]] / ljj;")
        out.emit(f"for (int64_t p = lp0; p < lp1; p++) repro_f[{c['li']}[p]] = 0.0;")

    def _emit_simplicial_cholesky_c(self, out: _CEmitter, stmt: SimplicialCholeskyLoop) -> None:
        c = self._simplicial_chol_names(stmt)
        nnzl = int(stmt.l_indptr[-1])
        out.emit(f"memset(Lx, 0, {nnzl} * sizeof(double));")
        out.emit(f"memset(repro_f, 0, {stmt.n} * sizeof(double));")
        out.emit(f"for (int64_t j = 0; j < {stmt.n}; j++) {{")
        out.push()
        self._emit_simplicial_chol_column(out, stmt, c)
        out.pop()
        out.emit("}")
        out.emit("return 0;")

    def _emit_supernodal_cholesky_c(self, out: _CEmitter, stmt: SupernodalCholeskyLoop) -> None:
        n = stmt.n
        ldlt = stmt.factor_kind == "ldlt"
        lp = self._add_constant("l_indptr", stmt.l_indptr)
        li = self._add_constant("l_indices", stmt.l_indices)
        ad = self._add_constant("a_diag_pos", stmt.a_diag_pos)
        ae = self._add_constant("a_col_end", stmt.a_col_end)
        ss = self._add_constant("sup_start", stmt.sup_start)
        se = self._add_constant("sup_end", stmt.sup_end)
        dp = self._add_constant("desc_ptr", stmt.desc_ptr)
        dpos = self._add_constant("desc_pos", stmt.desc_pos)
        dme = self._add_constant("desc_mult_end", stmt.desc_mult_end)
        dend = self._add_constant("desc_end", stmt.desc_end)
        dc = self._add_constant("desc_col", stmt.desc_col) if ldlt else None
        nnzl = int(stmt.l_indptr[-1])
        n_super = stmt.n_supernodes
        out.emit(f"memset(Lx, 0, {nnzl} * sizeof(double));")
        out.emit(f"memset(repro_f, 0, {n} * sizeof(double));")
        out.emit(f"for (int64_t s = 0; s < {n_super}; s++) {{")
        out.push()
        out.emit(f"int64_t c0 = {ss}[s], c1 = {se}[s];")
        out.emit("int64_t w = c1 - c0;")
        if stmt.distribute_single_columns:
            out.emit("if (w == 1) {")
            out.push()
            out.emit(f"int64_t lp0 = {lp}[c0], lp1 = {lp}[c0 + 1];")
            out.emit(f"for (int64_t p = {ad}[c0]; p < {ae}[c0]; p++) repro_f[Ai[p]] = Ax[p];")
            out.emit(f"for (int64_t t = {dp}[s]; t < {dp}[s + 1]; t++) {{")
            out.push()
            out.emit(f"int64_t ps = {dpos}[t], pe = {dend}[t];")
            if ldlt:
                out.emit(f"double ljk = Lx[ps] * D[{dc}[t]];")
            else:
                out.emit("double ljk = Lx[ps];")
            out.emit(f"for (int64_t p = ps; p < pe; p++) repro_f[{li}[p]] -= Lx[p] * ljk;")
            out.pop()
            out.emit("}")
            out.emit("double d = repro_f[c0];")
            if ldlt:
                out.emit("if (d == 0.0) return c0 + 1;")
                out.emit("D[c0] = d;")
                out.emit("Lx[lp0] = 1.0;")
                out.emit(f"for (int64_t p = lp0 + 1; p < lp1; p++) Lx[p] = repro_f[{li}[p]] / d;")
            else:
                out.emit("if (!(d > 0.0)) return c0 + 1;")
                out.emit("double ljj = sqrt(d);")
                out.emit("Lx[lp0] = ljj;")
                out.emit(f"for (int64_t p = lp0 + 1; p < lp1; p++) Lx[p] = repro_f[{li}[p]] / ljj;")
            out.emit(f"for (int64_t p = lp0; p < lp1; p++) repro_f[{li}[p]] = 0.0;")
            out.emit("continue;")
            out.pop()
            out.emit("}")
        out.emit(f"int64_t r0 = {lp}[c0], r1 = {lp}[c0 + 1];")
        out.emit("int64_t nr = r1 - r0;")
        out.emit(f"for (int64_t i = 0; i < nr; i++) repro_rowmap[{li}[r0 + i]] = i;")
        out.emit("for (int64_t i = 0; i < nr * w; i++) repro_panel[i] = 0.0;")
        out.emit("for (int64_t jj = 0; jj < w; jj++) {")
        out.push()
        out.emit("int64_t c = c0 + jj;")
        out.emit(
            f"for (int64_t p = {ad}[c]; p < {ae}[c]; p++) "
            "repro_panel[repro_rowmap[Ai[p]] * w + jj] = Ax[p];"
        )
        out.pop()
        out.emit("}")
        out.emit(f"for (int64_t t = {dp}[s]; t < {dp}[s + 1]; t++) {{")
        out.push()
        out.emit(f"int64_t ps = {dpos}[t], pm = {dme}[t], pe = {dend}[t];")
        out.emit("for (int64_t i = 0; i < w; i++) repro_mult[i] = 0.0;")
        if ldlt:
            out.emit(f"double dk = D[{dc}[t]];")
            out.emit(f"for (int64_t p = ps; p < pm; p++) repro_mult[{li}[p] - c0] = Lx[p] * dk;")
        else:
            out.emit(f"for (int64_t p = ps; p < pm; p++) repro_mult[{li}[p] - c0] = Lx[p];")
        out.emit("for (int64_t p = ps; p < pe; p++) {")
        out.push()
        out.emit(f"double* row = repro_panel + repro_rowmap[{li}[p]] * w;")
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
        out.emit(f"int64_t lp0 = {lp}[c];")
        out.emit("for (int64_t i = jj; i < w; i++) Lx[lp0 + (i - jj)] = repro_panel[i * w + jj];")
        out.emit(
            "for (int64_t r = 0; r < nr - w; r++) "
            "Lx[lp0 + (w - jj) + r] = repro_panel[(w + r) * w + jj];"
        )
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
        min_avg = getattr(context.options, "wavefront_min_avg_width", 1.5)
        if schedule.average_width < min_avg:
            # n_levels close to n: a deep elimination tree, where per-level
            # barriers cost more than the parallelism they unlock.
            return "deep-etree"
        return None

    def _record_wf_decision(self, context, fallback: Optional[str]) -> None:
        schedule = getattr(context.inspection, "schedule", None)
        mode = "wavefront" if fallback is None else "serial-fallback"
        info: Dict[str, object] = {"mode": mode}
        if fallback is not None:
            info["fallback_reason"] = fallback
        if schedule is not None:
            info["n_levels"] = schedule.n_levels
            info["max_width"] = schedule.max_width
            info["average_width"] = round(schedule.average_width, 3)
        context.decisions["wavefront"] = info
        self._parallel_mode = mode

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
        participant_clears_f: bool,
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
        self._needs_wf_runtime = True

        p = _CEmitter()
        arg_decls = "".join(f", {decl} {name}" for decl, name in params)
        p.emit(f"static int64_t {entry}_wf_col(int64_t t{arg_decls}) {{")
        p.push()
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
        p.emit(f"static double {entry}_wf_level_ts[{schedule.n_levels} + 1];")
        p.emit(f"double* {entry}_wf_level_times(void) {{ return {entry}_wf_level_ts; }}")
        p.emit("")
        p.emit(f"static void {entry}_wf_run(int64_t tid, int64_t nt, void* jobv) {{")
        p.push()
        p.emit(f"{entry}_wf_job_t* job = ({entry}_wf_job_t*)jobv;")
        p.emit("int64_t wf_sense = 0;")
        p.emit("int64_t wf_prof = tid == 0 && repro_wf_profile_on();")
        p.emit(f"if (wf_prof) {entry}_wf_level_ts[0] = repro_wf_now();")
        if participant_clears_f:
            # A failed earlier call may have bailed out of a column body with
            # the thread-local work vector still scattered; restore the
            # all-zeros invariant the column bodies rely on.
            p.emit(f"memset(repro_f, 0, {self._n} * sizeof(double));")
        p.emit(f"for (int64_t l = 0; l < {schedule.n_levels}; l++) {{")
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
        self._prelude.extend(p.lines)

        out.emit(f"if (n_threads > {schedule.max_width}) n_threads = {schedule.max_width};")
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

    def _trisolve_serial_order(self, kernel: KernelFunction) -> List[int]:
        """Columns in the order the *serial* body processes them.

        The serial trisolve does not visit columns in ascending index order:
        VI-Prune emits the reach set in the inspector's topological order,
        peeling hoists columns out of the pruned loops, and VS-Block walks
        supernode panels.  The pull-form wavefront body must subtract each
        row's updates in this exact order to stay bitwise identical, so the
        order is recovered by walking the lowered IR the same way the serial
        emitter does.
        """
        cols: List[int] = []

        def walk(block: Block) -> None:
            for stmt in block.statements:
                if isinstance(stmt, Block):
                    walk(stmt)
                elif isinstance(stmt, ForRange):
                    if stmt.annotations.get("role") == "column-loop":
                        cols.extend(range(self._n))
                elif isinstance(stmt, PrunedColumnSolveLoop):
                    cols.extend(int(c) for c in stmt.columns)
                elif isinstance(stmt, PeeledColumnSolve):
                    cols.append(int(stmt.column))
                elif isinstance(stmt, SupernodeTriangularBlock):
                    cols.extend(range(int(stmt.c0), int(stmt.c0) + int(stmt.width)))

        walk(kernel.body)
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
        if sorted(serial_order) != sorted(int(j) for j in order):
            raise CCompilationError(
                "the serial trisolve body and the level-set schedule cover "
                "different column sets"
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
        fallback = self._wf_fallback_reason(context)
        self._record_wf_decision(context, fallback)
        if fallback is not None:
            out.emit(f"(void)n_threads;  /* serial fallback: {fallback} */")
            self._emit_trisolve_body(out, kernel, context)
            return
        schedule = context.inspection.schedule
        wrp, wpos, wcol, wdiag = self._trisolve_pull_structure(
            context, schedule, self._trisolve_serial_order(kernel)
        )
        rp = self._add_constant("wf_row_ptr", wrp)
        rpos = self._add_constant("wf_row_pos", wpos)
        rcol = self._add_constant("wf_row_col", wcol)
        dg = self._add_constant("wf_diag_pos", wdiag)
        n = self._n

        def emit_column(p: _CEmitter) -> None:
            p.emit("double acc = b[j];")
            p.emit(
                f"for (int64_t s = {rp}[t]; s < {rp}[t + 1]; s++) "
                f"acc -= Lx[{rpos}[s]] * x[{rcol}[s]];"
            )
            p.emit(f"x[j] = acc / Lx[{dg}[t]];")

        def emit_parallel_preamble(p: _CEmitter) -> None:
            p.emit(f"for (int64_t i = 0; i < {n}; i++) x[i] = b[i];")

        def emit_serial(p: _CEmitter) -> None:
            self._emit_trisolve_body(p, kernel, context)
            p.emit("return;")

        self._emit_wavefront_scaffold(
            out,
            kernel,
            context,
            params=[("const double*", "Lx"), ("const double*", "b"), ("double*", "x")],
            emit_column=emit_column,
            emit_parallel_preamble=emit_parallel_preamble,
            emit_serial=emit_serial,
            returns_status=False,
            participant_clears_f=False,
        )

    def _emit_wf_factorization_body(self, out: _CEmitter, kernel: KernelFunction, context) -> None:
        simplicial = self._domain_nodes(kernel, SimplicialCholeskyLoop)
        supernodal = self._domain_nodes(kernel, SupernodalCholeskyLoop)
        out.emit("(void)Ap;  /* the A pattern is baked into the generated constants */")
        fallback = self._wf_fallback_reason(context, supernodal=bool(supernodal))
        self._record_wf_decision(context, fallback)
        if fallback is not None:
            out.emit(f"(void)n_threads;  /* serial fallback: {fallback} */")
            if supernodal:
                self._emit_supernodal_cholesky_c(out, supernodal[0])
            elif simplicial:
                self._emit_simplicial_cholesky_c(out, simplicial[0])
            else:
                raise CCompilationError(
                    "the C backend requires a VI-Pruned or VS-Block'd factorization kernel"
                )
            return
        if not simplicial:
            raise CCompilationError(
                "the C backend requires a VI-Pruned or VS-Block'd factorization kernel"
            )
        stmt = simplicial[0]
        names = self._simplicial_chol_names(stmt)
        nnzl = int(stmt.l_indptr[-1])
        params = [("const int64_t*", "Ai"), ("const double*", "Ax"), ("double*", "Lx")]
        if stmt.factor_kind == "ldlt":
            params.append(("double*", "D"))

        self._emit_wavefront_scaffold(
            out,
            kernel,
            context,
            params=params,
            emit_column=lambda p: self._emit_simplicial_chol_column(p, stmt, names),
            emit_parallel_preamble=lambda p: p.emit(f"memset(Lx, 0, {nnzl} * sizeof(double));"),
            emit_serial=lambda p: self._emit_simplicial_cholesky_c(p, stmt),
            returns_status=True,
            participant_clears_f=True,
        )

    def _emit_wf_lu_body(self, out: _CEmitter, kernel: KernelFunction, context) -> None:
        simplicial = [
            node
            for node in self._domain_nodes(kernel, SimplicialCholeskyLoop)
            if node.factor_kind == "lu"
        ]
        if not simplicial:
            raise CCompilationError("the C backend requires a VI-Pruned LU kernel")
        out.emit("(void)Ap;  /* the A pattern is baked into the generated constants */")
        stmt = simplicial[0]
        fallback = self._wf_fallback_reason(context)
        self._record_wf_decision(context, fallback)
        if fallback is not None:
            out.emit(f"(void)n_threads;  /* serial fallback: {fallback} */")
            self._emit_simplicial_lu_c(out, stmt)
            return
        names = self._simplicial_lu_names(stmt)
        nnzl = int(stmt.l_indptr[-1])
        nnzu = int(stmt.u_indptr[-1])

        def emit_parallel_preamble(p: _CEmitter) -> None:
            p.emit(f"memset(Lx, 0, {nnzl} * sizeof(double));")
            p.emit(f"memset(Ux, 0, {nnzu} * sizeof(double));")

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
            emit_column=lambda p: self._emit_simplicial_lu_column(p, names),
            emit_parallel_preamble=emit_parallel_preamble,
            emit_serial=lambda p: self._emit_simplicial_lu_c(p, stmt),
            returns_status=True,
            participant_clears_f=True,
        )

    def _emit_wf_ic0_body(self, out: _CEmitter, kernel: KernelFunction, context) -> None:
        loops = [
            node
            for node in self._domain_nodes(kernel, IncompleteFactorLoop)
            if node.factor_kind == "ic0"
        ]
        if not loops:
            raise CCompilationError("the C backend requires a VI-Pruned IC(0) kernel")
        out.emit("(void)Ap; (void)Ai;  /* the A pattern is baked into the constants */")
        stmt = loops[0]
        fallback = self._wf_fallback_reason(context)
        self._record_wf_decision(context, fallback)
        if fallback is not None:
            out.emit(f"(void)n_threads;  /* serial fallback: {fallback} */")
            self._emit_incomplete_ic0_c(out, stmt)
            return
        names = self._incomplete_ic0_names(stmt)
        nnzl = int(stmt.l_indptr[-1])

        def emit_parallel_preamble(p: _CEmitter) -> None:
            p.emit(f"for (int64_t i = 0; i < {nnzl}; i++) Lx[i] = Ax[{names['alp']}[i]];")

        self._emit_wavefront_scaffold(
            out,
            kernel,
            context,
            params=[("double*", "Lx")],
            emit_column=lambda p: self._emit_ic0_column(p, names),
            emit_parallel_preamble=emit_parallel_preamble,
            emit_serial=lambda p: self._emit_incomplete_ic0_c(p, stmt),
            returns_status=True,
            participant_clears_f=False,
        )

    def _emit_wf_ilu0_body(self, out: _CEmitter, kernel: KernelFunction, context) -> None:
        loops = [
            node
            for node in self._domain_nodes(kernel, IncompleteFactorLoop)
            if node.factor_kind == "ilu0"
        ]
        if not loops:
            raise CCompilationError("the C backend requires a VI-Pruned ILU(0) kernel")
        out.emit("(void)Ap; (void)Ai;  /* the A pattern is baked into the constants */")
        stmt = loops[0]
        fallback = self._wf_fallback_reason(context)
        self._record_wf_decision(context, fallback)
        if fallback is not None:
            out.emit(f"(void)n_threads;  /* serial fallback: {fallback} */")
            self._emit_incomplete_ilu0_c(out, stmt)
            return
        names = self._incomplete_ilu0_names(stmt)

        self._emit_wavefront_scaffold(
            out,
            kernel,
            context,
            params=[("double*", "Lx"), ("double*", "Ux")],
            emit_column=lambda p: self._emit_ilu0_column(p, names),
            emit_parallel_preamble=lambda p: self._emit_ilu0_preamble(p, stmt, names),
            emit_serial=lambda p: self._emit_incomplete_ilu0_c(p, stmt),
            returns_status=True,
            participant_clears_f=False,
        )
