"""Specialized-C code generation backend.

Emits C source whose *shape* follows the planned domain loop
(:mod:`repro.compiler.plan`), compiles it with the system C compiler and loads
the shared object through :mod:`ctypes`.  This is the closest analogue of the
original Sympiler, which generates C and compiles it with GCC ``-O3`` (§4.1);
the backend is optional — environments without a C compiler run the python
backend's reference kernels over the same tables.

What may be literal in the generated source
-------------------------------------------
Only what changes the *code*: which loop nest the plan chose (simplicial or
supernodal).  The backend never reads the pattern to decide *what code* to
emit: source is a function of (kernel, options, code shape).  Everything that
depends on the sparsity pattern alone — every inspection set (``l_indptr``,
``prune_ptr``, the supernode and descendant descriptors, the scatter tables,
the triangular solve's segment descriptors) and every size (``n``, nnz,
supernode and segment counts) — is *data*.  Its name and its position come
from the table contract (:mod:`repro.compiler.codegen.tables`): the block is
the contract of the kernel's domain loop; the printed code names
``_C_<name>`` for a table and the bare name for a size, and the python
backend's reference kernels read the same block.
The loaded entry point receives the block through one trailing pointer
argument.  So the size of a source file and the time ``cc`` spends on it are
constants of the code shape, and two patterns that lower to the same code
produce byte-identical source and share one ``.so`` through the
source-fingerprint file stem; every triangular solve of one option bundle is
the same ``.so``.

One step, printed once
----------------------
One emitter (:meth:`CBackend.generate`) prints every kernel from a table keyed
by the role of its domain loop (:data:`_LOOPS`): the preamble that initialises
the outputs, the body of one step (a column; a segment of the triangular
solve; a supernode of the VS-Block'd factorization) and the work buffers a
step reads.  The body becomes ``static inline int64_t {entry}_step(int64_t j,
<the entry's arrays>, const int64_t* const* repro_T)``, which returns 0 or the
failing column + 1.  The entry is the preamble and a loop over the steps.

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
  scattered through relative row positions.  Both of its update loops run
  on 4 x 8 register tiles, held in GCC / Clang vector extensions.  Its
  loops are plain C: no BLAS, whose results change with its thread count.
* the solve entry of a Cholesky, LDLᵀ, LU or IC(0) module — ``void
  <name>_solve(const int64_t* perm, const double* Lx[, const double* D |
  Ux], const double* b, double* w, double* x, const int64_t* const*
  repro_T)``: ``x`` solving ``A x = b`` on the factors the entry wrote, read
  in place (:func:`_emit_solve`; IC(0)'s applies ``(L Lᵀ)⁻¹``).

The table block is built once, when the module is loaded
(:meth:`CMethodSpec.wrap`), from the arrays the compile call already holds;
nothing is persisted for it, because every process re-runs inspection before
it loads a ``.so``.

Every entry is serial: one ABI and one source per kernel and code shape.
Threads run across calls, not inside one: the batch entries map one loaded
entry over a thread pool (:func:`~repro.solvers.linear_solver.map_items`),
each thread on its own ``_Thread_local`` work buffers.
``SympilerOptions(parallel="wavefront")`` compiles the serial source byte for
byte, so it shares the ``.so``, and records the fallback on the artifact
(:data:`_SERIAL_FALLBACK`).  Why no thread runs inside a kernel: a job over
the factorizations' level sets, a barrier between levels, ran at 0.82-1.14x
of the serial kernel at two threads on two cores.
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

from repro.compiler.cache import _cpu_count, build_and_load, tmp_path_for
from repro.compiler.codegen import tables
from repro.compiler.codegen.runtime import generated_code_dir, pattern_fingerprint
from repro.compiler.options import _default_c_flags

if TYPE_CHECKING:  # plan.py imports codegen.tables, so this package loads first
    from repro.compiler.plan import DomainLoop
    from repro.compiler.registry import KernelSpec

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
        self._this_thread = threading.local()

    def bump(self, field_name: str, n: int = 1) -> None:
        """Atomically increment one counter."""
        with self._lock:
            setattr(self, field_name, getattr(self, field_name) + n)
        if field_name in ("compiles", "py_writes"):
            self._this_thread.generated = self.generated_on_this_thread() + n

    def generated_on_this_thread(self) -> int:
        """``compiles + py_writes`` bumped on the calling thread, ever.

        Code this thread generated, whatever other threads compile at the
        same time: a service registration reads it before and after its
        compile to tell a warm registration from a cold one.
        """
        return getattr(self._this_thread, "generated", 0)

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
    #: The kernel's entry ABI (:attr:`KernelSpec.abi <repro.compiler.registry.KernelSpec.abi>`).
    abi: CMethodSpec
    codegen_seconds: float
    compiler: str
    flags: Tuple[str, ...]
    n: int
    #: Where :attr:`source` splits into translation units that build side by
    #: side: each part is a run of ``source[start:end]`` slices.  Empty for a
    #: module that builds as one.
    parts: Tuple[Tuple[Tuple[int, int], ...], ...] = ()
    compile_seconds: float = 0.0
    shared_object: Optional[str] = None
    #: True when the ``.so`` was already on disk (or another process was
    #: building it) — a disk-warm start, or another pattern that lowered to
    #: the same source.
    so_shared: bool = False
    #: The binder of ``<entry>_solve`` (:attr:`CMethodSpec.solve_spec`), set by
    #: :meth:`compile` for the direct factorizations and IC(0); ``None`` otherwise.
    solve_entry: Optional[Callable] = field(default=None, repr=False)
    _callable: Optional[Callable] = field(default=None, repr=False)
    _lib: Optional[ctypes.CDLL] = field(default=None, repr=False)

    # ------------------------------------------------------------------ #
    def compile(self) -> Callable:
        """Compile the C source and return the entry's binder (:meth:`CMethodSpec.wrap`).

        Source and shared object are written to the on-disk cache through a
        temp-file + atomic-rename protocol, so concurrent processes working on
        the same pattern never load a half-written artifact; a pre-existing
        ``.so`` for the same source fingerprint skips compilation entirely
        and writes nothing.  On two CPUs, a module with :attr:`parts` builds
        them side by side (:func:`~repro.compiler.cache.build_and_load`).
        """
        if self._callable is not None:
            return self._callable
        if not c_compiler_available(self.compiler):
            raise CCompilationError(
                f"C compiler {self.compiler!r} not found (set REPRO_CC or SympilerOptions.c_compiler)"
            )
        start = time.perf_counter()
        cache = generated_code_dir()
        extra_flags = []
        if not any(f.startswith("-ffp-contract") for f in self.flags):
            # Uniform rounding across every generated kernel: the default
            # -ffp-contract=fast fuses multiply-subtract differently for
            # different loop shapes, which would break the bitwise identity
            # with the python backend's reference kernels, which round every
            # operation.  An explicit -ffp-contract in the flags wins.
            extra_flags.append("-ffp-contract=off")
        if "#include <pthread.h>" in self.source:
            # REPRO_CFLAGS cannot be asked to carry -pthread (kernels without
            # work buffers must keep compiling without it), so it is derived
            # from the source itself.
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
        # cold-compiling the same source run exactly one build between them,
        # its parts side by side on two CPUs.  The source file exists for
        # `cc` (and for whoever debugs a kernel); a start that finds the .so
        # never writes it.
        lib = build_and_load(
            so_path,
            [self.compiler, *self.flags, *extra_flags],
            c_path,
            parts=["".join(self.source[a:b] for a, b in part) for part in self.parts],
            libs=["-lm"],
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
        if self.abi.solve:
            self.solve_entry = self.abi.solve_spec.wrap(self, getattr(lib, f"{self.entry_name}_solve"))
        self._callable = self.abi.wrap(self, fn)
        return self._callable


# --------------------------------------------------------------------------- #
# Per-method ABI specs (entry signature + ctypes binder)
# --------------------------------------------------------------------------- #
_NUMPY_DTYPES = {"int64_t": np.int64, "double": np.float64}


def resolve_num_threads(num_threads: Optional[int]) -> int:
    """Normalize the batch entries' thread-count knob to a concrete worker count.

    The one precedence of ``BatchedSolver``, ``SparseLinearSolver.solve_many``
    and :func:`~repro.solvers.linear_solver.map_items` (the one thread
    mechanism): an explicit ``num_threads`` wins; when it is ``None``,
    ``REPRO_NUM_THREADS`` applies (CI runners and service containers pin the
    count there without touching call sites; surrounding blanks are ignored,
    blank is unset, anything else must be an integer); with neither, 1.
    ``0`` at any step means one per CPU this process may run on (its
    affinity mask, as the build counts them).  The count is a call argument, not an
    option: it changes no generated code, so re-tuning it never recompiles.
    """
    if num_threads is None:
        raw = os.environ.get("REPRO_NUM_THREADS", "")
        try:
            num_threads = int(raw) if raw.strip() else 1
        except ValueError:
            raise ValueError(f"REPRO_NUM_THREADS must be an integer, got {raw!r}") from None
    num_threads = int(num_threads)
    if num_threads < 0:
        raise ValueError("num_threads must be non-negative (0 means one per CPU)")
    if num_threads == 0:
        return _cpu_count()
    return num_threads


@dataclass(frozen=True)
class CMethodSpec:
    """The entry ABI of one kernel: the ``abi`` of its row in :mod:`repro.compiler.registry`.

    The entry point takes the ``inputs`` (``(C name, element type)`` of each
    ``const`` array, in order), then one ``double*`` per ``outputs`` entry
    (``(C name, size attribute)`` — the buffer length is that attribute of
    the inspection result: ``n``, ``factor_nnz``, ``l_nnz``, ...), and last
    the table block ``const int64_t* const* repro_T`` — one pointer per
    inspection set the source names, in registration order.  The kernel's
    step function takes the same arrays (:attr:`params`).  ``failure`` is the
    message (a template over ``{column}``) of the ``ValueError`` raised when
    the entry returns the positive status ``column + 1``; ``None`` declares a
    ``void`` entry that cannot fail.  ``loops`` are the roles of the domain
    loops (:data:`_LOOPS`) the kernel can be printed from, ``"untransformed"``
    standing for a body without one.  ``solve`` says whether the module also
    exports ``<entry>_solve`` (:func:`_emit_solve`, ABI :attr:`solve_spec`):
    Cholesky, LDLᵀ, LU and IC(0) do.  The emitted C signatures, the ctypes
    binders, the python backend's binders and the artifacts' array checks all
    derive from this one description.
    """

    inputs: Tuple[Tuple[str, str], ...]
    outputs: Tuple[Tuple[str, str], ...]
    loops: Tuple[str, ...]
    failure: Optional[str] = None
    solve: bool = False

    @property
    def params(self) -> List[str]:
        """The C declarations of the entry's arrays, in ABI order."""
        inputs = [f"const {ctype}* {name}" for name, ctype in self.inputs]
        return inputs + [f"double* {name}" for name, _ in self.outputs]

    @property
    def names(self) -> List[str]:
        """The C names of the entry's arrays, in ABI order."""
        return [name for name, _ in (*self.inputs, *self.outputs)]

    def signature(self, name: str) -> str:
        """The C prototype of the entry point ``name``."""
        params = [*self.params, "const int64_t* const* repro_T"]
        restype = "void" if self.failure is None else "int64_t"
        return f"{restype} {name}({', '.join(params)})"

    @property
    def solve_spec(self) -> "CMethodSpec":
        """The ABI of the module's ``<entry>_solve`` (:func:`_emit_solve`): the factors and ``b`` in, ``w`` and ``x`` out."""
        factors = tuple((name, "double") for name, _ in self.outputs)
        return CMethodSpec(
            inputs=(("perm", "int64_t"), *factors, ("b", "double")), outputs=(("w", "n"), ("x", "n")), loops=()
        )

    @property
    def dtypes(self) -> List[type]:
        """The NumPy dtype of each of the entry's arrays, in ABI order."""
        return [_NUMPY_DTYPES[ctype] for _, ctype in self.inputs] + [np.float64] * len(self.outputs)

    def wrap(self, module: "CGeneratedModule", fn) -> Callable:
        """The binder of the loaded entry point ``fn``.

        ``bind(inputs, outputs)`` takes the input arrays and the output
        buffers in ABI order — checked by the caller for length, dtype and
        contiguity (:meth:`~repro.compiler.artifacts.CompiledArtifact.bind`)
        — and reads their addresses once.  It returns ``run()``, which calls
        the entry on those addresses and nothing else, and keeps the arrays
        alive.

        The table block is bound here, once: an array of the addresses of
        ``module.constants``' buffers, which the closures keep alive for as
        long as a binder or a call exists.  A call passes the block's address
        last, whatever the number of tables.

        ``run`` also carries ``run.c_call``: the entry's address and
        the argument addresses it calls it with, for a caller that calls the
        entry from C (the solver's warm step, :mod:`repro.symbolic.native`)
        while it holds ``run``.
        """
        fn.restype = None if self.failure is None else ctypes.c_int64
        fn.argtypes = [ctypes.c_void_p] * (len(self.names) + 1)
        tables = list(module.constants.values())  # contiguous int64, see tables.entry
        block = (ctypes.c_void_p * len(tables))(*(t.ctypes.data for t in tables))
        block_address = ctypes.addressof(block)
        fn_address = ctypes.cast(fn, ctypes.c_void_p).value

        def bind(inputs, outputs):
            arrays = (*inputs, *outputs)
            addresses = [a.ctypes.data for a in arrays]

            def run(_keepalive=(arrays, tables, block)):
                # _keepalive: the buffers behind the addresses must live as
                # long as the call that hands them out.
                status = fn(*addresses, block_address)
                if status:
                    self.raise_status(status)

            run.c_call = (fn_address, (*addresses, block_address))
            return run

        return bind

    def raise_status(self, status: int) -> None:
        """Raise the error of the entry's non-zero ``status``: ``MemoryError`` below 0, else ``failure``."""
        if status < 0:
            raise MemoryError("out of memory for the kernel's per-thread work buffers")
        raise ValueError(self.failure.format(column=int(status) - 1))


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


#: Per-thread work buffers, grown on demand: nothing in the generated source
#: is sized by a pattern, so one loaded kernel serves patterns of different n
#: — and calls from many threads at once (the batched runtime maps the entry
#: point over a thread pool; ctypes releases the GIL).  The three buffers are
#: carved from one block per thread (8-byte elements throughout), which is
#: freed when the thread exits, by the destructor of a pthread key (if the
#: process has run out of keys it stays until the process ends).
#: ``repro_ws_reserve`` returns the calling thread's buffers with at least the
#: given element counts, or NULL when memory runs out; it grows them into one
#: fresh block that fits the largest request seen of each.  Contents are
#: unspecified: every kernel initialises what it reads.
_WORK_BUFFERS = r"""
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


#: ``repro_ws_reserve`` arguments of each kind of work buffers, what a call
#: clears of them before its first step, and what a step binds of them.  The
#: panel store has 8 doubles of slack past its last panel, which a register
#: tile's last row block reads (:func:`_register_tile`).
_WORK = {
    "column": (
        "n, 0, 0",
        "memset(repro_ws->f, 0, n * sizeof(double));",
        ("double* const repro_f = repro_ws->f;",),
    ),
    "panel": (
        "0, n, sn_panel_total + 8",
        "",
        ("int64_t* const repro_rowmap = repro_ws->rowmap;", "double* const repro_store = repro_ws->panel;"),
    ),
}

#: A vector of four doubles (GCC / Clang vector extensions), the register tile's unit.
_V4 = "typedef double repro_v4 __attribute__((vector_size(32)));"


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
    supernodes it updates later read it.  Both updates run on one register
    tile (:func:`_register_tile`): 4 target columns x 8 rows, held as vectors
    of four doubles.

    * Each descendant ``d`` subtracts the dense block ``C(:, j) = Σ_q Pd(:,
      q) Pd(j, q)`` (LDLᵀ: ``· D``): the tile starts at ``0.0``, adds the
      products with ``q`` ascending, and is subtracted once through the row
      map.
    * The panel is then factored left-looking.  At every 4th column ``k`` the
      tile of columns ``k .. k + 3`` is loaded from the panel, subtracts
      every ``q < k`` in ascending order and is stored back; the remaining
      triangle of at most 3 columns is a column sweep (:func:`_column_sweep`)
      per column ``q``.  Each column is then scaled, by another sweep, and
      copied out into ``Lx``.

    Every entry sees the operations of the column-at-a-time loops, in the
    same order (``-ffp-contract=off`` keeps each one rounded), so the result
    is that of :func:`reference.supernodal_cholesky` to the bit.  A tile past
    the last column repeats the last one and is not stored; rows past the end
    of a panel are read from the next panel or the store's slack, and not
    stored.  A one-column supernode runs the same code.
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
    out.emit("for (int64_t j = _C_desc_i0[t]; j < _C_desc_i1[t]; j += 4) {")
    out.push()
    _register_tile(
        out, "j", "_C_desc_i1[t]", "nd",
        load="memset(acc, 0, sizeof acc);",
        panel="Pd", q_end="wd", op="+=", scale=scale.format("d0"),
        store=(
            "for (int64_t r = 0; r < 8 && i + r < nd; r++) "
            "P[(rows[j + c] - c0) * nr + repro_rowmap[rows[i + r]]] -= tile[c][r];"
        ),
    )
    out.pop()
    out.emit("}")
    out.pop()
    out.emit("}")
    out.emit("for (int64_t k = 0; k < w; k++) {")
    out.push()
    out.emit("double* pk = P + k * nr;")
    out.emit("if (k % 4 == 0 && k > 0) {")
    out.push()
    _register_tile(
        out, "k", "w", "nr",
        load="for (int c = 0; c < 4; c++) memcpy(acc[c], P + jc[c] * nr + i, sizeof acc[c]);",
        panel="P", q_end="k", op="-=", scale=scale.format("c0"),
        store="memcpy(P + (k + c) * nr + i, tile[c], (nr - i < 8 ? nr - i : 8) * sizeof(double));",
    )
    out.pop()
    out.emit("}")
    out.emit("for (int64_t q = k & ~3; q < k; q++) {")
    out.push()
    out.emit("const double* a = P + q * nr;")
    out.emit(f"double m = a[k]{scale.format('c0')};")
    _column_sweep(out, "k", "repro_v4 x; memcpy(&x, a + i, sizeof x); v -= x * m;", "pk[i] -= a[i] * m;")
    out.pop()
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
    _column_sweep(out, "k + 1", "v /= piv;", "pk[i] /= piv;")
    out.emit("memcpy(Lx + _C_l_indptr[c0 + k], pk + k, (nr - k) * sizeof(double));")
    out.pop()
    out.emit("}")


def _column_sweep(out: _CEmitter, start: str, vector: str, scalar: str) -> None:
    """``scalar`` on rows ``start .. nr - 1`` of the panel column ``pk``: four rows at a time, then one at a time.

    The four-row body loads ``pk[i .. i + 3]`` into the ``repro_v4`` ``v``,
    runs ``vector`` (which may load another column) and stores
    ``v`` back.  Every operation is elementwise, so each entry is rounded as
    in ``scalar``.  The modules are built without the compiler's
    auto-vectorizer (:func:`~repro.compiler.options._default_c_flags`): this
    is where the kernel asks for vectors.
    """
    out.emit(f"int64_t i = {start};")
    out.emit(
        "for (; i + 4 <= nr; i += 4) { repro_v4 v; memcpy(&v, pk + i, sizeof v); "
        f"{vector} memcpy(pk + i, &v, sizeof v); }}"
    )
    out.emit(f"for (; i < nr; i++) {scalar}")


def _register_tile(
    out: _CEmitter, j: str, end: str, rows: str, *, load: str, panel: str, q_end: str, op: str, scale: str, store: str
) -> None:
    """Columns ``j .. j + 3`` (those below ``end``) x rows ``j .. rows - 1``, as 4 x 8 register tiles.

    Row block ``i`` sets the accumulators ``acc[c]`` (two ``repro_v4`` per
    column) with ``load``.  Then for ``q`` ascending up to ``q_end``, with
    ``a`` column ``q`` of ``panel`` (leading dimension ``rows``), it applies
    ``acc[c] op a[i .. i + 7] * (a[jc[c]] scale)``.  Last, ``store`` runs for
    each of the ``nc`` columns that exist, with the tile in ``tile[c][r]``.
    A column past ``end`` repeats the last one (``jc``), and rows past
    ``rows`` are read and not stored.
    """
    out.emit(f"int64_t nc = {end} - {j} < 4 ? {end} - {j} : 4, jc[4];")
    out.emit(f"for (int c = 0; c < 4; c++) jc[c] = {j} + (c < nc ? c : nc - 1);")
    out.emit(f"for (int64_t i = {j}; i < {rows}; i += 8) {{")
    out.push()
    out.emit("repro_v4 acc[4][2], x[2];")
    out.emit(load)
    out.emit(f"for (int64_t q = 0; q < {q_end}; q++) {{")
    out.emit(f"    const double* a = {panel} + q * {rows};")
    out.emit("    memcpy(x, a + i, sizeof x);")
    out.emit("    for (int c = 0; c < 4; c++) {")
    out.emit(f"        double m = a[jc[c]]{scale};")
    out.emit(f"        acc[c][0] {op} x[0] * m;")
    out.emit(f"        acc[c][1] {op} x[1] * m;")
    out.emit("    }")
    out.emit("}")
    out.emit("double tile[4][8];")
    out.emit("memcpy(tile, acc, sizeof tile);")
    out.emit("for (int64_t c = 0; c < nc; c++)")
    out.emit(f"    {store}")
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


#: The sweeps of the solve entry (:func:`_emit_solve`).  ``REPRO_PIVOT(v, d)``
#: is ``v / d``, or ``v`` for a unit diagonal (LDLᵀ, LU): that quotient would be
#: exact.  The column forms walk every column of ``L``, reading its own rows;
#: backward, a column's products, from the last row up, alternate between two
#: accumulators (``w[c]`` and ``0.0``), added at the end.
_COLUMN_FORWARD = r"""
for (int64_t c = 0; c < n; c++) {
    const int64_t p0 = _C_l_indptr[c], p1 = _C_l_indptr[c + 1];
    const double xc = REPRO_PIVOT(w[c], Lx[p0]);
    w[c] = xc;
    for (int64_t p = p0 + 1; p < p1; p++) w[_C_l_indices[p]] -= Lx[p] * xc;
}"""
_COLUMN_BACKWARD = r"""
for (int64_t c = n - 1; c >= 0; c--) {
    const int64_t p0 = _C_l_indptr[c];
    int64_t p = _C_l_indptr[c + 1] - 1;
    double a0 = w[c], a1 = 0.0;
    for (; p > p0 + 1; p -= 2) {
        a0 -= Lx[p] * w[_C_l_indices[p]];
        a1 -= Lx[p - 1] * w[_C_l_indices[p - 1]];
    }
    if (p > p0) a0 -= Lx[p] * w[_C_l_indices[p]];
    w[c] = REPRO_PIVOT(a0 + a1, Lx[p0]);
}"""
_U_BACKWARD = r"""
for (int64_t c = n - 1; c >= 0; c--) {
    const int64_t u0 = _C_u_indptr[c], u1 = _C_u_indptr[c + 1] - 1;
    const double xc = w[c] / Ux[u1];
    w[c] = xc;
    for (int64_t p = u0; p < u1; p++) w[_C_u_indices[p]] -= Ux[p] * xc;
}"""
#: The supernodal forms walk the supernodes two columns at a time.  Every
#: column of a supernode has the rows of its first one from its own position
#: on (``R``, ``nr`` of them): ``L0[i]`` / ``L1[i]`` is the entry of column
#: ``k`` / ``k + 1`` in row ``R[i]``.  Forward, a pair solves its 2 x 2
#: triangle, then every row below it subtracts both updates, column ``k``'s
#: first; backward, two accumulators subtract the rows below the pair from
#: the last up, one read of ``w`` for both, then the pair finishes, column
#: ``k + 1`` first.  A supernode of odd width runs its first column alone.
_SUPERNODE_FORWARD = r"""
for (int64_t s = 0; s < n_super; s++) {
    const int64_t c0 = _C_sup_start[s], width = _C_sup_end[s] - c0;
    const int64_t* R = _C_l_indices + _C_l_indptr[c0];
    const int64_t nr = _C_l_indptr[c0 + 1] - _C_l_indptr[c0];
    int64_t k = 0;
    for (; k + 2 <= width; k += 2) {
        const double* L0 = Lx + _C_l_indptr[c0 + k] - k;
        const double* L1 = Lx + _C_l_indptr[c0 + k + 1] - (k + 1);
        const double x0 = REPRO_PIVOT(w[c0 + k], L0[k]);
        const double x1 = REPRO_PIVOT(w[c0 + k + 1] - L0[k + 1] * x0, L1[k + 1]);
        w[c0 + k] = x0;
        w[c0 + k + 1] = x1;
        for (int64_t i = k + 2; i < nr; i++) w[R[i]] = w[R[i]] - L0[i] * x0 - L1[i] * x1;
    }
    if (k < width) {
        const double* L0 = Lx + _C_l_indptr[c0 + k] - k;
        const double x0 = REPRO_PIVOT(w[c0 + k], L0[k]);
        w[c0 + k] = x0;
        for (int64_t i = k + 1; i < nr; i++) w[R[i]] -= L0[i] * x0;
    }
}"""
_SUPERNODE_BACKWARD = r"""
for (int64_t s = n_super - 1; s >= 0; s--) {
    const int64_t c0 = _C_sup_start[s], width = _C_sup_end[s] - c0;
    const int64_t* R = _C_l_indices + _C_l_indptr[c0];
    const int64_t nr = _C_l_indptr[c0 + 1] - _C_l_indptr[c0];
    int64_t k = width - 2;
    for (; k >= 0; k -= 2) {
        const double* L0 = Lx + _C_l_indptr[c0 + k] - k;
        const double* L1 = Lx + _C_l_indptr[c0 + k + 1] - (k + 1);
        double a0 = w[c0 + k], a1 = w[c0 + k + 1];
        for (int64_t i = nr - 1; i > k + 1; i--) {
            const double wi = w[R[i]];
            a0 -= L0[i] * wi;
            a1 -= L1[i] * wi;
        }
        a1 = REPRO_PIVOT(a1, L1[k + 1]);
        w[c0 + k] = REPRO_PIVOT(a0 - L0[k + 1] * a1, L0[k]);
        w[c0 + k + 1] = a1;
    }
    if (k == -1) {
        const double* L0 = Lx + _C_l_indptr[c0];
        double a0 = w[c0];
        for (int64_t i = nr - 1; i > 0; i--) a0 -= L0[i] * w[R[i]];
        w[c0] = REPRO_PIVOT(a0, L0[0]);
    }
}"""


def _emit_solve(out: _CEmitter, signature: str, domain: DomainLoop) -> None:
    """Print the solve entry: ``x`` solving ``A x = b`` on the factors the entry wrote, in place.

    ``A`` is the matrix whose symmetric permutation by ``perm`` the entry
    factorized (for IC(0), ``L Lᵀ`` stands for ``A``: the entry applies the
    preconditioner).  ``w = b[perm]``; the forward sweep on ``L``, columns
    ascending, each pushing its updates to the rows below it; ``÷ D``
    (LDLᵀ); the backward sweep, columns descending: on ``Lᵀ`` in dot form,
    each column subtracting its entries times ``w`` from the last row up, or
    on ``U`` in push form with its pivot last (LU); ``x[perm] = w``.  ``b``
    is read whole before ``x`` is written, so ``x`` may be ``b``.  The
    backward sweep runs two chains of subtractions side by side: two columns
    of a supernode where VS-Block took the factorization (both sweeps then
    walk the supernodes, and every entry of ``w`` sees the operations of the
    column sweeps, in their order), else alternate entries of a column.
    """
    supernodal = domain.role == "supernodal-cholesky"
    if domain.factor_kind == "lu":
        backward = _U_BACKWARD
    else:
        backward = _SUPERNODE_BACKWARD if supernodal else _COLUMN_BACKWARD
    body = [
        "REPRO_BIND_TABLES",
        "for (int64_t i = 0; i < n; i++) w[i] = b[perm[i]];",
        *(_SUPERNODE_FORWARD if supernodal else _COLUMN_FORWARD).strip().splitlines(),
        *(["for (int64_t i = 0; i < n; i++) w[i] /= D[i];"] if domain.factor_kind == "ldlt" else []),
        *backward.strip().splitlines(),
        "for (int64_t i = 0; i < n; i++) x[perm[i]] = w[i];",
    ]
    out.emit(signature + " {")
    out.push()
    for line in body:
        out.emit(line)
    out.pop()
    out.emit("}")
    out.emit("")


@dataclass(frozen=True)
class _Loop:
    """How one domain loop is printed (see :meth:`CBackend.generate`).

    ``extent`` is the number of steps and ``index`` the step variable;
    ``preamble`` initialises the outputs before the first step; ``step``
    prints the body of one step from the planned :class:`DomainLoop` (``None``
    for an untransformed kernel); ``work`` is the kind of work buffers
    (:data:`_WORK`) a step reads.
    """

    extent: str
    preamble: Tuple[str, ...]
    step: Callable[[_CEmitter, Optional[DomainLoop]], None]
    index: str = "j"
    work: Optional[str] = None


_X_IS_B = ("for (int64_t i = 0; i < n; i++) x[i] = b[i];",)
_ZERO_LX = "memset(Lx, 0, nnz_l * sizeof(double));"

#: The printer of every domain loop, by role (``"untransformed"``: no domain loop).
_LOOPS: Dict[str, _Loop] = {
    "untransformed": _Loop("n", _X_IS_B, lambda out, domain: _column_solve(out)),
    "trisolve-segments": _Loop("n_seg", _X_IS_B, _segment_step, index="s"),
    "simplicial-cholesky": _Loop("n", (_ZERO_LX,), _cholesky_step, work="column"),
    "supernodal-cholesky": _Loop("n_super", (_ZERO_LX,), _supernode_step, index="s", work="panel"),
    "simplicial-lu": _Loop("n", (_ZERO_LX, "memset(Ux, 0, nnz_u * sizeof(double));"), _lu_step, work="column"),
    "incomplete-cholesky": _Loop(
        "n", ("for (int64_t i = 0; i < nnz_l; i++) Lx[i] = Ax[_C_a_lower_pos[i]];",), _ic0_step
    ),
}

#: What ``parallel="wavefront"`` records under ``decisions["wavefront"]``:
#: the serial kernel, whatever the method.  Kept for its one caller, the
#: wavefront rung of ``benchmarks/e2e``'s ladder.
_SERIAL_FALLBACK = {"mode": "serial-fallback", "fallback_reason": "no-schedule"}


class CBackend:
    """Generate and compile specialized C code from a planned domain loop."""

    name = "c"

    def __init__(
        self,
        compiler: str = "cc",
        flags: Optional[Tuple[str, ...]] = None,
    ) -> None:
        self.compiler = compiler
        self.flags = _default_c_flags() if flags is None else tuple(flags)

    # ------------------------------------------------------------------ #
    def generate(self, domain: Optional[DomainLoop], spec: KernelSpec, entry: str, context) -> CGeneratedModule:
        """The :class:`CGeneratedModule` of kernel ``spec`` running ``domain`` (``None``: the untransformed loop).

        It holds the step function and the entry point ``entry`` (and, for a
        direct factorization or IC(0), ``{entry}_solve``).
        ``parallel="wavefront"`` compiles this same source: it only records
        ``decisions["wavefront"]`` (:data:`_SERIAL_FALLBACK`).
        """
        start = time.perf_counter()
        abi = spec.abi
        loop = _LOOPS["untransformed" if domain is None else domain.role]
        if context.options.parallel == "wavefront":
            context.decisions["wavefront"] = dict(_SERIAL_FALLBACK)
        contract = ({}, {}) if domain is None else domain.contract
        constants = tables.block(context.inspection.n, contract)
        dims = ["n", *contract[0]]

        code = _CEmitter()
        self._emit_step(code, f"{entry}_step", loop, domain, abi)
        code.emit(abi.signature(entry) + " {")
        code.push()
        code.emit("REPRO_BIND_TABLES")
        for line in loop.preamble:
            code.emit(line)
        self._emit_serial_loop(code, entry, loop, abi)
        code.pop()
        code.emit("}")
        solve_line = len(code.lines)
        if abi.solve:
            _emit_solve(code, abi.solve_spec.signature(f"{entry}_solve"), domain)

        # The runtimes go in when the emitted code calls them.
        text = "\n".join(code.lines)
        work_buffers = "repro_ws" in text
        out = _CEmitter()
        out.emit("/* Sympiler-generated kernel (C backend). */")
        out.emit("#include <stdint.h>")
        out.emit("#include <math.h>")
        out.emit("#include <string.h>")
        if work_buffers:
            out.emit("#include <stdlib.h>")
            out.emit("#include <pthread.h>")
        out.emit("")
        # The inspection sets and sizes this code names, bound at the top of
        # every function from the table block its caller passes down.
        bind = [f"const int64_t* const {name} = repro_T[{k}];" for k, name in enumerate(constants)]
        bind += [f"const int64_t {name} = _C_dims[{k}];" for k, name in enumerate(dims)]
        out.emit("#define REPRO_BIND_TABLES \\")
        out.lines.extend(f"    {line} \\" for line in bind[:-1])
        out.emit(f"    {bind[-1]}")
        if abi.solve:
            divides = domain.factor_kind in ("llt", "ic0")
            out.emit("#define REPRO_PIVOT(v, d) " + ("((v) / (d))" if divides else "(v)"))
        prologue_line = len(out.lines)
        if work_buffers:
            out.emit(_WORK_BUFFERS)
        if "repro_v4" in text:
            out.emit(_V4)
        out.emit("")
        solve_line += len(out.lines)
        out.lines.extend(code.lines)
        source = out.source()
        parts: Tuple[Tuple[Tuple[int, int], ...], ...] = ()
        if abi.solve:
            # Two translation units of the same text: the work buffers, the
            # step and the entry; the includes and macros again, then the solve.
            prologue, solve = (len("\n".join(out.lines[:k])) + 1 for k in (prologue_line, solve_line))
            parts = (((0, solve),), ((0, prologue), (solve, len(source))))
        codegen_seconds = time.perf_counter() - start
        return CGeneratedModule(
            source=source,
            entry_name=entry,
            constants=constants,
            method=spec.name,
            abi=abi,
            codegen_seconds=codegen_seconds,
            compiler=self.compiler,
            flags=self.flags,
            n=int(context.inspection.n),
            parts=parts,
        )

    @staticmethod
    def _emit_step(out: _CEmitter, name: str, loop: _Loop, domain: Optional[DomainLoop], abi: CMethodSpec) -> None:
        """Print ``static inline int64_t {name}(int64_t j, <the entry's arrays>, repro_T)``: one step of ``loop``.

        It returns 0, or the failing column + 1.
        """
        params = ", ".join(abi.params)
        out.emit(f"static inline int64_t {name}(int64_t {loop.index}, {params}, const int64_t* const* repro_T) {{")
        out.push()
        out.emit("REPRO_BIND_TABLES")
        for line in _WORK[loop.work][2] if loop.work else ():
            out.emit(line)
        loop.step(out, domain)
        out.emit("return 0;")
        out.pop()
        out.emit("}")
        out.emit("")

    @staticmethod
    def _emit_serial_loop(out: _CEmitter, entry: str, loop: _Loop, abi: CMethodSpec) -> None:
        """Reserve and clear this thread's work buffers, then run every step in order."""
        if loop.work:
            reserve, clear, _ = _WORK[loop.work]
            out.emit(f"if (!repro_ws_reserve({reserve})) return -1;")
            if clear:
                out.emit(clear)
        i = loop.index
        head = f"for (int64_t {i} = 0; {i} < {loop.extent}; {i}++)"
        call = f"{entry}_step({i}, {', '.join(abi.names)}, repro_T)"
        if abi.failure is None:
            out.emit(f"{head} {call};")
            return
        out.emit(f"{head} {{")
        out.push()
        out.emit(f"int64_t st = {call};")
        out.emit("if (st) return st;")
        out.pop()
        out.emit("}")
        out.emit("return 0;")
