"""ctypes binding of the native symbolic helper (``native.c``).

The ordering and the inspectors spend their time in graph traversals that
interpreted Python runs 20-50x slower than C.  ``native.c`` is one fixed,
hand-written source holding those traversals; this module builds it once per
toolchain, loads it lazily and exposes each entry point as a method taking
and returning ``int64`` NumPy arrays.  ctypes releases the GIL around every
call.

The public symbolic functions (``minimum_degree_ordering``,
``elimination_tree``, ``cholesky_pattern``, ``reach_set``, ...) ask
:func:`helper` for the binding and run their Python reference when it answers
``None`` — no compiler, a failed or hung compile, an unloadable object.  Every
native result is ``np.array_equal`` to the reference result, so which of the
two ran is invisible in every permutation, inspection set, fingerprint and
factor; only the set-up time differs.

The shared object lives in ``<tempdir>/repro-native-<uid>/``, named by the
hash of source, compiler and flags.  It is toolchain, like ``cc`` itself, not
a compiled artifact: it is deliberately *not* under ``REPRO_SYMPILER_CACHE``
and touches no ``disk_cache_stats()`` counter, so everything that counts or
sizes generated code reads as it would without it.

Arguments are validated here, before any pointer reaches C: a non-monotone
``indptr`` or an out-of-range index raises ``ValueError``.

The helper also hosts the one numeric entry point, ``repro_warm_step``: a
direct solver's whole warm step — pattern check, value check, gather,
factorization and solve — in one call into the solver's generated module
(:meth:`NativeSymbolic.bind_warm_step`, bound by
:class:`~repro.solvers.linear_solver.SparseLinearSolver` at construction).
Without the helper, ``SparseLinearSolver.step`` composes the same step in
Python, call by call, to the same bits.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import tempfile
import threading
from typing import Callable, Optional, Tuple

import numpy as np

from repro.observe.events import emit as emit_event

__all__ = ["NativeSymbolic", "helper"]

_SOURCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "native.c")

#: Fixed and portable: graph code gains nothing from ``-march=native``, and
#: the object may be found again by a process on another CPU of the same host.
_FLAGS = ("-O2", "-fPIC", "-shared")

#: The helper compiles in well under a second; a ``cc`` still running after
#: this long is hung, and the process carries on with the Python reference.
_CC_TIMEOUT_SECONDS = 120.0


class _Unavailable(Exception):
    """The helper cannot be had; ``reason`` is the event's closed vocabulary."""

    def __init__(self, reason: str, detail: str) -> None:
        super().__init__(detail)
        self.reason = reason


def _load_library() -> ctypes.CDLL:
    """Build the helper if this toolchain has not yet, and load it."""
    # Deferred: repro.compiler imports the inspectors, which import this module.
    from repro.compiler.cache import build_and_load

    compiler = os.environ.get("REPRO_CC", "cc")
    if shutil.which(compiler) is None:
        raise _Unavailable("no compiler", f"C compiler {compiler!r} not found")
    try:
        with open(_SOURCE_PATH, "rb") as fh:
            source = fh.read()
    except OSError as exc:
        raise _Unavailable("compile error", f"helper source missing: {exc}") from exc
    toolchain = f"\0{compiler} {' '.join(_FLAGS)}".encode()
    digest = hashlib.sha256(source + toolchain).hexdigest()[:16]
    directory = os.path.join(tempfile.gettempdir(), f"repro-native-{os.getuid()}")
    try:
        os.makedirs(directory, mode=0o700, exist_ok=True)
        # The temp dir is shared: never load code from a directory someone
        # else could have made under our name.
        if os.stat(directory).st_uid != os.getuid():
            raise _Unavailable("unloadable", f"{directory} belongs to another user")
    except OSError as exc:
        raise _Unavailable("unloadable", f"{directory}: {exc}") from exc
    return build_and_load(
        os.path.join(directory, f"symbolic_{digest}.so"),
        lambda out: [compiler, *_FLAGS, "-o", out, _SOURCE_PATH],
        span_name="native-build",
        span_attrs={"compiler": compiler, "source_bytes": len(source)},
        timeout_seconds=_CC_TIMEOUT_SECONDS,
        error=_Unavailable,
    )


class _Loader:
    """Builds and loads the helper at most once; remembers that it could not."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._settled = False
        self._native: Optional[NativeSymbolic] = None

    def get(self) -> Optional["NativeSymbolic"]:
        if not self._settled:
            with self._lock:
                if not self._settled:
                    try:
                        self._native = NativeSymbolic(_load_library())
                    except _Unavailable as exc:
                        # Once per process, never per call, never an exception.
                        emit_event("native_symbolic_unavailable", reason=exc.reason, detail=str(exc))
                    self._settled = True
        return self._native


_LOADER = _Loader()


def helper() -> Optional["NativeSymbolic"]:
    """The loaded helper, or ``None`` when this process runs the references.

    The first call builds (or finds) and loads the shared object; a failure
    is reported once, as a ``native_symbolic_unavailable`` event, and every
    later call answers ``None`` at once.
    """
    return _LOADER.get()


# --------------------------------------------------------------------------- #
# Argument validation
# --------------------------------------------------------------------------- #
def _int64(array) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.int64)


def _pattern(n_cols: int, indptr, indices, n_rows: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` as contiguous int64 of a well-formed pattern."""
    indptr, indices = _int64(indptr), _int64(indices)
    if n_cols < 0 or n_rows < 0 or indptr.shape != (n_cols + 1,) or indices.ndim != 1:
        raise ValueError(f"indptr must have length n + 1 = {n_cols + 1}")
    if indptr[0] != 0 or indptr[-1] != indices.size or (np.diff(indptr) < 0).any():
        raise ValueError("indptr must rise monotonically from 0 to len(indices)")
    return indptr, _indices_below(n_rows, indices, "row index")


def _indices_below(n: int, indices, what: str) -> np.ndarray:
    """``indices`` as contiguous int64, every one of them in ``[0, n)``."""
    indices = _int64(indices)
    if indices.size and (indices.min() < 0 or indices.max() >= n):
        raise ValueError(f"{what} out of range [0, {n})")
    return indices


def _parent(parent) -> np.ndarray:
    parent = _int64(parent)
    if parent.ndim != 1 or (parent.size and (parent.min() < -1 or parent.max() >= parent.size)):
        raise ValueError("parent entries must lie in [-1, n)")
    return parent


#: ``repro_warm_step``'s outcomes; any other status is the kernel's own.
WARM_SOLVED, WARM_REFACTORED, WARM_OTHER_PATTERN, WARM_NONFINITE = 0, -2, -3, -4


class _WarmBlock(ctypes.Structure):
    """``repro_warm_t`` of ``native.c``, field for field: one solver's entries, their arguments and its arrays."""

    _fields_ = [
        ("kernel", ctypes.c_void_p),
        ("kernel_arity", ctypes.c_int64),
        ("kernel_args", ctypes.c_void_p * 6),
        ("solve", ctypes.c_void_p),
        ("solve_arity", ctypes.c_int64),
        ("solve_args", ctypes.c_void_p * 7),
        ("n", ctypes.c_int64),
        ("nnz", ctypes.c_int64),
        ("snapshot", ctypes.c_void_p),
        ("gather", ctypes.c_void_p),
        ("permuted", ctypes.c_void_p),
        ("b", ctypes.c_void_p),
    ]


_I64 = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
_OUT = ctypes.POINTER(ctypes.POINTER(ctypes.c_int64))
_N = ctypes.c_int64
_SIGNATURES = {
    "repro_sym_minimum_degree": (_N, (_N, _I64, _I64, _I64)),
    "repro_sym_etree": (None, (_N, _N, _I64, _I64, _N, _I64, _I64)),
    "repro_sym_postorder": (_N, (_N, _I64, _I64, _I64)),
    "repro_sym_factor_counts": (_N, (_N, _I64, _I64, _I64, _I64, _I64, _I64)),
    "repro_sym_factor_pattern": (None, (_N,) + (_I64,) * 8),
    "repro_sym_lu_pattern": (_N, (_N, _I64, _I64, _I64, _I64, _OUT, _OUT)),
    "repro_sym_free": (None, (ctypes.c_void_p,)),
    "repro_sym_reach": (_N, (_N, _I64, _I64, _N, _I64, _I64, _I64)),
}


def _empty(size: int) -> np.ndarray:
    return np.empty(size, dtype=np.int64)


class NativeSymbolic:
    """The entry points of ``native.c`` over validated NumPy arrays."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._lib = lib
        try:
            # repro_sym_<name> becomes the private method self._<name>.
            for name, (restype, argtypes) in _SIGNATURES.items():
                fn = getattr(lib, name)
                fn.restype = restype
                fn.argtypes = list(argtypes)
                setattr(self, "_" + name[len("repro_sym_") :], fn)
            self._warm_step = lib.repro_warm_step
        except AttributeError as exc:
            raise _Unavailable("unloadable", f"missing entry point: {exc}") from exc
        self._warm_step.restype = ctypes.c_int64
        self._warm_step.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_int64] * 2 + [ctypes.c_void_p] * 4

    # ------------------------------------------------------------------ #
    def bind_warm_step(self, kernel, solve, *, snapshot, gather, permuted, b) -> Optional[Callable]:
        """``repro_warm_step`` bound to one solver, or ``None`` when its entries are not C.

        ``kernel`` and ``solve`` are the solver's bound factorization and
        solve entry (their ``c_call``: address and arguments).  ``snapshot``
        and ``gather`` (input order), ``permuted`` (the kernel's ``Ax``) and
        ``b`` (the solve entry's) are the solver's own contiguous arrays,
        which the step fills; the solve entry writes its ``x`` as bound.
        Returns ``step(values, b, refactor, index_bytes, indptr, indices,
        ref_indptr, ref_indices) -> status`` over raw addresses
        (``index_bytes`` 0 and ``None`` pointers: no pattern check), which
        keeps every array behind them alive.
        """
        kernel_call, solve_call = getattr(kernel, "c_call", None), getattr(solve, "c_call", None)
        if kernel_call is None or solve_call is None:
            return None
        (kernel_fn, kernel_args), (solve_fn, solve_args) = kernel_call, solve_call
        if len(kernel_args) not in (5, 6) or len(solve_args) not in (6, 7):
            return None
        owned = ((snapshot, np.float64), (gather, np.int64), (permuted, np.float64), (b, np.float64))
        if not all(a.dtype == dtype and a.flags.c_contiguous for a, dtype in owned):
            return None
        block = _WarmBlock(
            kernel=kernel_fn,
            kernel_arity=len(kernel_args),
            solve=solve_fn,
            solve_arity=len(solve_args),
            n=len(b),
            nnz=len(snapshot),
            snapshot=snapshot.ctypes.data,
            gather=gather.ctypes.data,
            permuted=permuted.ctypes.data,
            b=b.ctypes.data,
        )
        block.kernel_args[: len(kernel_args)] = kernel_args
        block.solve_args[: len(solve_args)] = solve_args
        block.keepalive = (kernel, solve, snapshot, gather, permuted, b)
        # byref(block) holds the block, and the block everything it points into.
        return functools.partial(self._warm_step, ctypes.byref(block))

    # ------------------------------------------------------------------ #
    def minimum_degree(self, n: int, indptr, indices) -> np.ndarray:
        """Exact minimum-degree order of a symmetric pattern (ties: smallest)."""
        indptr, indices = _pattern(n, indptr, indices, n)
        perm = _empty(n)
        status = self._minimum_degree(n, indptr, indices, perm)
        if status == -1:
            raise MemoryError("out of memory in the native minimum-degree ordering")
        if status:
            raise ValueError("minimum degree needs a structurally symmetric pattern")
        return perm

    def etree(self, n: int, indptr, indices) -> np.ndarray:
        """Elimination tree; column ``k`` must hold its entries with ``i < k``."""
        indptr, indices = _pattern(n, indptr, indices, n)
        parent = _empty(n)
        self._etree(n, n, indptr, indices, 0, parent, _empty(n))
        return parent

    def column_etree(self, n_rows: int, n_cols: int, indptr, indices) -> np.ndarray:
        """Elimination tree of ``AᵀA`` without forming it."""
        indptr, indices = _pattern(n_cols, indptr, indices, n_rows)
        parent = _empty(n_cols)
        self._etree(n_rows, n_cols, indptr, indices, 1, parent, _empty(n_cols + n_rows))
        return parent

    def postorder(self, parent) -> np.ndarray:
        """Postorder of a forest, children and roots ascending."""
        parent = _parent(parent)
        n = parent.size
        post = _empty(n)
        if self._postorder(n, parent, post, _empty(3 * n)) != n:
            raise ValueError("parent array does not describe a forest (cycle detected)")
        return post

    def _factor_arguments(self, n: int, indptr, indices, parent):
        indptr, indices = _pattern(n, indptr, indices, n)
        parent = _parent(parent)
        if parent.size != n:
            raise ValueError("parent must have one entry per column")
        row_ptr, l_indptr = _empty(n + 1), _empty(n + 1)
        self._factor_counts(n, indptr, indices, parent, row_ptr, l_indptr, _empty(n))
        return indptr, indices, parent, row_ptr, l_indptr

    def factor_counts(self, n: int, indptr, indices, parent) -> Tuple[np.ndarray, np.ndarray]:
        """``(row_ptr, l_indptr)``: the size of every row and column of ``L``."""
        return self._factor_arguments(n, indptr, indices, parent)[3:]

    def factor_pattern(self, n: int, indptr, indices, parent) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(row_ptr, row_idx, l_indptr, l_indices)`` of the Cholesky factor.

        Rows are the ``ereach`` of every row in CSR form (ascending, diagonal
        excluded); columns are the pattern of ``L`` (ascending, diagonal
        first).  ``(indptr, indices)`` holds the upper triangle by columns.
        """
        indptr, indices, parent, row_ptr, l_indptr = self._factor_arguments(n, indptr, indices, parent)
        row_idx, l_indices = _empty(int(row_ptr[-1])), _empty(int(l_indptr[-1]))
        self._factor_pattern(n, indptr, indices, parent, row_ptr, l_indptr, row_idx, l_indices, _empty(2 * n))
        return row_ptr, row_idx, l_indptr, l_indices

    def lu_pattern(self, n: int, indptr, indices) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(l_indptr, l_indices, u_indptr, u_indices)`` of no-pivot LU."""
        indptr, indices = _pattern(n, indptr, indices, n)
        l_indptr, u_indptr = _empty(n + 1), _empty(n + 1)
        l_block = ctypes.POINTER(ctypes.c_int64)()
        u_block = ctypes.POINTER(ctypes.c_int64)()
        if self._lu_pattern(n, indptr, indices, l_indptr, u_indptr, ctypes.byref(l_block), ctypes.byref(u_block)):
            raise MemoryError("out of memory in the native LU pattern")
        try:
            l_indices = np.ctypeslib.as_array(l_block, shape=(int(l_indptr[-1]),)).copy()
            u_indices = np.ctypeslib.as_array(u_block, shape=(int(u_indptr[-1]),)).copy()
            return l_indptr, l_indices, u_indptr, u_indices
        finally:
            self._free(l_block)
            self._free(u_block)

    def reach(self, n: int, indptr, indices, sources) -> np.ndarray:
        """Columns reachable from ``sources`` in DG_L, dependency-first."""
        indptr, indices = _pattern(n, indptr, indices, n)
        sources = _indices_below(n, sources, "right-hand-side index")
        out = _empty(n)
        top = self._reach(n, indptr, indices, sources.size, sources, out, _empty(3 * n))
        return out[top:].copy()
