"""The lazy-specializing front end: ``repro.solve(A, b)`` over the stack.

This is the SEJITS ``LazySpecializedFunction`` pattern applied to the whole
compiled-kernel pipeline: the **first** call with a given argument
configuration — sparsity structure, source dtype, options, requested method,
ordering — runs the expensive path (structural probes, kernel auto-selection,
ordering, symbolic inspection, code generation), and every later call with
the same configuration is pure numeric execution:

* same structure *and* same values → the cached factors solve immediately
  (the factorization's solve entry, nothing else),
* same structure, new values → one numeric re-factorization through the
  already-compiled kernel (``CSCMatrix.with_values`` semantics — zero
  inspection, zero codegen), then the solve entry,
* new structure → a fresh specialization, cached alongside the others.

On the C backend the first two are one native call each, which checks the
pattern and the values first (:meth:`SparseLinearSolver.step`).

Every compile needs a C toolchain.  Where a direct route's compile raises
:class:`~repro.compiler.codegen.c_backend.CCompilationError` — no compiler at
``REPRO_CC``, a native symbolic helper that does not build, a kernel build
that fails — the route is answered through ``scipy.sparse.linalg.splu``
instead, with one warning per front end naming the error: the same three
cases (refactorized only when the values change), recorded as the method
``"splu"``.  The ``pcg`` route raises the error, and caches nothing.

:class:`SpecializedSolver` is the object form (own cache, own counters);
:func:`solve` is the module-level convenience over one process-wide default
instance; :func:`sympiled` decorates a *system-producing* function
(returning ``(A, b)`` in any ingestible form) into a solve returning ``x``,
with a private specialization cache per decorated function.

Every compiled route is bitwise identical to the corresponding explicit API —
``SparseLinearSolver(A, method=...)`` for the direct routes,
:func:`~repro.solvers.cg.preconditioned_conjugate_gradient` for ``pcg`` —
because it *is* that API underneath, reached through the same shared
artifact cache.
"""

from __future__ import annotations

import ctypes
import threading
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.compiler.codegen.c_backend import CCompilationError
from repro.compiler.options import SympilerOptions
from repro.compiler.sympiler import Sympiler
from repro.frontend.ingest import IngestedMatrix, ingest, structure_fingerprint
from repro.frontend.probes import AUTO_METHODS, ProbeReport, probe_structure
from repro.observe import trace as observe_trace
from repro.solvers.linear_solver import OTHER_PATTERN, SparseLinearSolver
from repro.sparse.csc import CSCMatrix
from repro.sparse.utils import require_finite_values, require_real

__all__ = ["SpecializedSolver", "FrontendStats", "solve", "sympiled", "default_frontend"]


@dataclass
class FrontendStats:
    """Counters of one :class:`SpecializedSolver` (mutated under its lock).

    ``specializations`` counts full first-call pipelines (probe + compile);
    ``structure_hits`` counts calls served from the specialization cache
    (no probe, no inspection, no codegen); ``refactorizations`` counts
    numeric-only re-factorizations (same structure, new values);
    ``value_hits`` counts solves that reused the cached factors outright;
    ``cholesky_escapes`` counts SPD-heuristic misdetections caught by the
    try-Cholesky-fall-back-to-LDLᵀ escape.

    The *default* front end's instance of these counters is also visible
    through the unified observability layer as the ``frontend`` collector in
    :func:`repro.observe.snapshot` (Prometheus: ``repro_frontend_*``); this
    class remains the mutation surface.
    """

    specializations: int = 0
    structure_hits: int = 0
    refactorizations: int = 0
    value_hits: int = 0
    cholesky_escapes: int = 0
    methods: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly snapshot."""
        return {
            "specializations": self.specializations,
            "structure_hits": self.structure_hits,
            "refactorizations": self.refactorizations,
            "value_hits": self.value_hits,
            "cholesky_escapes": self.cholesky_escapes,
            "methods": dict(self.methods),
        }


@dataclass(eq=False)
class _Specialization:
    """One cached argument configuration and its compiled state (hashed by identity)."""

    #: ``(shape, nnz, source dtype, requested method)``: where
    #: :meth:`SpecializedSolver._find` looks for this specialization.
    repeat_key: tuple
    method: str
    probe: Optional[ProbeReport]
    #: The direct solver: a :class:`SparseLinearSolver`, or a
    #: :class:`_SpluSolver` without a toolchain (``None`` for the ``pcg``
    #: route, which owns no complete factorization — its compiled IC(0)
    #: artifact lives in the shared artifact cache keyed by the same pattern).
    solver: object
    #: Pattern-carrying CSC of the specialization (pcg route re-binds values
    #: onto it with ``with_values``).
    pattern: CSCMatrix
    #: True when the SPD heuristic chose Cholesky but numeric factorization
    #: broke down and the specialization fell back to LDLᵀ.
    escaped_to_ldlt: bool = False
    #: Private copies of the pattern's arrays: a later input whose arrays
    #: equal them is this pattern, whatever the caller did since to the
    #: object the specialization was built from.
    indptr: np.ndarray = field(init=False, repr=False)
    indices: np.ndarray = field(init=False, repr=False)
    #: The same copies as ``int32`` — scipy's index dtype — when the pattern
    #: fits in it, else ``None``: an ``int32`` input is compared in its own
    #: dtype, without promoting its ``nnz(A)`` indices on every call.
    narrow: Optional[tuple] = field(init=False, repr=False)
    #: The addresses of those copies by index width in bytes (8: the
    #: ``int64`` copies, 4: ``narrow``), for the native step's pattern check;
    #: empty without a direct solver that steps natively.
    addresses: Dict[int, tuple] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.indptr = self.pattern.indptr.copy()
        self.indices = self.pattern.indices.copy()
        fits = max(len(self.indices), self.pattern.n_rows) <= np.iinfo(np.int32).max
        self.narrow = (self.indptr.astype(np.int32), self.indices.astype(np.int32)) if fits else None
        self.addresses = {}
        if isinstance(self.solver, SparseLinearSolver) and self.solver._warm is not None:
            self.addresses[8] = (self.indptr.ctypes.data, self.indices.ctypes.data)
            if self.narrow is not None:
                self.addresses[4] = (self.narrow[0].ctypes.data, self.narrow[1].ctypes.data)

    def is_pattern_of(self, A) -> bool:
        """True when ``A``'s ``indptr`` / ``indices`` equal this pattern's (exactly, in any dtype)."""
        indptr, indices = self.indptr, self.indices
        if self.narrow is not None and A.indices.dtype == np.int32 and A.indptr.dtype == np.int32:
            indptr, indices = self.narrow
        return np.array_equal(A.indptr, indptr) and np.array_equal(A.indices, indices)


_F64, _INT32, _INT64 = np.dtype(np.float64), np.dtype(np.int32), np.dtype(np.int64)
# An array's address as _addressof(_from_buffer(array)): cold, less than half
# the cost of array.ctypes.data.  A read-only, strided or empty array raises
# TypeError or ValueError.
_addressof, _from_buffer = ctypes.addressof, ctypes.c_char.from_buffer


def _index_addresses(A) -> tuple:
    """``(index width in bytes, indptr address, indices address)`` of ``A``'s pattern.

    The width is 0 — the composed check — for indices of mixed or other
    dtypes, read-only, strided or empty arrays, and an ``indptr`` of the
    wrong length.
    """
    indptr, indices = A.indptr, A.indices
    width = 0
    if len(indptr) == A.shape[1] + 1:
        if indptr.dtype is _INT32 and indices.dtype is _INT32:
            width = 4
        elif indptr.dtype is _INT64 and indices.dtype is _INT64:
            width = 8
    try:
        return (width, _addressof(_from_buffer(indptr)), _addressof(_from_buffer(indices))) if width else (0,)
    except (TypeError, ValueError):
        return (0,)


def _real_rhs(b) -> np.ndarray:
    """The caller's ``b`` as ``float64``; complex values are refused, not truncated."""
    require_real(b, "b")
    return np.asarray(b, dtype=np.float64)


class _SpluSolver:
    """A direct route without a C toolchain: SuperLU on the specialized pattern.

    Factorizes ``pattern``'s own values at construction, like
    :class:`SparseLinearSolver`; :meth:`step` is that class's contract
    answered by ``scipy.sparse.linalg.splu``: the factors are recomputed only
    when the values differ from the ones they came from.
    """

    def __init__(self, pattern: CSCMatrix) -> None:
        self._pattern = pattern
        self._lock = threading.Lock()
        self._factorize(pattern.data)

    def _factorize(self, values: np.ndarray) -> None:
        # Deferred: `import repro` loads no scipy.
        from scipy.sparse import csc_matrix
        from scipy.sparse.linalg import splu

        require_finite_values(self._pattern, values)
        self._lu = None  # a failed factorization leaves none behind
        self._values = np.array(values, dtype=np.float64)
        pattern = self._pattern
        self._lu = splu(csc_matrix((self._values, pattern.indices, pattern.indptr), shape=pattern.shape))

    def step(self, values: np.ndarray, b: np.ndarray):
        """``(x, refactorized)`` for ``A(values) x = b``."""
        with self._lock:
            refactorized = self._lu is None or not np.array_equal(self._values, values)
            if refactorized:
                self._factorize(values)
            return self._lu.solve(b), refactorized


def _factorization_is_finite(solver: SparseLinearSolver) -> bool:
    """True when the solver's current factors contain no NaN/Inf.

    The no-pivot kernels do not raise on breakdown — an indefinite matrix
    fed to Cholesky surfaces as NaNs in ``L`` — so the escape hatch checks
    the factor bits instead of catching exceptions alone.  It reads the
    arrays the solver owns and its kernel writes (``Lx``; ``Lx, D``; or
    ``Lx, Ux``), not the copies :attr:`SparseLinearSolver.L` hands out.
    """
    return all(np.isfinite(values).all() for values in solver._outputs)


class SpecializedSolver:
    """A lazily specializing ``solve(A, b)`` with a per-structure cache.

    Parameters
    ----------
    method:
        Fix the kernel route for every call (``"cholesky"``, ``"ldlt"``,
        ``"lu"``, ``"pcg"``); ``None`` (default) auto-selects per structure
        via the probes.  A per-call ``method=`` overrides both.
    ordering:
        Fill-reducing ordering for the direct routes (as in
        :class:`SparseLinearSolver`).
    options:
        :class:`SympilerOptions` for every compile (part of the cache key).
    max_specializations:
        Bound on cached structures; the least recently used specialization
        is dropped beyond it (its artifacts stay in the shared compiler
        cache, so re-specializing the structure later is warm).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.frontend import SpecializedSolver
    >>> from repro.sparse import laplacian_2d
    >>> front = SpecializedSolver()
    >>> A = laplacian_2d(8).to_scipy()          # any scipy.sparse matrix
    >>> x = front.solve(A, np.ones(A.shape[0])) # first call: specialize
    >>> x2 = front.solve(A, np.ones(A.shape[0]))  # second: numeric only
    >>> front.stats.specializations, front.stats.structure_hits
    (1, 1)
    """

    def __init__(
        self,
        *,
        method: Optional[str] = None,
        ordering: str = "mindeg",
        options: Optional[SympilerOptions] = None,
        max_specializations: int = 64,
    ) -> None:
        if method is not None and method not in AUTO_METHODS:
            raise ValueError(
                f"unknown method {method!r}; expected one of {AUTO_METHODS} or None"
            )
        if max_specializations < 1:
            raise ValueError("max_specializations must be at least 1")
        self.method = method
        self.ordering = ordering
        self.options = options or SympilerOptions()
        self.max_specializations = int(max_specializations)
        self.stats = FrontendStats()
        self.last_cg_result = None
        self._lock = threading.Lock()
        #: The cached specializations, least recently used first.
        self._cache: Dict[_Specialization, None] = {}
        #: The same specializations by ``_Specialization.repeat_key`` (see _find).
        self._repeats: Dict[tuple, List[_Specialization]] = {}
        #: The scipy classes found to be CSC (see _says_csc).
        self._csc_types: set = set()
        #: Whether the no-toolchain warning was given (see _direct_route).
        self._splu_warned = False

    # ------------------------------------------------------------------ #
    def cache_info(self) -> Dict[str, object]:
        """Snapshot: cached specializations (``entries``) plus the counters."""
        with self._lock:
            specs = list(self._cache)
        entries = [
            {
                "fingerprint": structure_fingerprint(spec.pattern),
                "dtype": spec.repeat_key[2],
                "method": spec.method,
                "escaped_to_ldlt": spec.escaped_to_ldlt,
                "n": spec.pattern.n,
                "nnz": spec.pattern.nnz,
            }
            for spec in specs
        ]
        info = {"entries": entries, "size": len(entries)}
        info.update(self.stats.as_dict())
        return info

    def clear(self) -> None:
        """Drop every cached specialization (shared artifacts stay cached)."""
        with self._lock:
            self._cache.clear()
            self._repeats.clear()

    # ------------------------------------------------------------------ #
    def _specialize(self, ingested: IngestedMatrix, method: Optional[str]) -> _Specialization:
        """First call on a configuration: probe, select, compile, cache."""
        A = ingested.csc
        key = (A.shape, len(A.indices), ingested.dtype, method or "auto")
        probe = None
        escaped = False
        if method is None:
            probe = probe_structure(A)
            method = probe.method
        if method == "pcg":
            # The pcg route owns no complete factorization: its IC(0)
            # artifact is compiled here, into the shared artifact cache, so
            # every numeric run hits it and a compile that raises is never
            # admitted.
            Sympiler(self.options).compile("ic0", A)
            solver = None
        else:
            solver = self._direct_route(A, method)
            if isinstance(solver, _SpluSolver):
                method = "splu"
            elif solver.method != method:
                escaped = True
                method = solver.method
        return _Specialization(
            repeat_key=key,
            method=method,
            probe=probe,
            solver=solver,
            pattern=A,
            escaped_to_ldlt=escaped,
        )

    def _direct_route(self, A: CSCMatrix, method: str):
        """The direct solver of ``A``: compiled, or ``splu`` where nothing compiles (one warning)."""
        try:
            return self._build_direct(A, method)
        except CCompilationError as exc:
            with self._lock:
                warn, self._splu_warned = not self._splu_warned, True
            if warn:
                warnings.warn(
                    f"{exc}; without a C toolchain the direct routes answer through "
                    "scipy.sparse.linalg.splu",
                    RuntimeWarning,
                    stacklevel=4,
                )
            return _SpluSolver(A)

    def _build_direct(self, A: CSCMatrix, method: str) -> SparseLinearSolver:
        """Build a direct solver; Cholesky breakdown escapes to LDLᵀ.

        The escape only arms the *auto-selected* heuristic path — the probes
        ran, chose ``cholesky``, and the numeric factorization disagreed
        (symmetric, positive diagonal, yet indefinite).  An explicit
        ``method="cholesky"`` goes through :class:`SparseLinearSolver`
        directly, exactly like the explicit API (no silent substitution).
        """
        with warnings.catch_warnings():
            # Indefinite input reaches sqrt(<0) inside the generated kernel,
            # which warns before the finiteness check below catches it.  Only
            # NumPy's floating-point warnings go.
            warnings.filterwarnings("ignore", r".* encountered in ", RuntimeWarning)
            try:
                solver = SparseLinearSolver(
                    A, method=method, ordering=self.ordering, options=self.options
                )
                if method == "cholesky" and not _factorization_is_finite(solver):
                    raise FloatingPointError("Cholesky breakdown (non-SPD values)")
            except (FloatingPointError, ValueError, ZeroDivisionError):
                if method != "cholesky":
                    raise
                return SparseLinearSolver(
                    A, method="ldlt", ordering=self.ordering, options=self.options
                )
        return solver

    # ------------------------------------------------------------------ #
    def solve(
        self,
        A,
        b: np.ndarray,
        *,
        method: Optional[str] = None,
        tol: float = 1e-8,
        max_iterations: int = 1000,
    ) -> np.ndarray:
        """Solve ``A x = b``; ``A`` in any ingestible form.

        ``method`` overrides the instance default and the structural probes
        (the misdetection escape hatch).  ``tol`` / ``max_iterations`` apply
        to the ``pcg`` route only; a ``pcg`` solve that does not reach ``tol``
        within ``max_iterations`` raises ``RuntimeError`` with the iteration
        count and the final relative residual, and its
        :class:`~repro.solvers.cg.CGResult` is still ``last_cg_result``.

        A repeat — a scipy CSC matrix or a :class:`CSCMatrix` with ``float64``
        values whose pattern is cached — is not ingested.  On a direct route
        with the C backend, the pattern check, the value check and the
        solver's warm step are then one native call (:meth:`_repeat`); every
        other call composes the same steps, to the same bits and counters.
        """
        if method is not None and method not in AUTO_METHODS:
            raise ValueError(
                f"unknown method {method!r}; expected one of {AUTO_METHODS}"
            )
        requested = method if method is not None else self.method
        x = self._repeat(A, b, requested, tol, max_iterations)
        if x is not None:
            return x
        ingested = ingest(A)
        b = _real_rhs(b)
        spec = self._find(ingested.csc, requested, ingested.dtype)
        specialized_here = False
        if spec is None:
            with observe_trace.span("specialize", method=requested or "auto"):
                spec = self._specialize(ingested, requested)
            with self._lock:
                same = self._repeats.get(spec.repeat_key, ())
                raced = next((s for s in same if s.is_pattern_of(spec)), None)
                if raced is not None:
                    spec = raced
                    self.stats.structure_hits += 1
                else:
                    specialized_here = True
                    self._admit(spec)
        return self._execute(
            spec,
            ingested.csc.data,
            b,
            specialized_here=specialized_here,
            tol=tol,
            max_iterations=max_iterations,
        )

    def _repeat(self, A, b, requested: Optional[str], tol: float, max_iterations: int) -> Optional[np.ndarray]:
        """``x`` from the cached specialization ``A`` repeats, found without ingesting ``A``.

        Only a scipy CSC matrix or a :class:`CSCMatrix` with float64 values
        qualifies: its ``data`` goes to the solver as it is.  The stored
        patterns ``A`` is compared against are canonical (sorted,
        duplicate-free, as :meth:`CSCMatrix.validate` checked when they were
        ingested), so a matching ``A`` is too.  Candidates are those of
        :meth:`_find`.  For each, a direct solver's native step compares the
        pattern and, if it matches, is the whole warm step, in one call
        (:meth:`SparseLinearSolver.step`); where it cannot run, the pattern
        is compared in NumPy and the step composed.  ``None`` sends ``A``
        through the ingest path.
        """
        if not (type(A) in self._csc_types or isinstance(A, CSCMatrix) or self._says_csc(A)):
            return None
        values = A.data
        if values.dtype is not _F64 or values.shape != (len(A.indices),):
            return None
        key = (A.shape, len(A.indices), "float64", requested or "auto")
        with self._lock:
            candidates = tuple(self._repeats.get(key, ()))
        if not candidates:
            return None
        pattern = _index_addresses(A)
        for spec in candidates:
            refs = spec.addresses.get(pattern[0])
            out = None
            if refs is not None:
                try:
                    out = spec.solver._native_step(values, b, pattern + refs)
                except Exception:  # the pattern matched; the values failed
                    with self._lock:
                        self._hit(spec)
                    raise
                if out is OTHER_PATTERN:
                    continue
            if out is None:
                if not spec.is_pattern_of(A):
                    continue
                b = _real_rhs(b)
                with self._lock:
                    self._hit(spec)
                return self._execute(
                    spec,
                    values,
                    b,
                    specialized_here=False,
                    tol=tol,
                    max_iterations=max_iterations,
                )
            x, refactorized = out
            with self._lock:
                self._hit(spec, refactorized)
            return x
        return None

    def _says_csc(self, A) -> bool:
        """Whether ``A``'s ``format`` is ``"csc"``; a scipy class that says so joins ``_csc_types``.

        A scipy class's ``format`` is a constant of the class, so a repeat
        need not call the property again (measured: about 10 µs of a cold
        call).
        """
        if getattr(A, "format", None) != "csc":
            return False
        if type(A).__module__.startswith("scipy.sparse"):
            self._csc_types.add(type(A))
        return True

    def _find(self, A, requested: Optional[str], dtype: str) -> Optional[_Specialization]:
        """The cached specialization of ``A``'s pattern, or ``None``; a find counts as a hit.

        Candidates are the specializations of the same ``(shape, nnz, dtype,
        requested method)``; the one whose stored ``indptr`` / ``indices``
        equal ``A``'s is found.
        """
        key = (A.shape, len(A.indices), dtype, requested or "auto")
        with self._lock:
            candidates = tuple(self._repeats.get(key, ()))
        for spec in candidates:
            if spec.is_pattern_of(A):
                with self._lock:
                    self._hit(spec)
                return spec
        return None

    def _hit(self, spec: _Specialization, refactorized: Optional[bool] = None) -> None:
        """Count a structure hit and refresh ``spec``'s LRU recency (the caller holds the lock).

        ``refactorized``: the hit's step, already taken, counted too.
        """
        self.stats.structure_hits += 1
        if spec in self._cache:
            self._cache[spec] = self._cache.pop(spec)
        if refactorized:
            self.stats.refactorizations += 1
        elif refactorized is not None:
            self.stats.value_hits += 1

    def _admit(self, spec: _Specialization) -> None:
        """Cache a new specialization, evicting the least recently used (the caller holds the lock)."""
        self._cache[spec] = None
        self._repeats.setdefault(spec.repeat_key, []).append(spec)
        self.stats.specializations += 1
        self.stats.methods[spec.method] = self.stats.methods.get(spec.method, 0) + 1
        if spec.escaped_to_ldlt:
            self.stats.cholesky_escapes += 1
        while len(self._cache) > self.max_specializations:
            evicted = next(iter(self._cache))
            del self._cache[evicted]
            self._repeats[evicted.repeat_key].remove(evicted)
            if not self._repeats[evicted.repeat_key]:
                del self._repeats[evicted.repeat_key]

    __call__ = solve

    def _execute(
        self,
        spec: _Specialization,
        values: np.ndarray,
        b: np.ndarray,
        *,
        specialized_here: bool,
        tol: float,
        max_iterations: int,
    ) -> np.ndarray:
        if spec.method == "pcg":
            from repro.solvers.cg import preconditioned_conjugate_gradient

            # Re-bind the call's values onto the specialized pattern: the
            # IC(0) compile behind this call is a shared-cache hit.
            system = spec.pattern.with_values(values)
            result = preconditioned_conjugate_gradient(
                system,
                b,
                tol=tol,
                max_iterations=max_iterations,
                options=self.options,
            )
            self.last_cg_result = result
            if not result.converged:
                raise RuntimeError(
                    f"pcg did not converge: relative residual {result.final_residual:.3g} "
                    f"after {result.iterations} iterations (tol {tol:g})"
                )
            return result.x
        # Same structure: the solver's warm step — the solve alone when the
        # values are the ones its factors came from, the compiled kernel
        # first when they are new.  The specializing call factorized these
        # very values itself; only a later call finding them unchanged counts
        # as a hit.
        x, refactorized = spec.solver.step(values, b)
        with self._lock:
            if refactorized:
                self.stats.refactorizations += 1
            elif not specialized_here:
                self.stats.value_hits += 1
        return x


# --------------------------------------------------------------------------- #
# Module-level front end and the @sympiled decorator
# --------------------------------------------------------------------------- #
_default_frontend: Optional[SpecializedSolver] = None
_default_lock = threading.Lock()


def default_frontend() -> SpecializedSolver:
    """The process-wide :class:`SpecializedSolver` behind :func:`solve`."""
    global _default_frontend
    with _default_lock:
        if _default_frontend is None:
            _default_frontend = SpecializedSolver()
        return _default_frontend


def solve(
    A,
    b: np.ndarray,
    *,
    method: Optional[str] = None,
    tol: float = 1e-8,
    max_iterations: int = 1000,
) -> np.ndarray:
    """Solve ``A x = b`` for any ingestible ``A`` — the whole API.

    ``repro.solve`` is the lazy-specializing front end over the compiled
    kernel stack: the first call on a structure probes it, auto-selects the
    kernel (SPD → Cholesky, symmetric indefinite → LDLᵀ, unsymmetric → LU,
    at any size; IC(0)-preconditioned CG only as ``method="pcg"``), orders,
    inspects and compiles; repeat calls on the same structure are pure
    numeric execution, through generated C by default.  Results
    are bitwise identical to the explicit
    :class:`~repro.solvers.linear_solver.SparseLinearSolver` /
    :func:`~repro.solvers.cg.preconditioned_conjugate_gradient` APIs.

    State lives in the process-wide :func:`default_frontend` instance;
    construct a :class:`SpecializedSolver` for isolated caches, a fixed
    method, non-default options or orderings.
    """
    return default_frontend().solve(
        A,
        b,
        method=method,
        tol=tol,
        max_iterations=max_iterations,
    )


def sympiled(
    fn: Optional[Callable] = None,
    *,
    method: Optional[str] = None,
    ordering: str = "mindeg",
    options: Optional[SympilerOptions] = None,
):
    """Decorate a system-producing function into a lazily specialized solve.

    The decorated function must return ``(A, b)`` (``A`` in any ingestible
    form); calling the wrapper returns ``x``.  Each wrapper owns a private
    :class:`SpecializedSolver` (exposed as ``wrapper.solver``), so the first
    call with a new structure specializes and every later same-structure
    call — the fixed-pattern/changing-values loop the paper amortizes — runs
    numeric-only code.  ``wrapper.cache_info()`` reports the counters.

    Usable bare or with arguments::

        @sympiled
        def step(t):
            return assemble(mesh, t), load_vector(mesh, t)

        x = step(0.1)   # specializes on the mesh pattern
        x = step(0.2)   # numeric-only: refactorize + solve
    """

    def decorate(func: Callable):
        import functools

        solver = SpecializedSolver(method=method, ordering=ordering, options=options)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            system = func(*args, **kwargs)
            if not (isinstance(system, tuple) and len(system) == 2):
                raise TypeError(
                    f"@sympiled function {func.__name__!r} must return (A, b), "
                    f"got {type(system).__name__}"
                )
            A, b = system
            return solver.solve(A, b)

        wrapper.solver = solver
        wrapper.cache_info = solver.cache_info
        return wrapper

    if fn is not None:
        return decorate(fn)
    return decorate
