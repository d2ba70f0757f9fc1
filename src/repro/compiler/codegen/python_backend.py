"""Specialized-Python code generation backend.

Walks the transformed kernel AST and emits a Python module specialized for
one sparsity pattern:

* loop structures follow the transformed AST (pruned loops over embedded
  inspection sets, supernode blocks),
* every position derived from the sparsity pattern (diagonal positions, panel
  slice bounds, update positions) appears either as a literal integer or as
  an element of an embedded constant array — the generated numeric code never
  performs a symbolic computation,
* inner updates are emitted as NumPy slice operations (the backend's analogue
  of vectorization), dense blocks call the ``_rt`` micro-kernels or are fully
  unrolled when the transformation annotated them so.

The resulting :class:`GeneratedModule` holds the source text, the embedded
constants and a compiled entry point.

Cross-process artifact sharing: generated sources (``.py``) and their
embedded constant arrays (``.npz``) are persisted to the shared
``REPRO_SYMPILER_CACHE`` directory under the same
``kernel + pattern fingerprint + options fingerprint`` identity that keys
the in-memory artifact cache — the python analogue of the C backend's
on-disk ``.so`` cache, using the same temp-file + atomic-rename protocol.
A later process compiling the same pattern loads source and constants back
instead of re-walking the AST; hits and writes are counted in
:func:`~repro.compiler.codegen.c_backend.disk_cache_stats`
(``py_reuses`` / ``py_writes``), which is how CI asserts the warm-cache
zero-regeneration invariant for toolchain-free environments too.  The cache
stem additionally hashes the package version, so an upgraded emitter never
reuses a stale source.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro._version import __version__

from repro.compiler.ast import (
    ArrayRef,
    Assign,
    BinOp,
    Block,
    Call,
    Comment,
    Expr,
    FloatConst,
    ForRange,
    If,
    IncompleteFactorLoop,
    IntConst,
    KernelFunction,
    PrunedColumnSolveLoop,
    SimplicialCholeskyLoop,
    Stmt,
    SupernodalCholeskyLoop,
    SupernodeTriangularBlock,
    Var,
)
from repro.compiler.codegen.c_backend import (
    atomic_write_text,
    disk_cache_stats,
    tmp_path_for,
)
from repro.compiler.codegen.runtime import generated_code_dir, runtime_namespace
from repro.compiler.registration import register_unique
from repro.observe.trace import span as observe_span

__all__ = [
    "PythonBackend",
    "GeneratedModule",
    "CodegenError",
    "PythonMethodSpec",
    "register_python_method",
]

#: Supernode widths above this value are gathered with a small loop instead of
#: fully enumerated slice assignments, to keep generated sources compact.
_LARGE_BLOCK_LOOP_WIDTH = 24

#: Revision of the python emitters, hashed into the persisted-source cache
#: stem alongside the package version.  Bump on ANY change to the generated
#: source, so a development checkout never reloads sources a previous build
#: of the emitter persisted (releases are already separated by the version).
PY_CODEGEN_REVISION = 3


class CodegenError(RuntimeError):
    """Raised when the backend cannot emit code for a kernel."""


@dataclass(frozen=True)
class PythonMethodSpec:
    """Entry-point shape of one kernel method (params + returned expression).

    The backend dispatches on this table instead of per-kernel branches;
    registering a new kernel method means adding a spec, not editing the
    generator.
    """

    params: str
    result: str


_PY_METHOD_SPECS: Dict[str, PythonMethodSpec] = {
    "triangular-solve": PythonMethodSpec(params="Lp, Li, Lx, b", result="x"),
    "cholesky": PythonMethodSpec(params="Ap, Ai, Ax", result="Lx"),
    "ldlt": PythonMethodSpec(params="Ap, Ai, Ax", result="(Lx, D)"),
    "lu": PythonMethodSpec(params="Ap, Ai, Ax", result="(Lx, Ux)"),
    "ic0": PythonMethodSpec(params="Ap, Ai, Ax", result="Lx"),
    "ilu0": PythonMethodSpec(params="Ap, Ai, Ax", result="(Lx, Ux)"),
}


def register_python_method(method: str, spec: PythonMethodSpec) -> None:
    """Register the entry-point shape of an additional kernel method."""
    register_unique(_PY_METHOD_SPECS, method, spec, kind="python method spec")


# --------------------------------------------------------------------------- #
# On-disk persisted-source cache (cross-process sharing)
# --------------------------------------------------------------------------- #
def _disk_cache_paths(cache_token: str, entry_name: str) -> Tuple[str, str]:
    """``(.py, .npz)`` cache paths for one compile identity.

    The stem hashes the driver's cache token (kernel + pattern fingerprint +
    options fingerprint) together with the package version, so a changed
    emitter or option bundle never aliases a previously persisted source.
    """
    digest = hashlib.sha256(
        f"{cache_token}|{__version__}|r{PY_CODEGEN_REVISION}".encode()
    ).hexdigest()[:16]
    stem = os.path.join(generated_code_dir(), f"{entry_name}_py_{digest}")
    return stem + ".py", stem + ".npz"


def _load_persisted_module(py_path: str, npz_path: str) -> Optional[Tuple[str, Dict[str, np.ndarray]]]:
    """Load a persisted (source, constants) pair, or ``None`` when absent.

    A half-present or unreadable entry (e.g. written by an interrupted
    process before the atomic rename protocol existed) is treated as a miss
    rather than an error — the caller simply regenerates and overwrites it.
    """
    if not (os.path.exists(py_path) and os.path.exists(npz_path)):
        return None
    try:
        with open(py_path, "r", encoding="utf-8") as fh:
            source = fh.read()
        with np.load(npz_path) as archive:
            constants = {name: archive[name] for name in archive.files}
    except Exception:
        # Any unreadable entry — truncated copy, disk corruption, a bad zip
        # (np.load raises zipfile.BadZipFile, not ValueError) — is a miss:
        # the caller regenerates and atomically overwrites it.
        return None
    return source, constants


def _persist_module(py_path: str, npz_path: str, source: str, constants: Dict[str, np.ndarray]) -> None:
    """Persist a generated module atomically (source first, then constants).

    The loader requires *both* files, and the ``.npz`` lands last, so a
    concurrent reader either sees a complete entry or a miss.
    """
    atomic_write_text(py_path, source)
    tmp = tmp_path_for(npz_path) + ".npz"
    try:
        np.savez(tmp, **constants)
        os.replace(tmp, npz_path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


@dataclass
class GeneratedModule:
    """A generated, compiled Python module specialized to one pattern."""

    source: str
    entry_name: str
    constants: Dict[str, np.ndarray]
    method: str
    codegen_seconds: float
    compile_seconds: float = 0.0
    _callable: Optional[Callable] = field(default=None, repr=False)

    def compile(self) -> Callable:
        """Compile (exec) the generated source and return the entry callable."""
        if self._callable is not None:
            return self._callable
        start = time.perf_counter()
        with observe_span("py-compile", entry=self.entry_name, method=self.method):
            namespace: Dict[str, object] = {"np": np, "_rt": runtime_namespace()}
            for name, value in self.constants.items():
                namespace[name] = value
            code = compile(self.source, f"<sympiler:{self.entry_name}>", "exec")
            exec(code, namespace)  # noqa: S102 - executing our own generated code
        self.compile_seconds = time.perf_counter() - start
        fn = namespace.get(self.entry_name)
        if not callable(fn):
            raise CodegenError(f"generated module does not define {self.entry_name!r}")
        self._callable = fn
        return fn

    @property
    def line_count(self) -> int:
        """Number of lines of generated source."""
        return self.source.count("\n") + 1


class _Emitter:
    """Accumulates indented source lines."""

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


class PythonBackend:
    """Generate specialized Python source from a transformed kernel."""

    name = "python"

    def generate(self, kernel: KernelFunction, context) -> GeneratedModule:
        """Emit a :class:`GeneratedModule` for ``kernel``.

        ``context`` is the :class:`~repro.compiler.transforms.base.CompilationContext`
        used during transformation; the backend reads the matrix order from it
        for the generic (un-transformed) loops.
        """
        start = time.perf_counter()
        entry = kernel.name
        method_spec = _PY_METHOD_SPECS.get(kernel.method)
        if method_spec is None:
            raise CodegenError(f"unsupported method {kernel.method!r}")
        cache_token = getattr(context, "cache_token", None)
        paths = _disk_cache_paths(cache_token, entry) if cache_token else None
        if paths is not None:
            persisted = _load_persisted_module(*paths)
            if persisted is not None:
                # Cross-process hit: a sibling process already generated this
                # exact (kernel, pattern, options) module — skip the AST walk.
                source, self._constants = persisted
                disk_cache_stats().bump("py_reuses")
                for name, value in self._constants.items():
                    if name not in kernel.constants:
                        kernel.constants[name] = value
                return GeneratedModule(
                    source=source,
                    entry_name=entry,
                    constants=dict(self._constants),
                    method=kernel.method,
                    codegen_seconds=time.perf_counter() - start,
                )
        self._constants = {}
        self._const_counter = 0
        self._n = context.inspection.n
        out = _Emitter()
        out.emit(f'"""Sympiler-generated {kernel.method} kernel (python backend).')
        out.emit("")
        out.emit("Auto-generated; all symbolic analysis was performed at compile time.")
        out.emit('"""')
        out.emit(f"def {entry}({method_spec.params}):")
        out.push()
        self._emit_block(out, kernel.body, kernel)
        out.emit(f"return {method_spec.result}")
        out.pop()
        source = out.source()
        if paths is not None:
            _persist_module(*paths, source, dict(self._constants))
            disk_cache_stats().bump("py_writes")
        codegen_seconds = time.perf_counter() - start
        # Also expose the constants on the kernel for introspection.
        for name, value in self._constants.items():
            if name not in kernel.constants:
                kernel.constants[name] = value
        return GeneratedModule(
            source=source,
            entry_name=entry,
            constants=dict(self._constants),
            method=kernel.method,
            codegen_seconds=codegen_seconds,
        )

    # ------------------------------------------------------------------ #
    # Constant management
    # ------------------------------------------------------------------ #
    def _add_constant(self, name: str, value: np.ndarray) -> str:
        cname = f"_C_{name}"
        if cname in self._constants:
            existing = self._constants[cname]
            if existing is value or (
                existing.shape == np.asarray(value).shape and np.array_equal(existing, value)
            ):
                return cname
            self._const_counter += 1
            cname = f"_C_{name}_{self._const_counter}"
        self._constants[cname] = np.asarray(value)
        return cname

    # ------------------------------------------------------------------ #
    # Statement dispatch
    # ------------------------------------------------------------------ #
    def _emit_block(self, out: _Emitter, block: Block, kernel: KernelFunction) -> None:
        for stmt in block.statements:
            self._emit_stmt(out, stmt, kernel)

    def _emit_stmt(self, out: _Emitter, stmt: Stmt, kernel: KernelFunction) -> None:
        if isinstance(stmt, Comment):
            out.emit(f"# {stmt.text}")
        elif isinstance(stmt, Block):
            self._emit_block(out, stmt, kernel)
        elif isinstance(stmt, Assign):
            self._emit_generic_assign(out, stmt)
        elif isinstance(stmt, ForRange):
            self._emit_generic_for(out, stmt, kernel)
        elif isinstance(stmt, If):
            out.emit(f"if {self._expr(stmt.condition)}:")
            out.push()
            self._emit_block(out, stmt.body, kernel)
            out.pop()
        elif isinstance(stmt, PrunedColumnSolveLoop):
            self._emit_pruned_column_loop(out, stmt)
        elif isinstance(stmt, SupernodeTriangularBlock):
            self._emit_supernode_trisolve(out, stmt)
        elif isinstance(stmt, SimplicialCholeskyLoop):
            self._emit_simplicial_cholesky(out, stmt)
        elif isinstance(stmt, SupernodalCholeskyLoop):
            self._emit_supernodal_cholesky(out, stmt)
        elif isinstance(stmt, IncompleteFactorLoop):
            self._emit_incomplete_factor(out, stmt)
        else:
            raise CodegenError(f"python backend cannot emit {type(stmt).__name__}")

    # ------------------------------------------------------------------ #
    # Generic expressions / statements (used by un-transformed kernels)
    # ------------------------------------------------------------------ #
    def _expr(self, e: Expr, subst: Optional[Dict[str, str]] = None) -> str:
        subst = subst or {}
        if isinstance(e, Var):
            if e.name in subst:
                return subst[e.name]
            if e.name == "n":
                return str(self._n)
            return e.name
        if isinstance(e, IntConst):
            return str(e.value)
        if isinstance(e, FloatConst):
            return repr(e.value)
        if isinstance(e, ArrayRef):
            return f"{e.array}[{self._expr(e.index, subst)}]"
        if isinstance(e, BinOp):
            return f"({self._expr(e.left, subst)} {e.op} {self._expr(e.right, subst)})"
        if isinstance(e, Call):
            args = [self._expr(a, subst) for a in e.args]
            if e.func == "copy":
                return f"np.array({args[0]}, dtype=np.float64)"
            if e.func == "sqrt":
                return f"({args[0]}) ** 0.5"
            return f"_rt.{e.func}({', '.join(args)})"
        raise CodegenError(f"cannot emit expression {type(e).__name__}")

    def _emit_generic_assign(self, out: _Emitter, stmt: Assign, subst: Optional[Dict[str, str]] = None) -> None:
        out.emit(f"{self._expr(stmt.target, subst)} {stmt.op} {self._expr(stmt.value, subst)}")

    def _emit_generic_for(self, out: _Emitter, stmt: ForRange, kernel: KernelFunction) -> None:
        if stmt.annotations.get("vectorizable") and self._loop_is_vectorizable(stmt):
            # Replace the loop variable by a slice over the loop bounds.
            slice_text = f"{self._expr(stmt.start)}:{self._expr(stmt.end)}"
            subst = {stmt.index: slice_text}
            for inner in stmt.body.statements:
                if isinstance(inner, Assign):
                    self._emit_generic_assign(out, inner, subst)
            return
        out.emit(
            f"for {stmt.index} in range({self._expr(stmt.start)}, {self._expr(stmt.end)}):"
        )
        out.push()
        self._emit_block(out, stmt.body, kernel)
        out.pop()

    @staticmethod
    def _loop_is_vectorizable(stmt: ForRange) -> bool:
        """A loop can be emitted as a slice when its body is plain assignments."""
        return all(isinstance(s, (Assign, Comment)) for s in stmt.body.statements)

    # ------------------------------------------------------------------ #
    # Triangular solve emitters
    # ------------------------------------------------------------------ #
    def _emit_pruned_column_loop(self, out: _Emitter, stmt: PrunedColumnSolveLoop) -> None:
        cname = self._add_constant(stmt.constant_name, stmt.columns)
        out.emit(f"# pruned column loop over {stmt.columns.size} columns")
        out.emit(f"for j in {cname}:")
        out.push()
        out.emit("p0 = Lp[j]")
        out.emit("p1 = Lp[j + 1]")
        out.emit("xj = x[j] / Lx[p0]")
        out.emit("x[j] = xj")
        if stmt.vectorize:
            out.emit("x[Li[p0 + 1:p1]] -= Lx[p0 + 1:p1] * xj")
        else:
            out.emit("for p in range(p0 + 1, p1):")
            out.push()
            out.emit("x[Li[p]] -= Lx[p] * xj")
            out.pop()
        out.pop()

    def _emit_supernode_trisolve(self, out: _Emitter, stmt: SupernodeTriangularBlock) -> None:
        c0, w, n_rows = stmt.c0, stmt.width, stmt.n_rows
        col_starts = stmt.col_starts
        n_off = stmt.n_offdiag_rows
        off_lo = stmt.rows_start + w
        off_hi = stmt.rows_end
        out.emit(
            f"# supernode {stmt.sn_id}: columns {c0}..{c0 + w}, "
            f"{n_off} off-diagonal rows"
        )
        if stmt.unroll:
            # Fully unrolled forward substitution on the diagonal block.
            for ii in range(w):
                terms = []
                for jj in range(ii):
                    pos = int(col_starts[jj]) + (ii - jj)
                    terms.append(f"Lx[{pos}] * xb{jj}")
                rhs = f"x[{c0 + ii}]"
                if terms:
                    rhs = f"({rhs} - " + " - ".join(terms) + ")"
                out.emit(f"xb{ii} = {rhs} / Lx[{int(col_starts[ii])}]")
            for ii in range(w):
                out.emit(f"x[{c0 + ii}] = xb{ii}")
            if n_off > 0:
                panel_terms = []
                for jj in range(w):
                    p0 = int(col_starts[jj]) + (w - jj)
                    p1 = int(col_starts[jj]) + (n_rows - jj)
                    panel_terms.append(f"Lx[{p0}:{p1}] * xb{jj}")
                out.emit(f"x[Li[{off_lo}:{off_hi}]] -= " + " + ".join(panel_terms))
            return
        # Gathered dense block path.
        if w <= _LARGE_BLOCK_LOOP_WIDTH:
            out.emit(f"_D = np.zeros(({w}, {w}))")
            for jj in range(w):
                p0 = int(col_starts[jj])
                out.emit(f"_D[{jj}:, {jj}] = Lx[{p0}:{p0 + (w - jj)}]")
            if n_off > 0:
                panel_cols = []
                for jj in range(w):
                    p0 = int(col_starts[jj]) + (w - jj)
                    p1 = int(col_starts[jj]) + (n_rows - jj)
                    panel_cols.append(f"Lx[{p0}:{p1}]")
                out.emit(f"_P = np.stack(({', '.join(panel_cols)},), axis=1)")
        else:
            cs_name = self._add_constant(f"sn{stmt.sn_id}_col_starts", col_starts)
            out.emit(f"_D = np.zeros(({w}, {w}))")
            out.emit(f"_P = np.empty(({n_off}, {w}))")
            out.emit(f"for _jj in range({w}):")
            out.push()
            out.emit(f"_s = {cs_name}[_jj]")
            out.emit(f"_D[_jj:, _jj] = Lx[_s:_s + ({w} - _jj)]")
            out.emit(f"_P[:, _jj] = Lx[_s + ({w} - _jj):_s + ({n_rows} - _jj)]")
            out.pop()
        out.emit(f"_xb = _rt.dense_lower_solve(_D, x[{c0}:{c0 + w}])")
        out.emit(f"x[{c0}:{c0 + w}] = _xb")
        if n_off > 0:
            out.emit(f"x[Li[{off_lo}:{off_hi}]] -= _P @ _xb")

    # ------------------------------------------------------------------ #
    # Cholesky emitters
    # ------------------------------------------------------------------ #
    def _emit_cholesky_preamble(
        self, out: _Emitter, l_indptr: np.ndarray, l_indices: np.ndarray,
        a_diag_pos: np.ndarray, a_col_end: np.ndarray, n: int,
        *, ldlt: bool = False,
    ) -> None:
        lp = self._add_constant("l_indptr", l_indptr)
        li = self._add_constant("l_indices", l_indices)
        ad = self._add_constant("a_diag_pos", a_diag_pos)
        ae = self._add_constant("a_col_end", a_col_end)
        out.emit(f"Lp = {lp}")
        out.emit(f"Li = {li}")
        out.emit(f"_ad = {ad}")
        out.emit(f"_ae = {ae}")
        out.emit(f"Lx = np.zeros({int(l_indptr[-1])})")
        if ldlt:
            out.emit(f"D = np.empty({n})")
        out.emit(f"f = np.zeros({n})")

    def _emit_simplicial_lu(self, out: _Emitter, stmt: SimplicialCholeskyLoop) -> None:
        n = stmt.n
        lp = self._add_constant("l_indptr", stmt.l_indptr)
        li = self._add_constant("l_indices", stmt.l_indices)
        up = self._add_constant("u_indptr", stmt.u_indptr)
        ui = self._add_constant("u_indices", stmt.u_indices)
        ad = self._add_constant("a_col_start", stmt.a_diag_pos)
        ae = self._add_constant("a_col_end", stmt.a_col_end)
        pp = self._add_constant("prune_ptr", stmt.prune_ptr)
        upos = self._add_constant("update_pos", stmt.update_pos)
        uend = self._add_constant("update_end", stmt.update_end)
        ucol = self._add_constant("update_col", stmt.update_col)
        out.emit(f"Lp = {lp}")
        out.emit(f"Li = {li}")
        out.emit(f"Up = {up}")
        out.emit(f"Ui = {ui}")
        out.emit(f"_a0 = {ad}")
        out.emit(f"_a1 = {ae}")
        out.emit(f"Lx = np.zeros({int(stmt.l_indptr[-1])})")
        out.emit(f"Ux = np.zeros({int(stmt.u_indptr[-1])})")
        out.emit(f"f = np.zeros({n})")
        out.emit("# simplicial left-looking LU; update loop pruned to the symbolic")
        out.emit("# U pattern (all positions resolved at compile time, no pivoting)")
        out.emit(f"for j in range({n}):")
        out.push()
        out.emit("a0 = _a0[j]; a1 = _a1[j]")
        out.emit("f[Ai[a0:a1]] = Ax[a0:a1]")
        out.emit(f"for t in range({pp}[j], {pp}[j + 1]):")
        out.push()
        out.emit(f"ps = {upos}[t]; pe = {uend}[t]")
        out.emit(f"ukj = f[{ucol}[t]]")
        if stmt.vectorize:
            out.emit("f[Li[ps:pe]] -= Lx[ps:pe] * ukj")
        else:
            out.emit("for p in range(ps, pe):")
            out.push()
            out.emit("f[Li[p]] -= Lx[p] * ukj")
            out.pop()
        out.pop()
        out.emit("u0 = Up[j]; u1 = Up[j + 1]")
        out.emit("Ux[u0:u1] = f[Ui[u0:u1]]")
        out.emit("piv = f[j]")
        out.emit("if piv == 0.0:")
        out.push()
        out.emit('raise ValueError("matrix is singular (zero pivot) at column %d" % j)')
        out.pop()
        out.emit("lp0 = Lp[j]; lp1 = Lp[j + 1]")
        out.emit("Lx[lp0] = 1.0")
        out.emit("Lx[lp0 + 1:lp1] = f[Li[lp0 + 1:lp1]] / piv")
        out.emit("f[Ui[u0:u1]] = 0.0")
        out.emit("f[Li[lp0:lp1]] = 0.0")
        out.pop()

    def _emit_simplicial_cholesky(self, out: _Emitter, stmt: SimplicialCholeskyLoop) -> None:
        if stmt.factor_kind == "lu":
            self._emit_simplicial_lu(out, stmt)
            return
        n = stmt.n
        ldlt = stmt.factor_kind == "ldlt"
        self._emit_cholesky_preamble(
            out, stmt.l_indptr, stmt.l_indices, stmt.a_diag_pos, stmt.a_col_end, n,
            ldlt=ldlt,
        )
        pp = self._add_constant("prune_ptr", stmt.prune_ptr)
        up = self._add_constant("update_pos", stmt.update_pos)
        ue = self._add_constant("update_end", stmt.update_end)
        uc = self._add_constant("update_col", stmt.update_col) if ldlt else None
        out.emit("# simplicial left-looking factorization; update loop pruned to the")
        out.emit("# row sparsity pattern of L (all positions resolved at compile time)")
        out.emit(f"for j in range({n}):")
        out.push()
        out.emit("a0 = _ad[j]; a1 = _ae[j]")
        out.emit("f[Ai[a0:a1]] = Ax[a0:a1]")
        out.emit(f"for t in range({pp}[j], {pp}[j + 1]):")
        out.push()
        out.emit(f"ps = {up}[t]; pe = {ue}[t]")
        if ldlt:
            out.emit(f"ljk = Lx[ps] * D[{uc}[t]]")
        else:
            out.emit("ljk = Lx[ps]")
        if stmt.vectorize:
            out.emit("f[Li[ps:pe]] -= Lx[ps:pe] * ljk")
        else:
            out.emit("for p in range(ps, pe):")
            out.push()
            out.emit("f[Li[p]] -= Lx[p] * ljk")
            out.pop()
        out.pop()
        out.emit("lp0 = Lp[j]; lp1 = Lp[j + 1]")
        out.emit("d = f[j]")
        if ldlt:
            out.emit("if d == 0.0:")
            out.push()
            out.emit('raise ValueError("matrix is singular (zero pivot) at column %d" % j)')
            out.pop()
            out.emit("D[j] = d")
            out.emit("Lx[lp0] = 1.0")
            out.emit("Lx[lp0 + 1:lp1] = f[Li[lp0 + 1:lp1]] / d")
        else:
            out.emit("if d <= 0.0:")
            out.push()
            out.emit('raise ValueError("matrix is not positive definite at column %d" % j)')
            out.pop()
            out.emit("ljj = np.sqrt(d)")
            out.emit("Lx[lp0] = ljj")
            out.emit("Lx[lp0 + 1:lp1] = f[Li[lp0 + 1:lp1]] / ljj")
        out.emit("f[Li[lp0:lp1]] = 0.0")
        out.pop()

    def _emit_incomplete_factor(self, out: _Emitter, stmt: IncompleteFactorLoop) -> None:
        """Emit the no-fill incomplete factorization loop (IC(0)/ILU(0)).

        The factor pattern is the ``A`` pattern, so the kernel runs *in
        place* on the gathered factor values — no dense work vector.  Every
        update scatter was intersected with the destination pattern at
        compile time; the numeric loop only moves values.  The IC(0)
        arithmetic (operation per entry, operand order, ufunc choice) matches
        :func:`repro.solvers.cg.incomplete_cholesky_ic0` exactly, so the
        generated factor is bitwise identical to the interpreted one.
        """
        n = stmt.n
        lp = self._add_constant("l_indptr", stmt.l_indptr)
        alp = self._add_constant("a_lower_pos", stmt.a_lower_pos)
        pp = self._add_constant("prune_ptr", stmt.prune_ptr)
        mp = self._add_constant("mult_pos", stmt.mult_pos)
        lsp = self._add_constant("l_scat_ptr", stmt.l_scat_ptr)
        lss = self._add_constant("l_scat_src", stmt.l_scat_src)
        lsd = self._add_constant("l_scat_dst", stmt.l_scat_dst)
        out.emit(f"Lp = {lp}")
        if stmt.factor_kind == "ilu0":
            up = self._add_constant("u_indptr", stmt.u_indptr)
            aup = self._add_constant("a_upper_pos", stmt.a_upper_pos)
            lgd = self._add_constant("l_gather_dst", stmt.l_gather_dst)
            usp = self._add_constant("u_scat_ptr", stmt.u_scat_ptr)
            uss = self._add_constant("u_scat_src", stmt.u_scat_src)
            usd = self._add_constant("u_scat_dst", stmt.u_scat_dst)
            out.emit(f"Up = {up}")
            out.emit(f"Ux = Ax[{aup}]")
            out.emit(f"Lx = np.zeros({int(stmt.l_indptr[-1])})")
            out.emit(f"Lx[{lgd}] = Ax[{alp}]")
            out.emit("# ILU(0): in-place no-fill elimination on the A pattern")
            out.emit(f"for j in range({n}):")
            out.push()
            out.emit(f"for t in range({pp}[j], {pp}[j + 1]):")
            out.push()
            out.emit(f"ukj = Ux[{mp}[t]]")
            out.emit(f"s0 = {usp}[t]; s1 = {usp}[t + 1]")
            out.emit(f"Ux[{usd}[s0:s1]] -= Lx[{uss}[s0:s1]] * ukj")
            out.emit(f"s0 = {lsp}[t]; s1 = {lsp}[t + 1]")
            out.emit(f"Lx[{lsd}[s0:s1]] -= Lx[{lss}[s0:s1]] * ukj")
            out.pop()
            out.emit("piv = Ux[Up[j + 1] - 1]")
            out.emit("if piv == 0.0:")
            out.push()
            out.emit('raise ValueError("ILU(0) breakdown: zero pivot at column %d" % j)')
            out.pop()
            out.emit("lp0 = Lp[j]; lp1 = Lp[j + 1]")
            out.emit("Lx[lp0] = 1.0")
            out.emit("Lx[lp0 + 1:lp1] /= piv")
            out.pop()
            return
        out.emit(f"Lx = Ax[{alp}]")
        out.emit("# IC(0): in-place no-fill elimination on the tril(A) pattern")
        out.emit(f"for j in range({n}):")
        out.push()
        out.emit(f"for t in range({pp}[j], {pp}[j + 1]):")
        out.push()
        out.emit(f"ljk = Lx[{mp}[t]]")
        out.emit(f"s0 = {lsp}[t]; s1 = {lsp}[t + 1]")
        out.emit(f"Lx[{lsd}[s0:s1]] -= Lx[{lss}[s0:s1]] * ljk")
        out.pop()
        out.emit("lp0 = Lp[j]; lp1 = Lp[j + 1]")
        out.emit("d = Lx[lp0]")
        out.emit("if not d > 0.0:")
        out.push()
        out.emit(
            'raise ValueError("IC(0) breakdown: non-positive pivot at column %d" % j)'
        )
        out.pop()
        out.emit("ljj = np.sqrt(d)")
        out.emit("Lx[lp0] = ljj")
        out.emit("Lx[lp0 + 1:lp1] /= ljj")
        out.pop()

    def _emit_supernodal_cholesky(self, out: _Emitter, stmt: SupernodalCholeskyLoop) -> None:
        n = stmt.n
        ldlt = stmt.factor_kind == "ldlt"
        self._emit_cholesky_preamble(
            out, stmt.l_indptr, stmt.l_indices, stmt.a_diag_pos, stmt.a_col_end, n,
            ldlt=ldlt,
        )
        ss = self._add_constant("sup_start", stmt.sup_start)
        se = self._add_constant("sup_end", stmt.sup_end)
        dp = self._add_constant("desc_ptr", stmt.desc_ptr)
        dpos = self._add_constant("desc_pos", stmt.desc_pos)
        dme = self._add_constant("desc_mult_end", stmt.desc_mult_end)
        dend = self._add_constant("desc_end", stmt.desc_end)
        dc = self._add_constant("desc_col", stmt.desc_col) if ldlt else None
        n_super = stmt.n_supernodes
        out.emit(f"_rowmap = np.empty({n}, dtype=np.int64)")
        out.emit("# supernodal left-looking factorization over the block-set")
        out.emit(f"for s in range({n_super}):")
        out.push()
        out.emit(f"c0 = {ss}[s]; c1 = {se}[s]; w = c1 - c0")
        if stmt.distribute_single_columns:
            out.emit("if w == 1:")
            out.push()
            out.emit("# streamlined single-column path (loop distribution)")
            out.emit("lp0 = Lp[c0]; lp1 = Lp[c0 + 1]")
            out.emit("a0 = _ad[c0]; a1 = _ae[c0]")
            out.emit("f[Ai[a0:a1]] = Ax[a0:a1]")
            out.emit(f"for t in range({dp}[s], {dp}[s + 1]):")
            out.push()
            out.emit(f"ps = {dpos}[t]; pe = {dend}[t]")
            if ldlt:
                out.emit(f"ljk = Lx[ps] * D[{dc}[t]]")
            else:
                out.emit("ljk = Lx[ps]")
            out.emit("f[Li[ps:pe]] -= Lx[ps:pe] * ljk")
            out.pop()
            out.emit("d = f[c0]")
            if ldlt:
                out.emit("if d == 0.0:")
                out.push()
                out.emit('raise ValueError("matrix is singular (zero pivot) at column %d" % c0)')
                out.pop()
                out.emit("D[c0] = d")
                out.emit("Lx[lp0] = 1.0")
                out.emit("Lx[lp0 + 1:lp1] = f[Li[lp0 + 1:lp1]] / d")
            else:
                out.emit("if d <= 0.0:")
                out.push()
                out.emit('raise ValueError("matrix is not positive definite at column %d" % c0)')
                out.pop()
                out.emit("ljj = np.sqrt(d)")
                out.emit("Lx[lp0] = ljj")
                out.emit("Lx[lp0 + 1:lp1] = f[Li[lp0 + 1:lp1]] / ljj")
            out.emit("f[Li[lp0:lp1]] = 0.0")
            out.emit("continue")
            out.pop()
        out.emit("r0 = Lp[c0]; r1 = Lp[c0 + 1]")
        out.emit("rows = Li[r0:r1]")
        out.emit("nr = r1 - r0")
        out.emit("_rowmap[rows] = np.arange(nr)")
        out.emit("panel = np.zeros((nr, w))")
        out.emit("for jj in range(w):")
        out.push()
        out.emit("c = c0 + jj")
        out.emit("a0 = _ad[c]; a1 = _ae[c]")
        out.emit("panel[_rowmap[Ai[a0:a1]], jj] = Ax[a0:a1]")
        out.pop()
        out.emit(f"for t in range({dp}[s], {dp}[s + 1]):")
        out.push()
        out.emit(f"ps = {dpos}[t]; pm = {dme}[t]; pe = {dend}[t]")
        out.emit("vals = Lx[ps:pe]")
        out.emit("m = np.zeros(w)")
        if ldlt:
            out.emit(f"m[Li[ps:pm] - c0] = Lx[ps:pm] * D[{dc}[t]]")
        else:
            out.emit("m[Li[ps:pm] - c0] = Lx[ps:pm]")
        out.emit("panel[_rowmap[Li[ps:pe]], :] -= np.outer(vals, m)")
        out.pop()
        if ldlt:
            out.emit("_Db = panel[:w, :w]")
            out.emit("Ld, _dv = _rt.dense_ldlt(_Db)")
            out.emit("D[c0:c1] = _dv")
            out.emit("if nr > w:")
            out.push()
            out.emit("panel[w:, :] = _rt.dense_solve_transposed_right(Ld, panel[w:, :]) / _dv")
            out.pop()
        else:
            out.emit("D = panel[:w, :w]")
            if stmt.use_small_kernels:
                out.emit(f"if w <= {stmt.small_kernel_max_width}:")
                out.push()
                out.emit("Ld = _rt.small_cholesky(D)")
                out.pop()
                out.emit("else:")
                out.push()
                out.emit("Ld = _rt.dense_cholesky(D)")
                out.pop()
            else:
                out.emit("Ld = _rt.dense_cholesky(D)")
            out.emit("if nr > w:")
            out.push()
            out.emit("panel[w:, :] = _rt.dense_solve_transposed_right(Ld, panel[w:, :])")
            out.pop()
        out.emit("for jj in range(w):")
        out.push()
        out.emit("c = c0 + jj")
        out.emit("lp0 = Lp[c]")
        out.emit("Lx[lp0:lp0 + (w - jj)] = Ld[jj:, jj]")
        out.emit("Lx[lp0 + (w - jj):Lp[c + 1]] = panel[w:, jj]")
        out.pop()
        out.pop()
