"""Experiment drivers: one function per table/figure of the paper.

Every driver returns a list of row dicts (one row per suite matrix, or per
matrix × variant) so it can be rendered by :mod:`repro.bench.reporting`
and asserted on by the integration tests.  EXPERIMENTS.md records the measured outcomes
against the paper's numbers.

Variant naming follows the paper's legends:

* Figure 6 (triangular solve, GFLOP/s): ``eigen``, ``sympiler_vs_block``,
  ``sympiler_vs_vi``, ``sympiler_full`` (VS-Block + VI-Prune + low-level).
* Figure 7 (Cholesky, GFLOP/s): ``eigen_numeric``, ``cholmod_numeric``,
  ``sympiler_vs_block``, ``sympiler_full``.
* Figures 8/9 (accumulated symbolic + numeric, normalized to Eigen).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.baselines.cholmod_like import cholmod_like_numeric, cholmod_like_symbolic
from repro.baselines.eigen_like import (
    eigen_like_numeric,
    eigen_like_symbolic,
    eigen_like_trisolve,
)
from repro.bench.metrics import gflops_rate, time_callable
from repro.bench.reporting import geometric_mean
from repro.bench.suite import SuiteEntry, build_suite, load_suite_matrix
from repro.compiler.options import SympilerOptions
from repro.compiler.sympiler import Sympiler
from repro.kernels.cholesky import cholesky_supernodal
from repro.kernels.flops import cholesky_flops, triangular_solve_flops
from repro.kernels.triangular import trisolve_naive
from repro.sparse.generators import sparse_rhs, unsymmetric_diag_dominant
from repro.symbolic.inspector import CholeskyInspector
from repro.symbolic.reach import reach_set_sorted

__all__ = [
    "table2_suite_listing",
    "fig6_triangular_performance",
    "fig7_cholesky_performance",
    "fig8_triangular_accumulated",
    "fig9_cholesky_accumulated",
    "intro_triangular_speedups",
    "overhead_report",
    "ldlt_performance",
    "lu_performance",
    "batched_throughput",
    "pcg_performance",
    "serving_throughput",
    "wavefront_execution",
    "frontend_specialization",
    "observe_overhead",
]

#: RHS fill used for the triangular-solve experiments (< 5 %, §4.2).
RHS_DENSITY = 0.02


# --------------------------------------------------------------------------- #
# Shared per-matrix preparation
# --------------------------------------------------------------------------- #
class PreparedMatrix:
    """Cached artefacts for one suite entry (matrix, factor, RHS)."""

    def __init__(self, entry: SuiteEntry, *, rhs_density: float = RHS_DENSITY, backend: str = "python") -> None:
        self.entry = entry
        self.backend = backend
        self.A = load_suite_matrix(entry)
        self.inspection = CholeskyInspector().inspect(self.A)
        self.L = cholesky_supernodal(self.A, self.inspection)
        self.b = sparse_rhs(self.A.n, density=rhs_density, seed=1000 + entry.problem_id)
        self.rhs_pattern = np.nonzero(self.b)[0]

    def options(self, **overrides) -> SympilerOptions:
        """Sympiler options bound to the selected backend."""
        return SympilerOptions(backend=self.backend, **overrides)


_PREPARED_CACHE: Dict[str, PreparedMatrix] = {}


def prepare(entry: SuiteEntry, *, backend: str = "python") -> PreparedMatrix:
    """Build (or fetch from cache) the prepared artefacts of a suite entry."""
    key = f"{entry.name}:{backend}"
    if key not in _PREPARED_CACHE:
        _PREPARED_CACHE[key] = PreparedMatrix(entry, backend=backend)
    return _PREPARED_CACHE[key]


def _entries(suite: Optional[Sequence[SuiteEntry]]) -> List[SuiteEntry]:
    return list(suite) if suite is not None else build_suite()


# --------------------------------------------------------------------------- #
# Table 2
# --------------------------------------------------------------------------- #
def table2_suite_listing(suite: Optional[Sequence[SuiteEntry]] = None) -> List[Dict[str, object]]:
    """Table 2: the matrix suite with order and nonzero counts."""
    rows: List[Dict[str, object]] = []
    for entry in _entries(suite):
        A = load_suite_matrix(entry)
        rows.append(
            {
                "problem_id": entry.problem_id,
                "name": entry.name,
                "stands_in_for": entry.stands_in_for,
                "n": A.n,
                "nnz_A": A.nnz,
                "ordering": entry.ordering,
                "domain": entry.domain,
            }
        )
    return rows


# --------------------------------------------------------------------------- #
# Figure 6: triangular solve performance
# --------------------------------------------------------------------------- #
def fig6_triangular_performance(
    suite: Optional[Sequence[SuiteEntry]] = None,
    *,
    repeats: int = 3,
    backend: str = "python",
) -> List[Dict[str, object]]:
    """Figure 6: triangular-solve GFLOP/s, Sympiler variants vs. Eigen."""
    rows: List[Dict[str, object]] = []
    sym = Sympiler()
    for entry in _entries(suite):
        prep = prepare(entry, backend=backend)
        L, b, rhs = prep.L, prep.b, prep.rhs_pattern
        # Useful FLOPs of the solve: every variant performs (at least) the work
        # of the reach-set columns, so all GFLOP/s figures use this count.
        flops = triangular_solve_flops(L, reach_set_sorted(L, rhs))

        eigen_seconds, x_ref = time_callable(lambda: eigen_like_trisolve(L, b), repeats=repeats)

        variants = {
            "sympiler_vs_block": prep.options(enable_vi_prune=False, enable_low_level=False),
            "sympiler_vs_vi": prep.options(enable_low_level=False),
            "sympiler_full": prep.options(),
        }
        row: Dict[str, object] = {
            "problem_id": entry.problem_id,
            "name": entry.name,
            "n": L.n,
            "nnz_L": L.nnz,
            "reach_size": 0,
            "eigen_gflops": gflops_rate(flops, eigen_seconds),
            "eigen_seconds": eigen_seconds,
        }
        for vname, opts in variants.items():
            compiled = sym.compile_triangular_solve(L, rhs_pattern=rhs, options=opts)
            row["reach_size"] = compiled.reach_size
            seconds, x = time_callable(lambda: compiled.solve(L, b), repeats=repeats)
            if not np.allclose(x, x_ref, atol=1e-8):
                raise AssertionError(f"variant {vname} produced a wrong solution on {entry.name}")
            row[f"{vname}_gflops"] = gflops_rate(flops, seconds)
            row[f"{vname}_seconds"] = seconds
            row[f"{vname}_speedup_vs_eigen"] = eigen_seconds / seconds
        rows.append(row)
    speedups = [r["sympiler_full_speedup_vs_eigen"] for r in rows]
    if speedups:
        rows.append(
            {
                "problem_id": "-",
                "name": "geomean",
                "n": "-",
                "nnz_L": "-",
                "reach_size": "-",
                "eigen_gflops": "-",
                "eigen_seconds": "-",
                "sympiler_full_speedup_vs_eigen": geometric_mean(speedups),
            }
        )
    return rows


# --------------------------------------------------------------------------- #
# Figure 7: Cholesky performance
# --------------------------------------------------------------------------- #
def fig7_cholesky_performance(
    suite: Optional[Sequence[SuiteEntry]] = None,
    *,
    repeats: int = 2,
    backend: str = "python",
) -> List[Dict[str, object]]:
    """Figure 7: Cholesky numeric GFLOP/s — Eigen, CHOLMOD and Sympiler."""
    rows: List[Dict[str, object]] = []
    sym = Sympiler()
    for entry in _entries(suite):
        prep = prepare(entry, backend=backend)
        A = prep.A
        flops = cholesky_flops(prep.inspection.l_col_counts)
        l_ref = prep.L.to_dense()

        eigen_sym = eigen_like_symbolic(A)
        eigen_seconds, eigen_L = time_callable(
            lambda: eigen_like_numeric(A, eigen_sym), repeats=repeats
        )
        cholmod_sym = cholmod_like_symbolic(A)
        cholmod_seconds, cholmod_L = time_callable(
            lambda: cholmod_like_numeric(A, cholmod_sym), repeats=repeats
        )
        if not np.allclose(eigen_L.to_dense(), l_ref, atol=1e-8):
            raise AssertionError(f"Eigen-like factor mismatch on {entry.name}")
        if not np.allclose(cholmod_L.to_dense(), l_ref, atol=1e-8):
            raise AssertionError(f"CHOLMOD-like factor mismatch on {entry.name}")

        row: Dict[str, object] = {
            "problem_id": entry.problem_id,
            "name": entry.name,
            "n": A.n,
            "nnz_L": prep.inspection.factor_nnz,
            "eigen_gflops": gflops_rate(flops, eigen_seconds),
            "cholmod_gflops": gflops_rate(flops, cholmod_seconds),
            "eigen_seconds": eigen_seconds,
            "cholmod_seconds": cholmod_seconds,
        }
        variants = {
            "sympiler_vs_block": prep.options(enable_low_level=False),
            "sympiler_full": prep.options(),
        }
        for vname, opts in variants.items():
            compiled = sym.compile_cholesky(A, options=opts)
            seconds, L = time_callable(lambda: compiled.factorize(A), repeats=repeats)
            if not np.allclose(L.to_dense(), l_ref, atol=1e-8):
                raise AssertionError(f"variant {vname} factor mismatch on {entry.name}")
            row[f"{vname}_gflops"] = gflops_rate(flops, seconds)
            row[f"{vname}_seconds"] = seconds
        row["sympiler_speedup_vs_eigen"] = eigen_seconds / row["sympiler_full_seconds"]
        row["sympiler_speedup_vs_cholmod"] = cholmod_seconds / row["sympiler_full_seconds"]
        rows.append(row)
    if rows:
        rows.append(
            {
                "problem_id": "-",
                "name": "geomean",
                "n": "-",
                "nnz_L": "-",
                "sympiler_speedup_vs_eigen": geometric_mean(
                    [r["sympiler_speedup_vs_eigen"] for r in rows]
                ),
                "sympiler_speedup_vs_cholmod": geometric_mean(
                    [r["sympiler_speedup_vs_cholmod"] for r in rows]
                ),
            }
        )
    return rows


# --------------------------------------------------------------------------- #
# Figure 8: triangular solve, accumulated symbolic + numeric
# --------------------------------------------------------------------------- #
def fig8_triangular_accumulated(
    suite: Optional[Sequence[SuiteEntry]] = None,
    *,
    repeats: int = 3,
    backend: str = "python",
) -> List[Dict[str, object]]:
    """Figure 8: Sympiler symbolic+numeric time normalized to Eigen's solve."""
    rows: List[Dict[str, object]] = []
    sym = Sympiler()
    for entry in _entries(suite):
        prep = prepare(entry, backend=backend)
        L, b, rhs = prep.L, prep.b, prep.rhs_pattern
        eigen_seconds, x_ref = time_callable(lambda: eigen_like_trisolve(L, b), repeats=repeats)
        compiled = sym.compile_triangular_solve(L, rhs_pattern=rhs, options=prep.options())
        numeric_seconds, x = time_callable(lambda: compiled.solve(L, b), repeats=repeats)
        if not np.allclose(x, x_ref, atol=1e-8):
            raise AssertionError(f"Sympiler trisolve mismatch on {entry.name}")
        symbolic_seconds = compiled.timings.inspection + compiled.timings.transformation
        codegen_seconds = compiled.timings.codegen + compiled.timings.compile
        rows.append(
            {
                "problem_id": entry.problem_id,
                "name": entry.name,
                "eigen_seconds": eigen_seconds,
                "sympiler_numeric_seconds": numeric_seconds,
                "sympiler_symbolic_seconds": symbolic_seconds,
                "sympiler_codegen_seconds": codegen_seconds,
                "sympiler_numeric_normalized": numeric_seconds / eigen_seconds,
                "sympiler_accumulated_normalized": (numeric_seconds + symbolic_seconds)
                / eigen_seconds,
                "codegen_over_numeric": codegen_seconds / max(numeric_seconds, 1e-12),
            }
        )
    return rows


# --------------------------------------------------------------------------- #
# Figure 9: Cholesky, accumulated symbolic + numeric
# --------------------------------------------------------------------------- #
def fig9_cholesky_accumulated(
    suite: Optional[Sequence[SuiteEntry]] = None,
    *,
    repeats: int = 2,
    backend: str = "python",
) -> List[Dict[str, object]]:
    """Figure 9: symbolic+numeric time of all three systems normalized to Eigen."""
    rows: List[Dict[str, object]] = []
    sym = Sympiler()
    for entry in _entries(suite):
        prep = prepare(entry, backend=backend)
        A = prep.A
        eigen_sym = eigen_like_symbolic(A)
        eigen_numeric_seconds, _ = time_callable(
            lambda: eigen_like_numeric(A, eigen_sym), repeats=repeats
        )
        eigen_total = eigen_sym.seconds + eigen_numeric_seconds
        cholmod_sym = cholmod_like_symbolic(A)
        cholmod_numeric_seconds, _ = time_callable(
            lambda: cholmod_like_numeric(A, cholmod_sym), repeats=repeats
        )
        compiled = sym.compile_cholesky(A, options=prep.options())
        sympiler_numeric_seconds, _ = time_callable(
            lambda: compiled.factorize(A), repeats=repeats
        )
        sympiler_symbolic = compiled.timings.inspection + compiled.timings.transformation
        sympiler_codegen = compiled.timings.codegen + compiled.timings.compile
        rows.append(
            {
                "problem_id": entry.problem_id,
                "name": entry.name,
                "eigen_symbolic_seconds": eigen_sym.seconds,
                "eigen_numeric_seconds": eigen_numeric_seconds,
                "cholmod_symbolic_seconds": cholmod_sym.seconds,
                "cholmod_numeric_seconds": cholmod_numeric_seconds,
                "sympiler_symbolic_seconds": sympiler_symbolic,
                "sympiler_numeric_seconds": sympiler_numeric_seconds,
                "sympiler_codegen_seconds": sympiler_codegen,
                "eigen_total_normalized": 1.0,
                "cholmod_total_normalized": (cholmod_sym.seconds + cholmod_numeric_seconds)
                / eigen_total,
                "sympiler_total_normalized": (sympiler_symbolic + sympiler_numeric_seconds)
                / eigen_total,
                "codegen_over_numeric": sympiler_codegen
                / max(sympiler_numeric_seconds, 1e-12),
            }
        )
    return rows


# --------------------------------------------------------------------------- #
# §1.1 intro speedups (vs. naive and library triangular solve)
# --------------------------------------------------------------------------- #
def intro_triangular_speedups(
    suite: Optional[Sequence[SuiteEntry]] = None,
    *,
    repeats: int = 3,
    backend: str = "python",
) -> List[Dict[str, object]]:
    """§1.1: Sympiler trisolve speedup over Fig. 1b (naive) and Fig. 1c (library)."""
    rows: List[Dict[str, object]] = []
    sym = Sympiler()
    for entry in _entries(suite):
        prep = prepare(entry, backend=backend)
        L, b, rhs = prep.L, prep.b, prep.rhs_pattern
        naive_seconds, x_ref = time_callable(lambda: trisolve_naive(L, b), repeats=repeats)
        library_seconds, _ = time_callable(lambda: eigen_like_trisolve(L, b), repeats=repeats)
        compiled = sym.compile_triangular_solve(L, rhs_pattern=rhs, options=prep.options())
        sympiler_seconds, x = time_callable(lambda: compiled.solve(L, b), repeats=repeats)
        if not np.allclose(x, x_ref, atol=1e-8):
            raise AssertionError(f"Sympiler trisolve mismatch on {entry.name}")
        rows.append(
            {
                "problem_id": entry.problem_id,
                "name": entry.name,
                "reach_size": compiled.reach_size,
                "n": L.n,
                "speedup_vs_naive": naive_seconds / sympiler_seconds,
                "speedup_vs_library": library_seconds / sympiler_seconds,
            }
        )
    if rows:
        rows.append(
            {
                "problem_id": "-",
                "name": "geomean",
                "reach_size": "-",
                "n": "-",
                "speedup_vs_naive": geometric_mean([r["speedup_vs_naive"] for r in rows]),
                "speedup_vs_library": geometric_mean([r["speedup_vs_library"] for r in rows]),
            }
        )
    return rows


# --------------------------------------------------------------------------- #
# LDL^T: the registry-extension kernel
# --------------------------------------------------------------------------- #
def ldlt_performance(
    suite: Optional[Sequence[SuiteEntry]] = None,
    *,
    repeats: int = 2,
    backend: str = "python",
) -> List[Dict[str, object]]:
    """LDLᵀ vs. Cholesky numeric factorization on the suite matrices.

    Exercises the kernel-registry extension end to end: both factorizations
    are compiled through the generic ``Sympiler.compile`` path, the LDLᵀ
    result is validated by reconstruction (``L D Lᵀ = A``), and a repeat
    compile of the same pattern must be an artifact-cache hit.
    """
    rows: List[Dict[str, object]] = []
    sym = Sympiler()
    for entry in _entries(suite):
        prep = prepare(entry, backend=backend)
        A = prep.A
        flops = cholesky_flops(prep.inspection.l_col_counts)

        chol = sym.compile("cholesky", A, options=prep.options())
        chol_seconds, _ = time_callable(lambda: chol.factorize(A), repeats=repeats)
        ldlt = sym.compile("ldlt", A, options=prep.options())
        ldlt_seconds, fac = time_callable(lambda: ldlt.factorize(A), repeats=repeats)
        if not np.allclose(fac.reconstruct_dense(), A.to_dense(), atol=1e-8):
            raise AssertionError(f"LDL^T reconstruction mismatch on {entry.name}")

        hits_before = sym.cache.stats.hits
        recompiled = sym.compile("ldlt", A, options=prep.options())
        cache_hit = recompiled is ldlt and sym.cache.stats.hits == hits_before + 1

        rows.append(
            {
                "problem_id": entry.problem_id,
                "name": entry.name,
                "n": A.n,
                "nnz_L": ldlt.factor_nnz,
                "cholesky_gflops": gflops_rate(flops, chol_seconds),
                "ldlt_gflops": gflops_rate(flops, ldlt_seconds),
                "cholesky_seconds": chol_seconds,
                "ldlt_seconds": ldlt_seconds,
                "ldlt_over_cholesky": ldlt_seconds / max(chol_seconds, 1e-12),
                "recompile_cache_hit": cache_hit,
                "symbolic_seconds": ldlt.timings.inspection + ldlt.timings.transformation,
            }
        )
    return rows


# --------------------------------------------------------------------------- #
# LU: the unsymmetric registry-extension kernel
# --------------------------------------------------------------------------- #
def lu_performance(
    suite: Optional[Sequence[SuiteEntry]] = None,
    *,
    repeats: int = 2,
    backend: str = "python",
) -> List[Dict[str, object]]:
    """LU numeric factorization on unsymmetric diagonally dominant matrices.

    The suite only fixes the problem *sizes*: each entry is paired with an
    unsymmetric diagonally dominant Jacobian analogue of the same order from
    :func:`unsymmetric_diag_dominant`.  Exercises the kernel-registry
    extension end to end — the LU kernel is compiled through the generic
    ``Sympiler.compile`` path, the result is validated by reconstruction
    (``L U = A``) and against ``scipy.sparse.linalg.splu``'s solution, and a
    repeat compile of the same pattern must be an artifact-cache hit.
    """
    rows: List[Dict[str, object]] = []
    sym = Sympiler()
    for entry in _entries(suite):
        # Only the problem size is taken from the suite entry; skip its
        # fill-reducing ordering (permute=False) since the matrix is rebuilt.
        n = load_suite_matrix(entry, permute=False, cache=False).n
        A = unsymmetric_diag_dominant(n, seed=700 + entry.problem_id)
        options = SympilerOptions(backend=backend)

        compiled = sym.compile("lu", A, options=options)
        lu_seconds, fac = time_callable(lambda: compiled.factorize(A), repeats=repeats)
        if not np.allclose(fac.reconstruct_dense(), A.to_dense(), atol=1e-8):
            raise AssertionError(f"LU reconstruction mismatch on {entry.name}")

        b = np.arange(1.0, n + 1.0) / n
        x = fac.solve(b)
        row: Dict[str, object] = {
            "problem_id": entry.problem_id,
            "name": entry.name,
            "n": n,
            "nnz_A": A.nnz,
            "nnz_LU": compiled.factor_nnz,
            "lu_seconds": lu_seconds,
            "residual": float(np.linalg.norm(A.matvec(x) - b)),
            "symbolic_seconds": compiled.timings.inspection + compiled.timings.transformation,
        }
        try:
            from scipy.sparse.linalg import splu
        except ImportError:  # pragma: no cover - scipy is an optional baseline
            row["splu_seconds"] = float("nan")
        else:
            A_scipy = A.to_scipy().tocsc()
            splu_seconds, lu_ref = time_callable(lambda: splu(A_scipy), repeats=repeats)
            if not np.allclose(lu_ref.solve(b), x, atol=1e-8):
                raise AssertionError(f"LU solution differs from splu on {entry.name}")
            row["splu_seconds"] = splu_seconds
            row["lu_over_splu"] = lu_seconds / max(splu_seconds, 1e-12)

        hits_before = sym.cache.stats.hits
        recompiled = sym.compile("lu", A, options=options)
        row["recompile_cache_hit"] = bool(
            recompiled is compiled and sym.cache.stats.hits == hits_before + 1
        )
        rows.append(row)
    return rows


# --------------------------------------------------------------------------- #
# PCG: IC(0)-preconditioned conjugate gradient (incomplete-kernel extension)
# --------------------------------------------------------------------------- #
def pcg_performance(
    suite: Optional[Sequence[SuiteEntry]] = None,
    *,
    repeats: int = 2,
    backend: str = "python",
    tol: float = 1e-8,
) -> List[Dict[str, object]]:
    """IC(0)-preconditioned CG: compiled vs. interpreted preconditioner vs. scipy.

    Exercises the incomplete-kernel registry extension end to end on the SPD
    suite matrices: the compiled path factors through the generated ``ic0``
    kernel, the interpreted path through the NumPy reference loop (on the
    python backend the two runs are asserted **bitwise identical** — same
    iterates, same residual history), and ``scipy.sparse.linalg.cg`` provides
    the library baseline at the same tolerance.  Kernels are compiled during
    a warm-up solve, so the timed runs measure the iteration loop the way the
    paper's §4.3 amortization argument frames it.
    """
    from repro.solvers.cg import preconditioned_conjugate_gradient

    rows: List[Dict[str, object]] = []
    for entry in _entries(suite):
        A = load_suite_matrix(entry)
        b = A.matvec(np.arange(1.0, A.n + 1.0) / A.n)  # deterministic RHS
        options = SympilerOptions(backend=backend)

        def run(preconditioner: str):
            return preconditioned_conjugate_gradient(
                A, b, tol=tol, preconditioner=preconditioner, options=options
            )

        compiled_seconds, compiled = time_callable(
            lambda: run("compiled"), repeats=repeats
        )
        interpreted_seconds, interpreted = time_callable(
            lambda: run("interpreted"), repeats=repeats
        )
        if not compiled.converged:
            raise AssertionError(f"compiled-IC0 PCG did not converge on {entry.name}")
        bitwise = bool(
            np.array_equal(compiled.x, interpreted.x)
            and compiled.residual_norms == interpreted.residual_norms
        )
        if not bitwise:
            raise AssertionError(
                f"compiled and interpreted IC0 PCG diverge on {entry.name}"
            )
        plain = preconditioned_conjugate_gradient(
            A, b, tol=tol, use_preconditioner=False, max_iterations=10 * A.n
        )
        row: Dict[str, object] = {
            "problem_id": entry.problem_id,
            "name": entry.name,
            "n": A.n,
            "nnz_A": A.nnz,
            "iterations": compiled.iterations,
            "plain_cg_iterations": plain.iterations,
            "converged": compiled.converged,
            "final_residual": compiled.final_residual,
            "bitwise_identical": bitwise,
            "compiled_seconds": compiled_seconds,
            "interpreted_seconds": interpreted_seconds,
            "interpreted_over_compiled": interpreted_seconds
            / max(compiled_seconds, 1e-12),
        }
        try:
            from scipy.sparse.linalg import cg as scipy_cg
        except ImportError:  # pragma: no cover - scipy is an optional baseline
            row["scipy_cg_seconds"] = float("nan")
        else:
            A_scipy = A.to_scipy().tocsc()
            counter = {"iterations": 0}

            def count(_xk):
                counter["iterations"] += 1

            def run_scipy():
                counter["iterations"] = 0
                try:
                    return scipy_cg(A_scipy, b, rtol=tol, callback=count)
                except TypeError:  # pragma: no cover - scipy < 1.12 spelling
                    return scipy_cg(A_scipy, b, tol=tol, callback=count)

            scipy_seconds, (x_scipy, info) = time_callable(run_scipy, repeats=repeats)
            if info == 0 and not np.allclose(x_scipy, compiled.x, atol=1e-5):
                raise AssertionError(f"PCG and scipy cg disagree on {entry.name}")
            row["scipy_cg_seconds"] = scipy_seconds
            row["scipy_cg_iterations"] = counter["iterations"]
            row["speedup_vs_scipy_cg"] = scipy_seconds / max(compiled_seconds, 1e-12)
        rows.append(row)
    return rows


# --------------------------------------------------------------------------- #
# Batched numeric runtime: sequential vs. batched throughput
# --------------------------------------------------------------------------- #
def batched_throughput(
    suite: Optional[Sequence[SuiteEntry]] = None,
    *,
    repeats: int = 2,
    backend: str = "python",
    threads: Optional[int] = None,
    batch: int = 16,
) -> List[Dict[str, object]]:
    """Sequential vs. batched numeric factorization over shared-pattern batches.

    For each suite entry an SPD matrix of comparable (floored) size is
    diagonally perturbed into ``batch`` value sets sharing one pattern — the
    parameter-sweep workload the batched runtime serves.  The sequential
    baseline loops the compiled artifact's own entry point; the batched run
    goes through :class:`~repro.runtime.BatchedSolver.factorize_batch` with
    ``threads`` workers (``None`` → the options default, ``0`` → one per
    CPU).  Every batched item is checked **bitwise** against its sequential
    counterpart, and the artifact/disk cache counters are sampled around the
    batched run — ``batch_recompiles`` must stay 0 (batching reuses the one
    compiled kernel), which CI asserts on the emitted JSON.
    """
    import os

    from repro.compiler.codegen.c_backend import (
        CGeneratedModule,
        disk_cache_stats,
    )
    from repro.runtime.facade import BatchedSolver
    from repro.sparse.generators import laplacian_2d
    from repro.sparse.ordering import ordering_by_name

    rows: List[Dict[str, object]] = []
    for entry in _entries(suite):
        A = load_suite_matrix(entry)
        if A.n < 900:
            # Thread-pool overhead would dominate the tiny smoke matrices;
            # stand in a same-class 2-D grid of useful size (deterministic
            # per entry) so the throughput comparison is meaningful.
            side = 30 + 2 * (entry.problem_id % 4)
            grid = laplacian_2d(side, shift=0.1)
            A = ordering_by_name("mindeg")(grid).symmetric_permute(grid)
        options = SympilerOptions(backend=backend)
        if threads is not None:
            options = options.with_updates(num_threads=threads)
        batched = BatchedSolver(A, ordering="natural", options=options)
        artifact = batched.solver._factorization
        permuted = batched.solver.A_permuted
        diag_positions = np.array(
            [
                permuted.indptr[j]
                + int(np.nonzero(permuted.col_rows(j) == j)[0][0])
                for j in range(permuted.n)
            ]
        )
        value_sets = []
        for b in range(batch):
            data = permuted.data.copy()
            data[diag_positions] *= 1.0 + 0.01 * b  # SPD-preserving sweep
            value_sets.append(data)

        def run_sequential():
            return [
                artifact.factorize_arrays(permuted.indptr, permuted.indices, ax)
                for ax in value_sets
            ]

        seq_seconds, seq_outputs = time_callable(run_sequential, repeats=repeats)

        disk_before = dict(disk_cache_stats().as_dict())
        cache_stats = batched.solver.cache_stats
        misses_before = cache_stats.misses

        def run_batched():
            result = batched.executor.factorize_batch(
                permuted.indptr, permuted.indices, value_sets
            )
            result.raise_first()
            return result

        batch_seconds, batch_result = time_callable(run_batched, repeats=repeats)
        disk_after = dict(disk_cache_stats().as_dict())
        recompiles = (
            (disk_after["compiles"] - disk_before["compiles"])
            + (disk_after["py_writes"] - disk_before["py_writes"])
            + (cache_stats.misses - misses_before)
        )

        bitwise = all(
            _raw_outputs_equal(seq_outputs[b], batch_result.results[b])
            for b in range(batch)
        )
        if not bitwise:
            raise AssertionError(
                f"batched factorization differs from sequential on {entry.name}"
            )
        schedule = artifact.schedule
        rows.append(
            {
                "problem_id": entry.problem_id,
                "name": entry.name,
                "n": A.n,
                "nnz_L": artifact.factor_nnz,
                "backend": backend,
                "backend_effective": (
                    "c" if isinstance(artifact.module, CGeneratedModule) else "python"
                ),
                "mode": batch_result.mode,
                "threads": batched.num_threads,
                "batch": batch,
                "cpu_count": os.cpu_count() or 1,
                "seq_seconds": seq_seconds,
                "batch_seconds": batch_seconds,
                "seq_items_per_second": batch / max(seq_seconds, 1e-12),
                "batched_items_per_second": batch / max(batch_seconds, 1e-12),
                "speedup": seq_seconds / max(batch_seconds, 1e-12),
                "bitwise_identical": bitwise,
                "batch_recompiles": int(recompiles),
                "schedule_levels": schedule.n_levels,
                "schedule_avg_width": schedule.average_width,
            }
        )
    return rows


# --------------------------------------------------------------------------- #
# Serving layer: coalesced vs uncoalesced vs naive per-request baselines
# --------------------------------------------------------------------------- #
def serving_throughput(
    suite: Optional[Sequence[SuiteEntry]] = None,
    *,
    backend: str = "python",
    threads: Optional[int] = None,
    requests: int = 48,
    window_seconds: float = 0.05,
    max_batch: int = 16,
) -> List[Dict[str, object]]:
    """Same-pattern request traffic through the solver service.

    For each suite entry, ``requests`` solves (scaled SPD value sets +
    distinct right-hand sides on one pattern) run four ways:

    * ``naive`` — per-request ``scipy.sparse.linalg.spsolve`` (no
      amortization at all: the traffic-scale baseline),
    * ``sequential`` — one :class:`SparseLinearSolver`, factorize + solve
      per request (in-process amortization, the bitwise oracle),
    * ``uncoalesced`` — the service with ``coalesce=False``: every request
      dispatches alone through the full serving path,
    * ``coalesced`` — the service with micro-batching: in-flight
      same-pattern requests share one dispatch (a loop of the same warm
      step, so ``coalesced_over_uncoalesced`` is reported, not gated).

    The gated metrics are machine-portable: ``serving_recompiles`` counts
    kernels regenerated under sustained load after warm-up (must be 0),
    ``bitwise_identical`` compares every coalesced solution against the
    sequential oracle bit for bit, ``coalescing_ratio`` is the mean
    dispatched batch size, and
    ``reregister_warm`` asserts the evict → re-register path reuses
    generated code from the on-disk cache without recompiling.
    """
    import os

    import scipy.sparse.linalg as spla

    from repro.compiler.codegen.c_backend import disk_cache_stats
    from repro.service.session import SolverService
    from repro.solvers.linear_solver import SparseLinearSolver
    from repro.sparse.generators import laplacian_2d
    from repro.sparse.ordering import ordering_by_name

    rows: List[Dict[str, object]] = []
    for entry in _entries(suite):
        A = load_suite_matrix(entry)
        if A.n < 400:
            # The tiny smoke matrices would hide the dispatch-vs-kernel cost
            # split; stand in a same-class 2-D grid (deterministic per entry).
            side = 22 + 2 * (entry.problem_id % 3)
            grid = laplacian_2d(side, shift=0.1)
            A = ordering_by_name("mindeg")(grid).symmetric_permute(grid)
        options = SympilerOptions(backend=backend)
        if threads is not None:
            options = options.with_updates(num_threads=threads)

        scales = 1.0 + 0.01 * np.arange(requests, dtype=np.float64)
        value_sets = [A.data * s for s in scales]
        rhs_list = [
            np.cos(np.arange(A.n, dtype=np.float64) * 0.01 * (k + 1))
            for k in range(requests)
        ]

        # Naive traffic baseline: refactorize from scratch per request.
        S = A.to_scipy().tocsc()

        def run_naive():
            return [
                spla.spsolve(S * s, b) for s, b in zip(scales, rhs_list)
            ]

        naive_seconds, _ = time_callable(run_naive, repeats=1, warmup=0)

        # Sequential oracle: in-process factor/solve amortization.
        ref = SparseLinearSolver(A, ordering="natural", options=options)

        def run_sequential():
            xs = []
            for values, b in zip(value_sets, rhs_list):
                ref.factorize(A.with_values(values))
                xs.append(ref.solve(b))
            return xs

        seq_seconds, seq_xs = time_callable(run_sequential, repeats=1, warmup=1)

        # Uncoalesced service: the full serving path, one request at a time.
        svc_plain = SolverService(options=options, coalesce=False)
        handle_plain = svc_plain.register_pattern(A)

        def run_uncoalesced():
            return [
                svc_plain.solve(handle_plain, values, b)
                for values, b in zip(value_sets, rhs_list)
            ]

        unco_seconds, _ = time_callable(run_uncoalesced, repeats=1, warmup=1)
        svc_plain.close()

        # Coalesced service: submit everything, let the micro-batcher group.
        svc = SolverService(
            options=options,
            window_seconds=window_seconds,
            max_batch=max_batch,
            max_in_flight=max(4 * requests, 64),
        )
        handle = svc.register_pattern(A)

        def run_coalesced():
            futures = [
                svc.submit(handle, values, b)
                for values, b in zip(value_sets, rhs_list)
            ]
            return [future.result(timeout=120.0) for future in futures]

        run_coalesced()  # warm-up round (also seeds the batch histogram)
        disk_before = disk_cache_stats().as_dict()
        misses_before = svc.stats()["artifact_cache"]["misses"]
        coal_seconds, coal_xs = time_callable(run_coalesced, repeats=1, warmup=0)
        disk_after = disk_cache_stats().as_dict()
        stats = svc.stats()
        recompiles = (
            (disk_after["compiles"] - disk_before["compiles"])
            + (disk_after["py_writes"] - disk_before["py_writes"])
            + (stats["artifact_cache"]["misses"] - misses_before)
        )
        pattern_info = stats["patterns"][handle.handle_id]

        bitwise = all(
            np.array_equal(coal_xs[k], seq_xs[k]) for k in range(requests)
        )
        if not bitwise:
            raise AssertionError(
                f"coalesced serving results differ from sequential on {entry.name}"
            )

        # Evict → re-register must be a warm, zero-recompile path (the
        # generated code survives on disk; only the pinned artifacts drop).
        svc.evict(handle)
        disk_before_rereg = disk_cache_stats().as_dict()
        handle2 = svc.register_pattern(A)
        disk_after_rereg = disk_cache_stats().as_dict()
        reregister_warm = bool(
            handle2.warm
            and disk_after_rereg["compiles"] == disk_before_rereg["compiles"]
            and disk_after_rereg["py_writes"] == disk_before_rereg["py_writes"]
        )
        svc.close()

        rows.append(
            {
                "problem_id": entry.problem_id,
                "name": entry.name,
                "n": A.n,
                "nnz_L": handle.factor_nnz,
                "backend": backend,
                "backend_effective": pattern_info["backend_effective"],
                "requests": requests,
                "window_seconds": window_seconds,
                "max_batch": max_batch,
                "cpu_count": os.cpu_count() or 1,
                "naive_scipy_seconds": naive_seconds,
                "sequential_seconds": seq_seconds,
                "uncoalesced_seconds": unco_seconds,
                "coalesced_seconds": coal_seconds,
                "coalesced_over_uncoalesced": unco_seconds / max(coal_seconds, 1e-12),
                "speedup_vs_scipy": naive_seconds / max(coal_seconds, 1e-12),
                "requests_per_second": requests / max(coal_seconds, 1e-12),
                "coalescing_ratio": stats["coalescing_ratio"],
                "max_batch_observed": stats["max_batch_size"],
                "p95_latency_seconds": stats["latency"]["p95_seconds"],
                "serving_recompiles": int(recompiles),
                "bitwise_identical": bitwise,
                "reregister_warm": reregister_warm,
            }
        )
    return rows


def fleet_throughput(
    suite: Optional[Sequence[SuiteEntry]] = None,
    *,
    backend: str = "python",
    requests: int = 36,
    window_ms: float = 5.0,
    max_batch: int = 16,
) -> List[Dict[str, object]]:
    """The sharded fleet and request pipelining on the wire, end to end.

    One row (``fleet_mixed``) over a mixed-pattern request stream, measuring
    the two deliverables of the fleet redesign as same-run ratios plus the
    deterministic failover guarantees:

    * ``two_shards_over_one`` — aggregate pipelined throughput of a 2-shard
      fleet over a 1-shard fleet on the identical stream.  Tracks the
      runner's core count (≈1.0 on one core, >1.3 with two-plus); the
      absolute multi-core assertion lives in the CI fleet step, the gate
      here compares against the runner's own committed baseline.
    * ``pipelined_over_roundtrip`` — submit-all on one connection
      (id-tagged responses, whole batches) over lock-step ``client.solve``
      round-trips on the same connection against the *same* server.  Wins
      even on one core: the lock-step client waits out the coalescing
      window and dispatches a batch of one per request.
    * ``all_complete`` / ``solutions_ok`` — every request in the
      kill-a-shard-mid-stream fleet run completes and verifies against the
      local reference solver.
    * ``reregister_warm`` / ``failover_recompiles`` — the replacement shard
      re-registers its patterns warm from the shared disk cache (zero cold
      recompiles, from the fleet's own counters).
    """
    import os
    import tempfile

    from repro.service.client import ServiceClient
    from repro.service.fleet import ShardFleet
    from repro.service.session import SolverService
    from repro.service.wire import serve_background
    from repro.solvers.linear_solver import SparseLinearSolver
    from repro.sparse.generators import fem_stencil_2d, laplacian_2d
    from repro.sparse.ordering import ordering_by_name

    options = SympilerOptions(backend=backend)
    if backend == "python":
        options = options.with_updates(enable_vs_block=False)

    # A deterministic mixed-pattern workload: three distinct sparsity
    # patterns so the router actually spreads load across shards.
    mats = {}
    for i, side in enumerate((22, 24, 26)):
        grid = (
            laplacian_2d(side, shift=0.1)
            if i != 1
            else fem_stencil_2d(side - 6, shift=0.2)
        )
        mats[f"p{i}"] = ordering_by_name("mindeg")(grid).symmetric_permute(grid)
    names = sorted(mats)
    refs = {
        k: SparseLinearSolver(A, ordering="natural", options=options)
        for k, A in mats.items()
    }

    def stream(k: int):
        """Request ``k`` of the stream: (pattern key, values, rhs, oracle)."""
        name = names[k % len(names)]
        A = mats[name]
        scale = 1.0 + 0.01 * (k + 1)
        rhs = np.cos(np.arange(A.n, dtype=np.float64) * 0.01 * (k + 1))
        return name, A.data * scale, rhs, refs[name].solve(rhs) / scale

    def run_fleet(fleet, handles, lo: int, hi: int):
        futures = []
        for k in range(lo, hi):
            name, values, rhs, _ = stream(k)
            futures.append(fleet.submit(handles[name], values, rhs))
        return [f.result(timeout=120.0) for f in futures]

    with tempfile.TemporaryDirectory(prefix="repro-fleet-bench-") as cache_dir:
        # --- 1 shard vs 2 shards: same stream, same shared disk cache ----
        shard_seconds = {}
        for shards in (1, 2):
            with ShardFleet(
                shards,
                backend=backend,
                cache_dir=cache_dir,
                window_ms=window_ms,
                max_batch=max_batch,
                max_in_flight=max(4 * requests, 64),
            ) as fleet:
                handles = {
                    k: fleet.register_pattern(A, options=options)
                    for k, A in mats.items()
                }
                run_fleet(fleet, handles, 0, requests)  # warm-up round
                seconds, _ = time_callable(
                    lambda: run_fleet(fleet, handles, 0, requests),
                    repeats=1,
                    warmup=0,
                )
                shard_seconds[shards] = seconds

        # --- failover mid-stream on a fresh 2-shard fleet ----------------
        with ShardFleet(
            2,
            backend=backend,
            cache_dir=cache_dir,
            window_ms=window_ms,
            max_batch=max_batch,
            max_in_flight=max(4 * requests, 64),
        ) as fleet:
            handles = {
                k: fleet.register_pattern(A, options=options)
                for k, A in mats.items()
            }
            half = requests // 2
            xs = run_fleet(fleet, handles, 0, half)
            victim = int(
                next(
                    slot
                    for slot, s in fleet.stats()["per_shard"].items()
                    if s.get("registered_patterns", 0) > 0
                )
            )
            fleet.kill_shard(victim)
            xs += run_fleet(fleet, handles, half, requests)
            counters = dict(fleet.counters)

        all_complete = len(xs) == requests
        solutions_ok = all_complete and all(
            np.allclose(x, stream(k)[3], atol=1e-8) for k, x in enumerate(xs)
        )
        reregister_warm = bool(
            counters["shard_deaths"] == 1
            and counters["reregisters"] >= 1
            and counters["warm_reregisters"] == counters["reregisters"]
        )

    # --- pipelined submits vs lock-step solves against one server --------
    A = mats[names[0]]
    ref = refs[names[0]]
    wire_requests = max(12, requests // 2)
    scales = 1.0 + 0.01 * np.arange(1, wire_requests + 1)
    rhs_list = [
        np.cos(np.arange(A.n, dtype=np.float64) * 0.02 * (k + 1))
        for k in range(wire_requests)
    ]
    service = SolverService(
        options=options,
        window_seconds=window_ms / 1000.0,
        max_batch=max_batch,
        max_in_flight=max(4 * wire_requests, 64),
    )
    server, thread = serve_background(service)
    try:
        address = server.server_address
        with ServiceClient(address) as client:
            handle = client.register_pattern(A, options=options)

            def run_pipelined():
                futures = [
                    client.submit(handle, A.data * s, b)
                    for s, b in zip(scales, rhs_list)
                ]
                return [f.result(timeout=120.0) for f in futures]

            def run_roundtrip():
                return [
                    client.solve(handle, A.data * s, b)
                    for s, b in zip(scales, rhs_list)
                ]

            pipe_seconds, xs_pipe = time_callable(run_pipelined, repeats=1, warmup=1)
            roundtrip_seconds, xs_rt = time_callable(
                run_roundtrip, repeats=1, warmup=1
            )
            for s, b, x_pipe, x_rt in zip(scales, rhs_list, xs_pipe, xs_rt):
                assert np.array_equal(x_pipe, x_rt)
                assert np.allclose(x_rt, ref.solve(b) / s, atol=1e-8)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)
        service.close()

    return [
        {
            "name": "fleet_mixed",
            "backend": backend,
            "patterns": len(mats),
            "requests": requests,
            "window_ms": window_ms,
            "max_batch": max_batch,
            "cpu_count": os.cpu_count() or 1,
            "one_shard_seconds": shard_seconds[1],
            "two_shard_seconds": shard_seconds[2],
            "two_shards_over_one": shard_seconds[1] / max(shard_seconds[2], 1e-12),
            "pipelined_seconds": pipe_seconds,
            "roundtrip_seconds": roundtrip_seconds,
            "pipelined_over_roundtrip": roundtrip_seconds / max(pipe_seconds, 1e-12),
            "all_complete": all_complete,
            "solutions_ok": solutions_ok,
            "reregister_warm": reregister_warm,
            "failover_recompiles": int(counters["cold_reregisters"]),
            "shard_deaths": int(counters["shard_deaths"]),
        }
    ]


def _raw_outputs_equal(a, b) -> bool:
    """Bitwise comparison of raw kernel outputs (arrays or array tuples)."""
    if isinstance(a, tuple) or isinstance(b, tuple):
        return (
            isinstance(a, tuple)
            and isinstance(b, tuple)
            and len(a) == len(b)
            and all(np.array_equal(x, y) for x, y in zip(a, b))
        )
    return np.array_equal(a, b)


# --------------------------------------------------------------------------- #
# Wavefront (H-Level) execution: single-solve parallelism inside one kernel
# --------------------------------------------------------------------------- #
def wavefront_execution(
    suite: Optional[Sequence[SuiteEntry]] = None,
    *,
    backend: str = "c",
    threads: Optional[int] = None,
    repeats: int = 5,
) -> List[Dict[str, object]]:
    """Wavefront-compiled single solves vs the serial compiled kernel.

    For each suite entry a wide-level SPD pattern of useful size stands in
    (the smoke matrices are too small for within-kernel parallelism to mean
    anything), the Cholesky + forward-trisolve kernels compile twice — serial
    and ``parallel="wavefront"`` — and one factorize + solve runs both ways:

    * ``bitwise_identical`` — the wavefront outputs equal the serial ones
      bit for bit (levels are antichains; the pull-form trisolve replays the
      serial accumulation order), asserted here and gated in CI,
    * ``speedup_2threads`` — serial seconds over wavefront seconds at a
      pinned 2 threads (machine-dependent magnitude; the committed baseline
      carries this machine's value and the CI smoke step asserts > 1.2 on a
      multi-core runner),
    * ``zero_recompiles`` — a fresh driver re-compiling both variants against
      the warm on-disk cache generates nothing (serial and wavefront
      artifacts key separately and both reload),
    * the final row is a deep-etree chain (tridiagonal) pattern whose
      schedule has no parallelism to mine — ``serial_fallback`` must be True
      (the backend declined wavefront codegen and emitted the serial body).
    """
    import os
    import time as _time

    from repro.compiler.cache import ArtifactCache
    from repro.compiler.codegen.c_backend import disk_cache_stats
    from repro.sparse.generators import laplacian_2d
    from repro.sparse.ordering import ordering_by_name

    serial_options = SympilerOptions(backend=backend, enable_vs_block=False)
    if threads is not None:
        serial_options = serial_options.with_updates(num_threads=threads)
    wavefront_options = serial_options.with_updates(parallel="wavefront")

    def best_of(fn) -> float:
        fn()  # warm-up: page in the shared object, fault in the buffers
        times = []
        for _ in range(repeats):
            t0 = _time.perf_counter()
            fn()
            times.append(_time.perf_counter() - t0)
        return min(times)

    def measure(problem_id: int, name: str, A, *, expect_fallback: bool):
        sym_s = Sympiler(serial_options, cache=ArtifactCache())
        sym_w = Sympiler(wavefront_options, cache=ArtifactCache())
        fact_s = sym_s.compile("cholesky", A)
        fact_w = sym_w.compile("cholesky", A)
        Ap, Ai, Ax = A.indptr, A.indices, A.data
        raw_s = fact_s.factorize_arrays(Ap, Ai, Ax)
        raw_w = fact_w.factorize_arrays(Ap, Ai, Ax, num_threads=2)
        bitwise = _raw_outputs_equal(raw_s, raw_w)
        L = fact_s.assemble_factors(raw_s)
        tri_s = sym_s.compile("triangular-solve", L)
        tri_w = sym_w.compile("triangular-solve", L)
        b = np.cos(np.arange(A.n, dtype=np.float64))  # deterministic RHS
        x_s = tri_s.solve_arrays(L.indptr, L.indices, L.data, b)
        x_w = tri_w.solve_arrays(L.indptr, L.indices, L.data, b, num_threads=2)
        bitwise = bitwise and np.array_equal(x_s, x_w)
        if not bitwise:
            raise AssertionError(
                f"wavefront execution differs from serial on {name}"
            )
        serial_seconds = best_of(lambda: fact_s.factorize_arrays(Ap, Ai, Ax))
        wf2_seconds = best_of(
            lambda: fact_w.factorize_arrays(Ap, Ai, Ax, num_threads=2)
        )
        # Warm-reload check through fresh drivers (fresh in-memory artifact
        # caches, shared on-disk cache): both variants must key separately
        # on disk and come back with zero recompiles.
        disk_before = dict(disk_cache_stats().as_dict())
        Sympiler(serial_options, cache=ArtifactCache()).compile("cholesky", A)
        Sympiler(wavefront_options, cache=ArtifactCache()).compile("cholesky", A)
        disk_after = dict(disk_cache_stats().as_dict())
        recompiles = (disk_after["compiles"] - disk_before["compiles"]) + (
            disk_after["py_writes"] - disk_before["py_writes"]
        )
        schedule = fact_w.schedule
        fallback = fact_w.parallel_mode == "serial-fallback"
        if expect_fallback and backend == "c" and not fallback:
            raise AssertionError(
                f"{name}: expected the deep-etree serial fallback, got "
                f"parallel_mode={fact_w.parallel_mode!r}"
            )
        return {
            "problem_id": problem_id,
            "name": name,
            "n": A.n,
            "nnz_L": fact_s.factor_nnz,
            "backend": backend,
            "parallel_mode": fact_w.parallel_mode,
            "cpu_count": os.cpu_count() or 1,
            "schedule_levels": schedule.n_levels if schedule is not None else 0,
            "schedule_avg_width": (
                float(schedule.average_width) if schedule is not None else 0.0
            ),
            "serial_seconds": serial_seconds,
            "wavefront2_seconds": wf2_seconds,
            "speedup_2threads": serial_seconds / max(wf2_seconds, 1e-12),
            "bitwise_identical": bitwise,
            "zero_recompiles": recompiles == 0,
            "serial_fallback": fallback,
        }

    rows: List[Dict[str, object]] = []
    for entry in _entries(suite):
        # Wide-level stand-in per entry: a mindeg-ordered 2-D grid large
        # enough that level widths dwarf the per-level barrier (the smoke
        # matrices would measure barrier overhead, not wavefront execution).
        side = 40 + 4 * (entry.problem_id % 3)
        grid = laplacian_2d(side, shift=0.1)
        A = ordering_by_name("mindeg")(grid).symmetric_permute(grid)
        rows.append(measure(entry.problem_id, entry.name, A, expect_fallback=False))
    # Deep-etree pattern: a 1-D chain's elimination tree is a path, every
    # level has one column, and the backend must decline wavefront codegen.
    chain = laplacian_2d(400, 1, shift=0.1)
    rows.append(measure(-1, "deep_chain_400", chain, expect_fallback=True))
    return rows


# --------------------------------------------------------------------------- #
# Front end: first-call specialization cost vs warm-call numeric execution
# --------------------------------------------------------------------------- #
def frontend_specialization(
    suite: Optional[Sequence[SuiteEntry]] = None,
    *,
    backend: str = "python",
    repeats: int = 5,
) -> List[Dict[str, object]]:
    """``repro.solve``: specialize once, then numeric-only warm calls.

    One row per auto-selected route (``cholesky`` / ``ldlt`` / ``lu`` /
    ``pcg``), each on a generated matrix whose structure forces that route —
    the suite argument is accepted for harness uniformity but unused, since
    route membership is fixed by construction, not by suite size.  Per row:

    * ``bitwise_identical`` — the front-end answer equals the explicit API
      (``SparseLinearSolver`` / ``preconditioned_conjugate_gradient``) bit
      for bit, asserted here and gated,
    * ``zero_recompiles`` — warm calls generate nothing: zero shared-cache
      misses (no symbolic inspection) and zero disk-cache compiles/writes,
    * ``warm_specializations`` — specialization-counter delta across the
      warm calls (deterministically 0),
    * ``specialize_over_warm`` — first-call cost over warm-call cost (the
      lazy-specialization amortization the SEJITS pattern promises),
    * ``warm_over_spsolve`` — warm front-end solve over
      ``scipy.sparse.linalg.spsolve`` on the same system, same run
      (informational scale for the python backend; gated only against its
      own baseline with a wide noise floor).
    """
    import time as _time

    from scipy.sparse.linalg import spsolve as scipy_spsolve

    from repro.compiler.codegen.c_backend import disk_cache_stats
    from repro.compiler.sympiler import _SHARED_CACHE
    from repro.frontend.probes import DEFAULT_ITERATIVE_THRESHOLD
    from repro.frontend.specialized import SpecializedSolver
    from repro.solvers.cg import preconditioned_conjugate_gradient
    from repro.solvers.linear_solver import SparseLinearSolver
    from repro.sparse.generators import (
        laplacian_2d,
        random_spd,
        saddle_point_indefinite,
    )

    options = SympilerOptions(backend=backend)

    def best_of(fn) -> float:
        times = []
        for _ in range(repeats):
            t0 = _time.perf_counter()
            fn()
            times.append(_time.perf_counter() - t0)
        return min(times)

    cases = [
        ("route_cholesky", random_spd(120, 0.03, seed=31), "cholesky", None),
        ("route_ldlt", saddle_point_indefinite(80, 30, seed=32), "ldlt", None),
        ("route_lu", unsymmetric_diag_dominant(140, seed=33), "lu", None),
        # n = 196 over a threshold of 100 routes the probe to iterative.
        ("route_pcg", laplacian_2d(14), "pcg", 100),
    ]
    rows: List[Dict[str, object]] = []
    for name, A, expected, threshold in cases:
        S = A.to_scipy().tocsc()
        b = np.cos(np.arange(A.n, dtype=np.float64))  # deterministic RHS
        front = SpecializedSolver(
            options=options,
            iterative_threshold=(
                threshold if threshold is not None else DEFAULT_ITERATIVE_THRESHOLD
            ),
        )
        t0 = _time.perf_counter()
        x = front.solve(S, b)
        cold_seconds = _time.perf_counter() - t0
        if front.stats.methods != {expected: 1}:
            raise AssertionError(
                f"{name}: probe selected {front.stats.methods}, expected {expected!r}"
            )
        if expected == "pcg":
            x_ref = preconditioned_conjugate_gradient(A, b, options=options).x
        else:
            x_ref = SparseLinearSolver(
                A, method=expected, ordering="mindeg", options=options
            ).solve(b)
        bitwise = bool(np.array_equal(x, x_ref))
        if not bitwise:
            raise AssertionError(f"{name}: front end differs from the explicit API")

        # Warm calls: same structure, same values — pure numeric execution.
        specializations_before = front.stats.specializations
        misses_before = _SHARED_CACHE.stats.misses
        disk_before = dict(disk_cache_stats().as_dict())
        warm_seconds = best_of(lambda: front.solve(S, b))
        misses_delta = _SHARED_CACHE.stats.misses - misses_before
        disk_after = dict(disk_cache_stats().as_dict())
        recompiles = (
            misses_delta
            + (disk_after["compiles"] - disk_before["compiles"])
            + (disk_after["py_writes"] - disk_before["py_writes"])
        )
        warm_specializations = front.stats.specializations - specializations_before

        spsolve_seconds = best_of(lambda: scipy_spsolve(S, b))
        rows.append(
            {
                "name": name,
                "n": A.n,
                "nnz": A.nnz,
                "method": front.cache_info()["entries"][0]["method"],
                "backend": backend,
                "bitwise_identical": bitwise,
                "zero_recompiles": recompiles == 0,
                "warm_specializations": int(warm_specializations),
                "cold_seconds": cold_seconds,
                "warm_seconds": warm_seconds,
                "specialize_over_warm": cold_seconds / max(warm_seconds, 1e-12),
                "spsolve_seconds": spsolve_seconds,
                "warm_over_spsolve": warm_seconds / max(spsolve_seconds, 1e-12),
            }
        )
    return rows


# --------------------------------------------------------------------------- #
# Observability layer: disabled-path overhead and enabled-path coverage
# --------------------------------------------------------------------------- #
def observe_overhead(
    suite: Optional[Sequence[SuiteEntry]] = None,
    *,
    backend: str = "python",
    repeats: int = 5,
    calibration_spans: int = 50_000,
) -> List[Dict[str, object]]:
    """The observability layer's cost contract, measured.

    The tracing instrumentation lives permanently on the pipeline's hot
    paths, so its *disabled* cost is the one that matters: a disabled
    ``span()`` call is one module-flag check returning a shared no-op
    object.  This experiment prices that check directly
    (``disabled_span_ns``, best of ``repeats`` spins over
    ``calibration_spans`` calls), counts how many spans one warm
    ``repro.solve`` actually opens when tracing *is* on
    (``spans_per_warm_solve``), and folds both into the gated headline::

        disabled_overhead_pct = 100 · K · c / t

    with ``K`` spans per warm solve, ``c`` the disabled span cost and ``t``
    the warm untraced solve time — the worst-case fraction of a production
    solve spent on dormant instrumentation (CI asserts < 3 %).  A second
    leg prices the same contract across the service wire: an in-process
    ``serve_background`` server, a warm untraced ``ServiceClient.solve``
    (``warm_wire_seconds``), and the span count of one traced wire solve
    (client ``wire-solve`` + server ``serve`` + dispatch spans) folded into
    ``remote_span_overhead_pct`` — gated at the same < 3 % line.  The
    enabled pass also proves the export surface end to end:
    ``breakdown_has_phases`` (the amortization breakdown saw the numeric
    phase) and ``trace_nonempty`` (the Chrome trace carries events).

    The suite argument is accepted for harness uniformity but unused — one
    fixed matrix (``laplacian_2d(16)``) keeps the span count and timing
    deterministic.
    """
    import time as _time

    import repro.compiler.sympiler as _sympiler_module
    from repro import observe
    from repro.compiler.cache import ArtifactCache
    from repro.frontend.specialized import SpecializedSolver
    from repro.observe import trace as observe_trace
    from repro.sparse.generators import laplacian_2d

    A = laplacian_2d(16, shift=0.1)
    b = np.cos(np.arange(A.n, dtype=np.float64))
    options = SympilerOptions(backend=backend)

    def best_of(fn) -> float:
        times = []
        for _ in range(repeats):
            t0 = _time.perf_counter()
            fn()
            times.append(_time.perf_counter() - t0)
        return min(times)

    # A fresh shared artifact cache keeps the cold specialization in-run
    # (same isolation trick as the cache probe); tracing state is restored
    # on the way out so the experiment never leaks process-global flips.
    was_enabled = observe_trace.enabled()
    shared_before = _sympiler_module._SHARED_CACHE
    _sympiler_module._SHARED_CACHE = ArtifactCache()
    try:
        observe_trace.disable()
        front = SpecializedSolver(options=options)
        front.solve(A, b)  # cold specialization, untraced
        warm_solve_seconds = best_of(lambda: front.solve(A, b))

        def spin() -> None:
            sp = observe_trace.span
            for _ in range(calibration_spans):
                with sp("bench-noop"):
                    pass

        disabled_span_seconds = best_of(spin) / calibration_spans

        observe_trace.enable()
        observe_trace.reset()
        tracer = observe_trace.get_tracer()
        front.solve(A, b)
        spans_per_warm_solve = len(tracer)
        trace_doc = observe.chrome_trace()
        breakdown = observe.breakdown()

        # Wire leg: the same contract measured across the service wire.  The
        # server runs in-process (serve_background thread), so both the
        # client-side ``wire-solve`` span and the server-side ``serve`` span
        # hit the same process-global tracer — the span count per wire solve
        # is the total dormant-instrumentation exposure of one remote solve.
        observe_trace.disable()
        from repro.service import ServiceClient, SolverService, serve_background

        service = SolverService(
            options=SympilerOptions(backend=backend, enable_vs_block=False),
            window_seconds=0.002,
            max_batch=8,
        )
        server, thread = serve_background(service)
        try:
            with ServiceClient(server.server_address) as client:
                handle = client.register_pattern(A)
                client.solve(handle, A.data, b)  # warm the wire path
                warm_wire_seconds = best_of(
                    lambda: client.solve(handle, A.data, b)
                )
                observe_trace.enable()
                observe_trace.reset()
                client.solve(handle, A.data, b)
                spans_per_wire_solve = len(tracer)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            service.close()
    finally:
        _sympiler_module._SHARED_CACHE = shared_before
        if was_enabled:
            observe_trace.enable()
        else:
            observe_trace.disable()

    disabled_overhead_pct = (
        100.0
        * spans_per_warm_solve
        * disabled_span_seconds
        / max(warm_solve_seconds, 1e-12)
    )
    remote_span_overhead_pct = (
        100.0
        * spans_per_wire_solve
        * disabled_span_seconds
        / max(warm_wire_seconds, 1e-12)
    )
    numeric_group = breakdown["groups"].get("numeric", {})
    return [
        {
            "name": "laplacian_2d_16",
            "backend": backend,
            "n": A.n,
            "nnz": A.nnz,
            "warm_solve_seconds": warm_solve_seconds,
            "disabled_span_ns": disabled_span_seconds * 1e9,
            "spans_per_warm_solve": int(spans_per_warm_solve),
            "disabled_overhead_pct": disabled_overhead_pct,
            "warm_wire_seconds": warm_wire_seconds,
            "spans_per_wire_solve": int(spans_per_wire_solve),
            "remote_span_overhead_pct": remote_span_overhead_pct,
            "breakdown_has_phases": bool(numeric_group.get("calls", 0) > 0),
            "trace_nonempty": bool(trace_doc["traceEvents"]),
        }
    ]


# --------------------------------------------------------------------------- #
# §4.3 overhead report
# --------------------------------------------------------------------------- #
def overhead_report(
    suite: Optional[Sequence[SuiteEntry]] = None,
    *,
    backend: str = "python",
) -> List[Dict[str, object]]:
    """§4.3: compile-time cost of Sympiler relative to one numeric execution."""
    rows: List[Dict[str, object]] = []
    sym = Sympiler()
    for entry in _entries(suite):
        prep = prepare(entry, backend=backend)
        tri = sym.compile_triangular_solve(prep.L, rhs_pattern=prep.rhs_pattern, options=prep.options())
        tri_numeric, _ = time_callable(lambda: tri.solve(prep.L, prep.b), repeats=3)
        chol = sym.compile_cholesky(prep.A, options=prep.options())
        chol_numeric, _ = time_callable(lambda: chol.factorize(prep.A), repeats=2)
        rows.append(
            {
                "problem_id": entry.problem_id,
                "name": entry.name,
                "tri_symbolic_over_numeric": tri.timings.inspection / max(tri_numeric, 1e-12),
                "tri_codegen_over_numeric": (tri.timings.codegen + tri.timings.compile)
                / max(tri_numeric, 1e-12),
                "chol_symbolic_over_numeric": chol.timings.inspection / max(chol_numeric, 1e-12),
                "chol_codegen_over_numeric": (chol.timings.codegen + chol.timings.compile)
                / max(chol_numeric, 1e-12),
            }
        )
    return rows
