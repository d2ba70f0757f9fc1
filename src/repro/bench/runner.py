"""The one runner of :data:`repro.bench.experiments.EXPERIMENTS`.

:func:`run_experiments` is the only place in the harness that prepares a
suite matrix, compiles, times, verifies, builds rows and appends the geomean.
Everything else in this module tells it *how* to time one kind of thing: a
:class:`Kernel` knows how to compile a registry kernel into a
:class:`Subject` (the numeric call, the set-up it amortises, how its result
yields a solution), which exact solution that must match, and which
native scipy baselines stand against it on the same pre-ordered matrix.
Every variant is generated C: the runner never times a compiled kernel
against interpreted Python.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, Iterator, List, Mapping, NamedTuple, Sequence, Tuple

import numpy as np
from scipy.sparse.linalg import cg as scipy_cg
from scipy.sparse.linalg import splu, spsolve_triangular

from repro.bench.experiments import EXPERIMENTS
from repro.bench.metrics import gflops_rate, time_callable
from repro.bench.reporting import geometric_mean
from repro.bench.suite import SuiteEntry, load_suite_matrix
from repro.compiler.codegen.c_backend import c_compiler_available
from repro.compiler.options import SympilerOptions
from repro.compiler.sympiler import Sympiler
from repro.kernels.flops import cholesky_flops, triangular_solve_flops
from repro.solvers.cg import preconditioned_conjugate_gradient
from repro.sparse.csc import CSCMatrix
from repro.sparse.generators import sparse_rhs, unsymmetric_diag_dominant
from repro.symbolic.inspector import CholeskyInspector
from repro.symbolic.reach import reach_set_sorted

__all__ = ["run_experiments"]

#: RHS fill used for the triangular-solve experiments (< 5 %, §4.2).
RHS_DENSITY = 0.02


class Prepared:
    """One suite matrix and what the experiments derive from it, each built once."""

    def __init__(self, entry: SuiteEntry) -> None:
        self.entry = entry

    @cached_property
    def A(self) -> CSCMatrix:
        """The SPD matrix, pre-ordered with the entry's fill-reducing ordering."""
        return load_suite_matrix(self.entry)

    @cached_property
    def inspection(self):
        return CholeskyInspector().inspect(self.A)

    @cached_property
    def L(self) -> CSCMatrix:
        """The Cholesky factor the triangular-solve experiments operate on: the compiled one's."""
        return Sympiler().compile("cholesky", self.A).factorize(self.A)

    @cached_property
    def sparse_b(self) -> np.ndarray:
        return sparse_rhs(self.A.n, density=RHS_DENSITY, seed=1000 + self.entry.problem_id)

    @cached_property
    def rhs_pattern(self) -> np.ndarray:
        return np.nonzero(self.sparse_b)[0]

    @cached_property
    def x_trisolve(self) -> np.ndarray:
        """The triangular-solve answer, from scipy's native solver."""
        return spsolve_triangular(self.L.to_scipy().tocsr(), self.sparse_b, lower=True)

    @cached_property
    def J(self) -> CSCMatrix:
        """An unsymmetric diagonally dominant Jacobian analogue of the same order."""
        return unsymmetric_diag_dominant(self.A.n, seed=700 + self.entry.problem_id)

    @cached_property
    def x_true(self) -> np.ndarray:
        """The solution every linear-system experiment must reproduce."""
        return np.arange(1.0, self.A.n + 1.0) / self.A.n

    @cached_property
    def trisolve_flops(self) -> int:
        """Useful FLOPs of the sparse-rhs solve: every variant performs at least the reach-set columns."""
        return triangular_solve_flops(self.L, reach_set_sorted(self.L, self.rhs_pattern))

    @cached_property
    def cholesky_flops(self) -> int:
        return cholesky_flops(self.inspection.l_col_counts)

    def rhs_for(self, M: CSCMatrix) -> np.ndarray:
        """The right-hand side whose solution under ``M`` is :attr:`x_true`."""
        return M.to_scipy() @ self.x_true


def _identity(x):
    return x


@dataclass
class Subject:
    """One timed thing: a variant's compiled kernel or a baseline."""

    #: The numeric phase — what is timed.
    call: Callable[[], object]
    #: Maps the call's result to the solution vector that gets verified.
    solution: Callable[[object], np.ndarray] = _identity
    #: Pattern-only set-up the numeric phase amortises (inspection + transformation).
    symbolic_seconds: float = 0.0
    #: Code generation + ``cc``.
    codegen_seconds: float = 0.0
    #: Descriptive row columns (``reach_size``, ``nnz_L``, ...).
    facts: Mapping[str, object] = field(default_factory=dict)


class Kernel(NamedTuple):
    """How the runner measures one registry kernel."""

    compile: Callable[[Sympiler, Prepared, SympilerOptions], Subject]
    #: Native scipy baselines: label -> how to build its :class:`Subject`.
    baselines: Mapping[str, Callable[[Prepared], Subject]] = {}
    #: The :class:`Prepared` attribute holding the exact answer every variant
    #: and baseline of this kernel must reproduce.
    truth: str = "x_true"
    #: The :class:`Prepared` attribute holding the FLOP model behind the
    #: ``gflops`` columns (``None``: the kernel has none).
    flops: str | None = None
    atol: float = 1e-8


def _compiled(artifact, call, solution, facts) -> Subject:
    t = artifact.timings
    return Subject(call, solution, t.inspection + t.transformation, t.codegen + t.compile, facts)


def _solve_with(rhs: np.ndarray) -> Callable[[object], np.ndarray]:
    """Turn a factorization (ours or SuperLU's) into its solution of ``rhs``."""

    def solution(factors) -> np.ndarray:
        if isinstance(factors, CSCMatrix):  # a Cholesky factor L
            L = factors.to_scipy().tocsr()
            y = spsolve_triangular(L, rhs, lower=True)
            return spsolve_triangular(L.T.tocsr(), y, lower=False)
        return factors.solve(rhs)

    return solution


def _compile_trisolve(sym, prep, options) -> Subject:
    tri = sym.compile_triangular_solve(prep.L, rhs_pattern=prep.rhs_pattern, options=options)
    facts = {"nnz_L": prep.L.nnz, "reach_size": tri.reach_size}
    return _compiled(tri, lambda: tri.solve(prep.L, prep.sparse_b), _identity, facts)


def _compile_factorization(kernel: str, operand: str, nnz_column: str):
    def build(sym, prep, options) -> Subject:
        M = getattr(prep, operand)
        fact = sym.compile(kernel, M, options=options)
        facts = {f"nnz_{operand}": M.nnz, nnz_column: fact.factor_nnz}
        return _compiled(fact, lambda: fact.factorize(M), _solve_with(prep.rhs_for(M)), facts)

    return build


def _pcg(sym, prep, options) -> Subject:
    b = prep.rhs_for(prep.A)

    def run():
        return preconditioned_conjugate_gradient(prep.A, b, options=options)

    # One untimed solve compiles the preconditioner kernels and gives the
    # (deterministic) iteration count.
    return Subject(run, lambda r: r.x, facts={"iterations": run().iterations})


def _splu_of(operand: str):
    """Native SuperLU on the same pre-ordered matrix, so neither side gets the better ordering."""

    def build(prep) -> Subject:
        M = getattr(prep, operand)
        S = M.to_scipy()
        return Subject(
            lambda: splu(S, permc_spec="NATURAL", options={"SymmetricMode": True}),
            _solve_with(prep.rhs_for(M)),
        )

    return build


def _scipy_trisolve(prep) -> Subject:
    L = prep.L.to_scipy().tocsr()
    return Subject(lambda: spsolve_triangular(L, prep.sparse_b, lower=True))


def _scipy_cg(prep) -> Subject:
    S, b = prep.A.to_scipy(), prep.rhs_for(prep.A)
    return Subject(lambda: scipy_cg(S, b, rtol=1e-8)[0])


KERNELS: Dict[str, Kernel] = {
    "triangular-solve": Kernel(
        _compile_trisolve,
        baselines={"scipy": _scipy_trisolve},
        truth="x_trisolve",
        flops="trisolve_flops",
    ),
    "cholesky": Kernel(
        _compile_factorization("cholesky", "A", "nnz_L"),
        baselines={"splu": _splu_of("A")},
        flops="cholesky_flops",
    ),
    "ldlt": Kernel(_compile_factorization("ldlt", "A", "nnz_L"), flops="cholesky_flops"),
    "lu": Kernel(_compile_factorization("lu", "J", "nnz_LU"), baselines={"splu": _splu_of("J")}),
    # The timed call is a whole PCG solve whose preconditioner is the compiled
    # ic0 kernel; CG stops at a 1e-8 relative residual, hence the looser check.
    "ic0": Kernel(_pcg, baselines={"scipy_cg": _scipy_cg}, atol=1e-5),
}


def run_experiments(names: Sequence[str], suite: Sequence[SuiteEntry]) -> Iterator[Tuple[str, List[Dict[str, object]]]]:
    """Run the named experiments over ``suite``; yields ``(name, rows)`` per experiment.

    Every variant is compiled by the C backend; an experiment with variants
    refuses to run without a C compiler rather than time the python fallback
    against native code.  Each suite matrix is prepared once for the whole
    call.  Every variant and baseline is verified against its kernel's exact
    answer — a wrong result raises ``AssertionError`` instead of producing a
    row.
    """
    c_options = SympilerOptions(backend="c")
    if any(EXPERIMENTS[name].variants for name in names) and not c_compiler_available(c_options.c_compiler):
        raise RuntimeError("the bench needs a C compiler: the python fallback would be timed against native code")
    sym = Sympiler()
    prepared = [Prepared(entry) for entry in suite]
    for name in names:
        experiment = EXPERIMENTS[name]
        derived = experiment.derived
        variants = list(experiment.variants)
        first_kernel = KERNELS[experiment.variants[variants[0]][0]] if variants else None
        baselines = list(experiment.baselines)
        rows: List[Dict[str, object]] = []
        ratios: Dict[str, float] = {}  # a row's ratio columns: the ones the geomean row averages
        for prep in prepared:
            entry = prep.entry
            row: Dict[str, object] = {
                "problem_id": entry.problem_id,
                "name": entry.name,
                "n": prep.A.n,
                "nnz_A": prep.A.nnz,
            }
            if "listing" in derived:
                row.update(stands_in_for=entry.stands_in_for, ordering=entry.ordering, domain=entry.domain)
            subjects: Dict[str, Tuple[Kernel, Subject]] = {}
            for label in baselines:
                subjects[label] = (first_kernel, first_kernel.baselines[label](prep))
            for label, (kernel_name, overrides) in experiment.variants.items():
                kernel = KERNELS[kernel_name]
                options = c_options.with_updates(**overrides)
                subjects[label] = (kernel, kernel.compile(sym, prep, options))
            for _, subject in subjects.values():
                row.update(subject.facts)
            seconds: Dict[str, float] = {}
            for label, (kernel, subject) in subjects.items():
                seconds[label], result = time_callable(subject.call)
                if not np.allclose(subject.solution(result), getattr(prep, kernel.truth), atol=kernel.atol):
                    raise AssertionError(f"{name}: {label} produced a wrong answer on {entry.name}")
                row[f"{label}_seconds"] = seconds[label]
                if "gflops" in derived:
                    row[f"{label}_gflops"] = gflops_rate(getattr(prep, kernel.flops), seconds[label])
            ratios = {}
            if "speedup" in derived:
                for v in variants:
                    for b in baselines:
                        ratios[f"{v}_speedup_vs_{b}"] = seconds[b] / seconds[v]
            if "relative" in derived:
                for v in variants[1:]:
                    ratios[f"{v}_over_{variants[0]}"] = seconds[v] / seconds[variants[0]]
            if "normalized" in derived:
                base = subjects[baselines[0]][1].symbolic_seconds + seconds[baselines[0]]
                for label, (_, subject) in subjects.items():
                    ratios[f"{label}_numeric_normalized"] = seconds[label] / base
                    ratios[f"{label}_total_normalized"] = (subject.symbolic_seconds + seconds[label]) / base
            if "overheads" in derived:
                for v in variants:
                    subject = subjects[v][1]
                    ratios[f"{v}_symbolic_over_numeric"] = subject.symbolic_seconds / seconds[v]
                    ratios[f"{v}_codegen_over_numeric"] = subject.codegen_seconds / seconds[v]
            rows.append({**row, **ratios})
        if ratios:
            rows.append({"name": "geomean", **{c: geometric_mean([r[c] for r in rows]) for c in ratios}})
        yield name, rows
