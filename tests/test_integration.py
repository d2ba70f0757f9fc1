"""Cross-module integration tests: the full pipeline on realistic workflows."""

import numpy as np
import pytest

from repro.baselines import reference_cholesky
from repro.compiler.options import SympilerOptions
from repro.compiler.sympiler import Sympiler
from repro.kernels.flops import cholesky_flops, triangular_solve_flops
from repro.solvers import SparseLinearSolver
from repro.sparse.generators import (
    block_tridiagonal_spd,
    circuit_like_spd,
    fem_stencil_2d,
    sparse_rhs,
)
from repro.sparse.ordering import minimum_degree_ordering

from oracles import reference_solve


def test_full_direct_solver_pipeline(rng):
    """generate → order → inspect → generate code → factorize → solve."""
    A = fem_stencil_2d(14, 14, shift=0.2)
    solver = SparseLinearSolver(A, ordering="mindeg")
    for _ in range(3):
        x_true = rng.normal(size=A.n)
        b = A.matvec(x_true)
        x = solver.solve(b)
        assert solver.residual(x, b) < 1e-10


def test_repeated_factorization_fixed_pattern_changing_values(rng):
    """The paper's central usage pattern: one compile, many numeric runs."""
    A = circuit_like_spd(150, seed=8)
    perm = minimum_degree_ordering(A)
    B = perm.symmetric_permute(A)
    compiled = Sympiler().compile("cholesky", B)
    for scale in (1.0, 2.5, 7.0):
        Bk = B.with_values(scale * B.data)
        L = compiled.factorize(Bk)
        dense = L.to_dense()
        np.testing.assert_allclose(dense @ dense.T, Bk.to_dense(), atol=1e-7)


def test_all_systems_produce_the_same_factor():
    """Sympiler's simplicial and supernodal kernels, on both backends, and dense LAPACK agree."""
    A = block_tridiagonal_spd(8, 6, seed=4, dense_coupling=True)
    for options in (SympilerOptions(enable_vs_block=False), SympilerOptions()):
        for backend in ("c", "python"):
            L = Sympiler().compile("cholesky", A, options=options.with_updates(backend=backend)).factorize(A)
            np.testing.assert_allclose(L.to_dense(), reference_cholesky(A), atol=1e-9)


def test_option_variants_are_numerically_identical(spd_matrices):
    """Every transformation combination computes the same factor and solution."""
    A = spd_matrices["block"]
    b = sparse_rhs(A.n, nnz=3, seed=5)
    sym = Sympiler()
    references = None
    for options in (
        SympilerOptions(enable_vs_block=False),
        SympilerOptions(enable_vi_prune=False),
        SympilerOptions.baseline(),
        SympilerOptions(),
    ):
        chol = sym.compile("cholesky", A, options=options)
        L = chol.factorize(A)
        tri = sym.compile("triangular-solve", L, rhs_pattern=np.nonzero(b)[0], options=options)
        x = tri.solve(L, b)
        if references is None:
            references = (L.to_dense(), x)
        else:
            np.testing.assert_allclose(L.to_dense(), references[0], atol=1e-10)
            np.testing.assert_allclose(x, references[1], atol=1e-10)


def test_solution_of_spd_system_via_generated_kernels(rng):
    """Factor + forward/backward substitution solves A x = b."""
    A = fem_stencil_2d(10, 10, shift=0.4)
    solver = SparseLinearSolver(A, ordering="rcm")
    b = rng.normal(size=A.n)
    np.testing.assert_allclose(solver.solve(b), reference_solve(A, b), atol=1e-7)


def test_flop_counts_are_consistent_between_methods():
    """The Cholesky FLOP count dominates the triangular-solve count."""
    A = fem_stencil_2d(12, 12)
    compiled = Sympiler().compile("cholesky", A)
    L = compiled.factorize(A)
    chol_flops = cholesky_flops(compiled.inspection.l_col_counts)
    tri_flops = triangular_solve_flops(L)
    assert chol_flops > tri_flops > 0


def test_compile_time_is_reported_separately_from_numeric_time():
    """Symbolic + codegen timings never leak into the numeric entry point."""
    A = circuit_like_spd(120, seed=3)
    compiled = Sympiler().compile("cholesky", A)
    assert compiled.timings.inspection > 0.0
    assert compiled.timings.codegen > 0.0
    import time

    start = time.perf_counter()
    compiled.factorize(A)
    numeric = time.perf_counter() - start
    # The numeric call must not re-run inspection/codegen: it should be much
    # cheaper than the recorded compile-time total on repeat executions.
    start = time.perf_counter()
    compiled.factorize(A)
    second = time.perf_counter() - start
    assert second <= numeric * 10 + 0.1
