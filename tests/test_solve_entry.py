"""The solve entry of a factorization's module: ``A x = b`` on the factors in place.

Every Cholesky, LDLᵀ, LU and IC(0) module exports ``<entry>_solve(perm, Lx[,
D | Ux], b, w, x, T)`` next to its factorization: ``w = b[perm]``, the forward
sweep on ``L``, ``÷ D``, the backward sweep (``Lᵀ`` in dot form, ``U`` in push
form), ``x[perm] = w``; IC(0)'s, with the identity ``perm``, applies the
preconditioner ``(L Lᵀ)⁻¹``.  ``reference.factor_solve`` mirrors it, so the
two backends agree to the bit on every route: on the caller's thread and on
pool threads, under either ``parallel`` option (``"wavefront"`` compiles the
serial source).  The solver compiles nothing else for its solves, and hands
the entry contiguous vectors whatever the caller passes.
"""

import os

import numpy as np
import pytest

from repro.compiler import sympiler as sympiler_module
from repro.compiler.artifacts import SympiledTriangularSolve
from repro.compiler.cache import ArtifactCache
from repro.compiler.codegen.c_backend import c_compiler_available
from repro.compiler.options import SympilerOptions
from repro.compiler.sympiler import Sympiler
from repro.solvers.batched import BatchedSolver
from repro.solvers.linear_solver import SparseLinearSolver, backward_factor
from repro.sparse.generators import (
    arrow_spd,
    banded_spd,
    block_tridiagonal_spd,
    circuit_like_spd,
    fem_stencil_2d,
    laplacian_2d,
    laplacian_3d,
    power_grid_spd,
    random_spd,
    saddle_point_indefinite,
    unsymmetric_diag_dominant,
)
from repro.sparse.utils import lower_triangle

needs_cc = pytest.mark.skipif(not c_compiler_available(), reason="no C compiler")

#: (method, matrix, option overrides, the domain loop the factorization must run).
CASES = {
    "cholesky-supernodal": ("cholesky", lambda: laplacian_3d(6), {}, "supernodal-cholesky"),
    "cholesky-simplicial": ("cholesky", lambda: laplacian_3d(6), {"enable_vs_block": False}, "simplicial-cholesky"),
    "ldlt-supernodal": ("ldlt", lambda: laplacian_3d(6), {}, "supernodal-cholesky"),
    "ldlt-simplicial": ("ldlt", lambda: saddle_point_indefinite(60, 20, seed=3), {}, "simplicial-cholesky"),
    "lu": ("lu", lambda: unsymmetric_diag_dominant(90, seed=4), {}, "simplicial-lu"),
}
PARALLEL = ["none", "wavefront"]


def _solver(case, backend, parallel="none"):
    method, build, overrides, role = CASES[case]
    options = SympilerOptions(backend=backend, parallel=parallel, **overrides)
    solver = SparseLinearSolver(build(), method=method, options=options)
    assert solver.factorization.loop.role == role
    assert solver.factorization.backend == backend
    return solver


@needs_cc
@pytest.mark.parametrize("parallel", PARALLEL)
@pytest.mark.parametrize("case", sorted(CASES))
def test_c_and_python_solve_entries_agree_to_the_bit(case, parallel):
    c, py = _solver(case, "c", parallel), _solver(case, "python", parallel)
    n = c.A.n
    B = np.random.default_rng(11).normal(size=(n, 5))
    for k in range(B.shape[1]):
        x = c.solve(B[:, k])
        np.testing.assert_array_equal(x, py.solve(B[:, k]))
        assert c.residual(x, B[:, k]) < 1e-10
    X = c.solve_many(B, num_threads=2)
    np.testing.assert_array_equal(X, py.solve_many(B, num_threads=2))
    for k in range(B.shape[1]):
        np.testing.assert_array_equal(X[:, k], py.solve(B[:, k]))


#: Supernodes of the widths 1-5, 9, 11, 16, 18, 20 and 27 (minimum degree), and
#: simplicial columns of many lengths, odd and even (block tridiagonal, blocks of 1-9).
WIDTHS = {
    "laplacian_3d_4": lambda: laplacian_3d(4),
    "laplacian_3d_5": lambda: laplacian_3d(5),
    "laplacian_2d_9": lambda: laplacian_2d(9),
    "fem_stencil_2d_8": lambda: fem_stencil_2d(8),
    "random_sparse": lambda: random_spd(70, 0.08, seed=3),
    "random_dense": lambda: random_spd(30, 0.5, seed=3),
    **{f"block_tridiagonal_{k}": (lambda k=k: block_tridiagonal_spd(14, k, seed=k)) for k in range(1, 10)},
}


@needs_cc
@pytest.mark.parametrize("method", ["cholesky", "ldlt"])
@pytest.mark.parametrize("vs_block", [True, False])
@pytest.mark.parametrize("pattern", sorted(WIDTHS))
def test_every_supernode_width_and_column_length_agrees_to_the_bit(pattern, vs_block, method):
    A = WIDTHS[pattern]()
    b = np.cos(np.arange(A.n, dtype=np.float64))
    answers = []
    for backend in ("c", "python"):
        options = SympilerOptions(backend=backend, enable_vs_block=vs_block)
        answers.append(SparseLinearSolver(A, method=method, options=options).solve(b))
    np.testing.assert_array_equal(*answers)


@pytest.mark.parametrize("backend", ["python", pytest.param("c", marks=needs_cc)])
@pytest.mark.parametrize("case", ["cholesky-supernodal", "ldlt-simplicial", "lu"])
def test_foreign_factors_reach_the_bits_of_the_owned_ones(case, backend):
    solver = _solver(case, backend)
    b = np.linspace(-1.0, 1.0, solver.A.n)
    x = solver.solve(b)
    np.testing.assert_array_equal(x, solver.solve_with_factors(b, L=solver.L, d=solver.d, U=solver.U))
    handle = BatchedSolver(solver.A, method=solver.method, options=solver.options).factorize_batch([solver.A])[0]
    np.testing.assert_array_equal(x, handle.solve(b))


@pytest.mark.parametrize("backend", ["python", pytest.param("c", marks=needs_cc)])
@pytest.mark.parametrize("case", ["cholesky-supernodal", "ldlt-supernodal", "lu"])
def test_strided_and_aliased_vectors_give_the_contiguous_answer(case, backend):
    solver = _solver(case, backend)
    n = solver.A.n
    b = np.random.default_rng(12).normal(size=n)
    x = solver.solve(b)
    # b as a strided view of a wider array, out as another.
    wide = np.zeros((n, 3))
    wide[:, 1] = b
    out_wide = np.full((n, 2), np.nan)
    np.testing.assert_array_equal(solver.solve(wide[:, 1]), x)
    solver.solve(wide[:, 1], out=out_wide[:, 0])
    np.testing.assert_array_equal(out_wide[:, 0], x)
    assert np.isnan(out_wide[:, 1]).all()
    np.testing.assert_array_equal(wide[:, 1], b)
    # out is b itself, contiguous and strided.
    same = b.copy()
    assert solver.solve(same, out=same) is same
    np.testing.assert_array_equal(same, x)
    solver.solve(wide[:, 1], out=wide[:, 1])
    np.testing.assert_array_equal(wide[:, 1], x)
    # The same through foreign factors, bound per call.
    out = np.full((n, 2), np.nan)
    solver.solve_with_factors(np.repeat(b, 2)[::2], L=solver.L, d=solver.d, U=solver.U, out=out[:, 1])
    np.testing.assert_array_equal(out[:, 1], x)
    # And a B held row-major, whose columns are strided.
    B = np.ascontiguousarray(np.stack([b, 2.0 * b], axis=1))
    X = solver.solve_many(B)
    np.testing.assert_array_equal(X[:, 0], x)
    np.testing.assert_array_equal(X[:, 1], solver.solve(2.0 * b))


@pytest.mark.parametrize("backend", ["python", pytest.param("c", marks=needs_cc)])
def test_solve_many_of_no_columns_is_an_empty_block(backend):
    solver = _solver("lu", backend)
    n = solver.A.n
    X = solver.solve_many(np.empty((n, 0)), num_threads=2)
    assert X.shape == (n, 0) and X.dtype == np.float64
    with pytest.raises(ValueError, match="B must have shape"):
        solver.solve_many(np.empty((n + 1, 0)))


@needs_cc
def test_set_up_writes_one_source_and_one_shared_object(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_SYMPILER_CACHE", str(tmp_path))
    monkeypatch.setattr(sympiler_module, "_SHARED_CACHE", ArtifactCache())
    A = random_spd(70, 0.05, seed=41)
    solver = SparseLinearSolver(A, options=SympilerOptions(backend="c"))
    files = sorted(os.listdir(tmp_path))
    assert [os.path.splitext(f)[1] for f in files] == [".c", ".so"]
    assert all(f.startswith("cholesky_") for f in files)
    b = np.ones(A.n)
    x = solver.solve(b)
    # The sweeps one by one, for callers that time them: compiled on first access.
    factorization, forward, backward = solver.compiled_artifacts
    assert factorization is solver.factorization
    assert isinstance(forward, SympiledTriangularSolve) and isinstance(backward, SympiledTriangularSolve)
    assert solver.compiled_artifacts[1] is forward
    assert len(os.listdir(tmp_path)) == 4
    L = solver.L
    y = forward.solve(L, b[solver.permutation.perm])
    z_rev = backward.solve(backward_factor(L), y[::-1])
    np.testing.assert_allclose(z_rev[(A.n - 1) - solver.permutation.inv], x, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("backend", ["python", pytest.param("c", marks=needs_cc)])
def test_bind_solve_checks_its_arrays(backend):
    options = SympilerOptions(backend=backend)
    solver = SparseLinearSolver(laplacian_2d(6), options=options)
    factorization, n = solver.factorization, solver.A.n
    perm, (Lx,), b = solver.permutation.perm, solver._outputs, np.ones(n)
    with pytest.raises(TypeError, match="binds the arrays perm, Lx, b, w, x; got 6 arrays"):
        factorization.bind_solve((perm, Lx, Lx, b), (np.empty(n), np.empty(n)))
    with pytest.raises(ValueError, match="Lx has length"):
        factorization.bind_solve((perm, Lx[:-1], b), (np.empty(n), np.empty(n)))
    with pytest.raises(ValueError, match="perm must be a C-contiguous int64 array"):
        factorization.bind_solve((perm.astype(np.int32), Lx, b), (np.empty(n), np.empty(n)))
    with pytest.raises(ValueError, match="b must be a C-contiguous float64 array"):
        factorization.bind_solve((perm, Lx, np.ones((n, 2))[:, 0]), (np.empty(n), np.empty(n)))
    with pytest.raises(ValueError, match="x has length"):
        factorization.bind_solve((perm, Lx, b), (np.empty(n), np.empty(n + 1)))
    x = b.copy()
    factorization.bind_solve((perm, Lx, x), (np.empty(n), x))()  # x is b
    np.testing.assert_array_equal(x, solver.solve(b))


#: Every SPD generator, IC(0)'s domain: the conftest zoo at a second size each.
IC0_ZOO = {
    "laplacian_2d": lambda: laplacian_2d(11),
    "laplacian_3d": lambda: laplacian_3d(5),
    "fem": lambda: fem_stencil_2d(9),
    "banded": lambda: banded_spd(60, 6, seed=7),
    "block": lambda: block_tridiagonal_spd(8, 4, seed=8),
    "circuit": lambda: circuit_like_spd(70, seed=9),
    "random": lambda: random_spd(60, 0.08, seed=10),
    "grid": lambda: power_grid_spd(64, seed=11),
    "arrow": lambda: arrow_spd(45, 3, seed=12),
}


def _ic0_preconditioner(A, backend, parallel="none"):
    """``apply(r) -> (L Lᵀ)⁻¹ r`` through the IC(0) module's solve entry, bound once, and the factor values."""
    options = SympilerOptions(backend=backend, parallel=parallel)
    ic0 = Sympiler(options, cache=ArtifactCache()).compile("ic0", A)
    assert ic0.backend == backend
    Lx = ic0.factorize_arrays(A.indptr, A.indices, A.data)
    r, z = np.empty(A.n), np.empty(A.n)
    call = ic0.bind_solve((np.arange(A.n, dtype=np.int64), Lx, r), (np.empty(A.n), z))

    def apply(v):
        r[...] = v
        call()
        return z.copy()

    return apply, Lx


@needs_cc
@pytest.mark.parametrize("parallel", PARALLEL)
@pytest.mark.parametrize("name", sorted(IC0_ZOO))
def test_ic0_solve_entries_agree_to_the_bit(name, parallel):
    A = IC0_ZOO[name]()
    (c, Lx), (py, Lx_py) = (_ic0_preconditioner(A, backend, parallel) for backend in ("c", "python"))
    np.testing.assert_array_equal(Lx, Lx_py)
    L = lower_triangle(A).with_values(Lx)
    rng = np.random.default_rng(14)
    for r in (np.ones(A.n), rng.normal(size=A.n), np.where(rng.random(A.n) < 0.2, rng.normal(size=A.n), 0.0)):
        z = c(r)
        np.testing.assert_array_equal(z, py(r))
        # z solves L Lᵀ z = r.
        np.testing.assert_allclose(L.matvec(L.rmatvec(z)), r, rtol=0, atol=1e-10 * max(np.abs(r).max(), 1.0))


def test_subtract_reduce_is_the_sequential_fold_the_reference_mirrors():
    # reference.factor_solve reads a dot-form column as one np.subtract.reduce
    # from w[c]: the C loop's order only while that reduction is a left fold.
    rng = np.random.default_rng(13)
    for size in (0, 1, 3, 8, 17, 64, 129, 1000):
        for _ in range(20):
            terms = rng.normal(size=size) * 10.0 ** rng.integers(-8, 8, size=size)
            acc = start = rng.normal()
            for t in terms:
                acc -= t
            assert np.subtract.reduce(terms, initial=start) == acc


@needs_cc
@pytest.mark.parametrize("case", [*sorted(CASES), "ic0"])
def test_part_built_modules_are_the_whole_built_ones_to_the_bit(case, monkeypatch, tmp_path, cpus):
    """On two CPUs a module builds as two translation units: the same factors and ``x``."""
    results = []
    for count in (1, 2):
        cpus(count)
        monkeypatch.setenv("REPRO_SYMPILER_CACHE", str(tmp_path / f"cpus-{count}"))
        monkeypatch.setattr(sympiler_module, "_SHARED_CACHE", ArtifactCache())
        if case == "ic0":
            A = laplacian_2d(9)
            apply, Lx = _ic0_preconditioner(A, "c")
            factors, x = [Lx], apply(np.cos(np.arange(A.n)))
        else:
            solver = _solver(case, "c")
            U = solver.U
            factors = [solver.L.data, solver.d, None if U is None else U.data]
            x = solver.solve(np.cos(np.arange(solver.A.n)))
        (so_name,) = [name for name in os.listdir(tmp_path / f"cpus-{count}") if name.endswith(".so")]
        results.append((so_name, [None if f is None else f.tobytes() for f in factors], x.tobytes()))
    assert results[0] == results[1]
