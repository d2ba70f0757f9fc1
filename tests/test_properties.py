"""Property-based tests (hypothesis) for the core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.scipy_reference import reference_cholesky, reference_trisolve
from repro.compiler.codegen.c_backend import c_compiler_available
from repro.compiler.options import SympilerOptions
from repro.compiler.sympiler import Sympiler
from repro.sparse.coo import COOMatrix
from repro.sparse.csc import CSCMatrix
from repro.sparse.generators import laplacian_2d, laplacian_3d
from repro.sparse.ordering import minimum_degree_ordering
from repro.sparse.permutation import Permutation
from repro.symbolic.etree import elimination_tree, postorder
from repro.symbolic.fill_pattern import cholesky_pattern
from repro.symbolic.inspector import CholeskyInspector, TriangularSolveInspector
from repro.symbolic.reach import reach_set
from repro.symbolic.supernodes import triangular_supernodes

from oracles import lower_triangle

_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
@st.composite
def coo_matrices(draw, max_n=8, max_entries=30):
    n_rows = draw(st.integers(1, max_n))
    n_cols = draw(st.integers(1, max_n))
    n_entries = draw(st.integers(0, max_entries))
    rows = draw(
        st.lists(st.integers(0, n_rows - 1), min_size=n_entries, max_size=n_entries)
    )
    cols = draw(
        st.lists(st.integers(0, n_cols - 1), min_size=n_entries, max_size=n_entries)
    )
    vals = draw(
        st.lists(
            st.floats(-10, 10, allow_nan=False, allow_infinity=False),
            min_size=n_entries,
            max_size=n_entries,
        )
    )
    return COOMatrix(n_rows, n_cols, np.array(rows, dtype=np.int64),
                     np.array(cols, dtype=np.int64), np.array(vals))


@st.composite
def spd_matrices_strategy(draw, max_n=10):
    n = draw(st.integers(2, max_n))
    density = draw(st.floats(0.0, 0.6))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    dense = np.zeros((n, n))
    mask = rng.random((n, n)) < density
    vals = -np.abs(rng.normal(size=(n, n)))
    dense[mask] = vals[mask]
    dense = np.tril(dense, -1)
    dense = dense + dense.T
    np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 1.0)
    return CSCMatrix.from_dense(dense)


@st.composite
def lower_triangular_strategy(draw, max_n=10):
    A = draw(spd_matrices_strategy(max_n=max_n))
    return CSCMatrix.from_dense(np.linalg.cholesky(
        A.to_dense() if not A.is_lower_triangular() else A.to_dense()
    ))


# --------------------------------------------------------------------------- #
# Sparse containers
# --------------------------------------------------------------------------- #
@_settings
@given(coo_matrices())
def test_coo_to_csc_preserves_dense_form(coo):
    np.testing.assert_allclose(coo.to_csc().to_dense(), coo.to_dense(), atol=1e-12)


@_settings
@given(coo_matrices())
def test_csc_transpose_is_involutive(coo):
    A = coo.to_csc()
    np.testing.assert_allclose(A.transpose().transpose().to_dense(), A.to_dense())


@_settings
@given(coo_matrices())
def test_csc_matvec_matches_dense(coo):
    A = coo.to_csc()
    rng = np.random.default_rng(0)
    x = rng.normal(size=A.n_cols)
    np.testing.assert_allclose(A.matvec(x), A.to_dense() @ x, atol=1e-9)


def _validate_reference(M: CSCMatrix) -> None:
    """The per-column loop ``CSCMatrix.validate`` ran before it was vectorised.

    Kept as the oracle: the vectorised pass must accept and reject the same
    matrices with the same message (naming the same first offending column).
    """
    if M.n_rows < 0 or M.n_cols < 0:
        raise ValueError("matrix dimensions must be non-negative")
    if M.indptr.shape != (M.n_cols + 1,):
        raise ValueError(
            f"indptr must have length n_cols+1={M.n_cols + 1}, "
            f"got {M.indptr.shape[0]}"
        )
    if M.indptr[0] != 0:
        raise ValueError("indptr[0] must be 0")
    if np.any(np.diff(M.indptr) < 0):
        raise ValueError("indptr must be non-decreasing")
    nnz = int(M.indptr[-1])
    if M.indices.shape[0] != nnz or M.data.shape[0] != nnz:
        raise ValueError("indices/data length must equal indptr[-1]")
    if nnz:
        if M.indices.min() < 0 or M.indices.max() >= M.n_rows:
            raise ValueError("row index out of range")
    for j in range(M.n_cols):
        col = M.indices[M.indptr[j] : M.indptr[j + 1]]
        if col.size > 1:
            diffs = np.diff(col)
            if np.any(diffs < 0):
                raise ValueError(f"row indices in column {j} are not sorted")
            if np.any(diffs == 0):
                raise ValueError(f"duplicate row index in column {j}")


def _validation_outcome(check, M):
    try:
        check(M)
    except ValueError as exc:
        return str(exc)
    return None


_CORRUPTIONS = ("none", "unsorted", "duplicate", "row-range", "indptr-order", "indptr-length", "scramble")


@settings(_settings, max_examples=200)
@given(coo_matrices(max_n=7, max_entries=40), st.sampled_from(_CORRUPTIONS), st.integers(0, 2**31 - 1))
def test_validate_matches_per_column_reference(coo, corruption, seed):
    rng = np.random.default_rng(seed)
    A = coo.to_csc()
    indptr, indices = A.indptr.copy(), A.indices.copy()
    multi = np.flatnonzero(np.diff(indptr) > 1)  # columns with an adjacent pair
    if corruption in ("unsorted", "duplicate") and multi.size:
        j = int(rng.choice(multi))
        k = int(rng.integers(indptr[j], indptr[j + 1] - 1))
        if corruption == "unsorted":
            indices[[k, k + 1]] = indices[[k + 1, k]]
        else:
            indices[k + 1] = indices[k]
    elif corruption == "row-range" and A.nnz:
        indices[rng.integers(A.nnz)] = rng.choice([-1, A.n_rows])
    elif corruption == "indptr-order":
        indptr[rng.integers(indptr.size)] += rng.choice([-2, -1, 1, 2])
    elif corruption == "indptr-length":
        indptr = indptr[:-1] if rng.random() < 0.5 else np.append(indptr, indptr[-1])
    elif corruption == "scramble" and A.nnz:
        # Several in-range rewrites: first-offender ordering across columns.
        hits = rng.integers(A.nnz, size=min(3, A.nnz))
        indices[hits] = rng.integers(A.n_rows, size=hits.size)
    M = CSCMatrix(A.n_rows, A.n_cols, indptr, indices, A.data, check=False)
    expected = _validation_outcome(_validate_reference, M)
    assert _validation_outcome(CSCMatrix.validate, M) == expected
    if corruption == "none":
        assert expected is None


@_settings
@given(st.integers(1, 30), st.integers(0, 2**31 - 1))
def test_permutation_roundtrip(n, seed):
    rng = np.random.default_rng(seed)
    p = Permutation(rng.permutation(n))
    x = rng.normal(size=n)
    np.testing.assert_array_equal(x[p.perm][p.inv], x)
    assert p.inverse().inverse() == p


@_settings
@given(spd_matrices_strategy(), st.integers(0, 2**31 - 1))
def test_symmetric_permutation_preserves_spectrum(A, seed):
    rng = np.random.default_rng(seed)
    p = Permutation(rng.permutation(A.n))
    B = p.symmetric_permute(A)
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvalsh(B.to_dense())),
        np.sort(np.linalg.eigvalsh(A.to_dense())),
        atol=1e-8,
    )


# --------------------------------------------------------------------------- #
# Symbolic invariants
# --------------------------------------------------------------------------- #
@_settings
@given(spd_matrices_strategy())
def test_etree_parent_exceeds_child(A):
    parent = elimination_tree(A)
    for j, p in enumerate(parent):
        assert p == -1 or p > j
    assert sorted(postorder(parent).tolist()) == list(range(A.n))


@_settings
@given(spd_matrices_strategy())
def test_cholesky_pattern_contains_tril_and_matches_numeric_factor(A):
    indptr, indices = cholesky_pattern(A)
    tril = lower_triangle(A)
    numeric = np.abs(reference_cholesky(A)) > 1e-12
    for j in range(A.n):
        predicted = set(indices[indptr[j] : indptr[j + 1]].tolist())
        assert set(tril.col_rows(j).tolist()) <= predicted
        assert set(np.nonzero(numeric[:, j])[0].tolist()) <= predicted


@_settings
@given(lower_triangular_strategy(), st.integers(0, 2**31 - 1))
def test_reach_set_is_closed_and_contains_sources(L, seed):
    rng = np.random.default_rng(seed)
    n_sources = rng.integers(1, max(2, L.n // 2))
    sources = rng.choice(L.n, size=n_sources, replace=False)
    reach = reach_set(L, sources)
    reach_set_py = set(int(v) for v in reach)
    assert set(int(s) for s in sources) <= reach_set_py
    # Closure: every dependent of a reached column is reached.
    for j in reach_set_py:
        rows = L.col_rows(j)
        for i in rows[rows > j]:
            assert int(i) in reach_set_py


@_settings
@given(lower_triangular_strategy())
def test_triangular_supernodes_partition_columns(L):
    partition = triangular_supernodes(L)
    covered = []
    for s in range(partition.n_supernodes):
        covered.extend(range(*partition.columns(s)))
    assert covered == list(range(L.n))


# --------------------------------------------------------------------------- #
# Generated-code invariants
# --------------------------------------------------------------------------- #
@_settings
@given(lower_triangular_strategy(), st.integers(0, 2**31 - 1))
def test_generated_triangular_solve_matches_reference(L, seed):
    rng = np.random.default_rng(seed)
    b = np.zeros(L.n)
    nnz = int(rng.integers(1, max(2, L.n // 2)))
    b[rng.choice(L.n, size=nnz, replace=False)] = rng.uniform(0.5, 2.0, size=nnz)
    compiled = Sympiler().compile_triangular_solve(L, rhs_pattern=np.nonzero(b)[0])
    np.testing.assert_allclose(compiled.solve(L, b), reference_trisolve(L, b), atol=1e-8)


@_settings
@given(spd_matrices_strategy())
def test_generated_cholesky_matches_reference(A):
    compiled = Sympiler().compile_cholesky(A)
    L = compiled.factorize(A)
    np.testing.assert_allclose(L.to_dense(), reference_cholesky(A), atol=1e-8)


needs_cc = pytest.mark.skipif(not c_compiler_available("cc"), reason="no C compiler available")


def _check_c_matches_python_bitwise(A, seed, kernels):
    """Every C entry against the python backend."""
    rng = np.random.default_rng(seed)
    sym = Sympiler()
    python, c = SympilerOptions(backend="python"), SympilerOptions(backend="c")
    # A raw output is one value array (Lx) or a pair ((Lx, D), (Lx, Ux)).
    flat = lambda raw: np.concatenate(raw if isinstance(raw, tuple) else (raw,))  # noqa: E731
    for kernel in kernels:
        expected = sym.compile(kernel, A, options=python).factorize_arrays(A.indptr, A.indices, A.data)
        raw = sym.compile(kernel, A, options=c).factorize_arrays(A.indptr, A.indices, A.data)
        assert isinstance(raw, tuple) == isinstance(expected, tuple)
        np.testing.assert_array_equal(flat(raw), flat(expected))
    L = sym.compile("cholesky", A, options=python).factorize(A)
    b = np.zeros(L.n)
    nnz = int(rng.integers(1, max(2, L.n // 2)))
    b[rng.choice(L.n, size=nnz, replace=False)] = rng.uniform(0.5, 2.0, size=nnz)
    for rhs_pattern in (None, np.nonzero(b)[0]):
        expected = sym.compile("triangular-solve", L, options=python, rhs_pattern=rhs_pattern).solve(L, b)
        compiled = sym.compile("triangular-solve", L, options=c, rhs_pattern=rhs_pattern)
        np.testing.assert_array_equal(compiled.solve_arrays(L.indptr, L.indices, L.data, b), expected)


@needs_cc
def test_every_c_kernel_matches_the_python_backend_bitwise(tmp_path, monkeypatch):
    """Random patterns through the table-block ABI: both backends read one
    block and perform one sequence of operations, blocked or not."""
    # Random patterns would litter a persistent cache with one-off kernels.
    monkeypatch.setenv("REPRO_SYMPILER_CACHE", str(tmp_path))

    @settings(_settings, max_examples=8)
    @given(spd_matrices_strategy(max_n=12), st.integers(0, 2**31 - 1))
    def check(A, seed):
        _check_c_matches_python_bitwise(A, seed, ("cholesky", "ldlt", "lu", "ic0"))

    check()


@needs_cc
@pytest.mark.parametrize("grid", ["laplacian_3d(9)", "laplacian_2d(30)"])
def test_wide_supernodes_match_the_python_backend_bitwise(grid, tmp_path, monkeypatch):
    """Minimum-degree-ordered grids (widest supernode 122 / 42 columns): the
    panel factorization, its triangular solve and the supernode blocks of the
    sweeps — the operation orders the python backend used to go its own way on."""
    monkeypatch.setenv("REPRO_SYMPILER_CACHE", str(tmp_path))
    A = laplacian_3d(9) if grid == "laplacian_3d(9)" else laplacian_2d(30)
    A = minimum_degree_ordering(A).symmetric_permute(A)
    widths = np.diff(CholeskyInspector().inspect(A).supernodes.super_ptr)
    assert widths.max() == (122 if grid == "laplacian_3d(9)" else 42)
    assert "vs-block" in Sympiler().compile("cholesky", A).applied_transformations  # and VS-Block takes them
    _check_c_matches_python_bitwise(A, 7, ("cholesky", "ldlt"))


@_settings
@given(spd_matrices_strategy())
def test_inspector_reach_consistency_with_solution_pattern(A):
    L = CSCMatrix.from_dense(reference_cholesky(A))
    b = np.zeros(L.n)
    b[0] = 1.0
    result = TriangularSolveInspector().inspect(L, rhs_pattern=[0])
    x = reference_trisolve(L, b)
    nonzeros = set(np.nonzero(np.abs(x) > 1e-14)[0].tolist())
    assert nonzeros <= set(int(v) for v in result.reach)
