"""The register tile of the supernodal LLᵀ / LDLᵀ kernel at its edges.

The generated supernode step updates 4 target columns x 8 rows at a time.
A tile past the last column repeats it and is not stored, and a tile past
the last row reads beyond the panel and stores only its valid rows.  The
matrix below is built so that every such edge occurs: supernodes of every
width from 1 to 9, descendant updates of every row count mod 8 and of 1 to 5
target columns, and in-panel tiles of every row count mod 8.  At each of them
the C kernel must agree with the python backend's reference to the bit, and
fail at the same column.
"""

import numpy as np
import pytest

from repro.compiler.cache import ArtifactCache
from repro.compiler.codegen.c_backend import c_compiler_available
from repro.compiler.options import SympilerOptions
from repro.compiler.registry import kernel_spec
from repro.compiler.sympiler import Sympiler
from repro.solvers.batched import BatchedSolver
from repro.solvers.linear_solver import SparseLinearSolver
from repro.sparse.csc import CSCMatrix
from repro.sparse.generators import laplacian_3d

needs_cc = pytest.mark.skipif(not c_compiler_available("cc"), reason="no C compiler available")

#: Two trailing dense supernodes, ``S1`` then ``S2``; a block ``(w, m1, m2)`` is ``w`` dense
#: columns coupled to the first ``m1`` columns of ``S1`` and the first ``m2`` of ``S2``.
S1, S2 = 6, 10
BLOCKS = [(w, (w + k) % 7, (2 * w + k) % 9 + 1) for w in range(1, 10) for k in (0, 3)]


def _tile_edge_matrix(seed=0):
    """An SPD matrix, in its natural order, whose supernodes are the blocks, ``S1`` and ``S2``."""
    rng = np.random.default_rng(seed)
    n = sum(w for w, _, _ in BLOCKS) + S1 + S2
    M = np.zeros((n, n))
    s1, s2 = np.arange(n - S1 - S2, n - S2), np.arange(n - S2, n)

    def couple(rows, cols):
        M[np.ix_(rows, cols)] = rng.uniform(-1.0, -0.1, (rows.size, cols.size))

    c = 0
    for w, m1, m2 in BLOCKS:
        cols = np.arange(c, c + w)
        couple(cols, cols)
        couple(np.concatenate([s1[:m1], s2[:m2]]), cols)
        c += w
    couple(np.concatenate([s1, s2]), np.concatenate([s1, s2]))
    M = np.tril(M, -1)
    M = M + M.T
    M[np.diag_indices(n)] = 1.0 - M.sum(axis=1)  # strictly diagonally dominant
    return CSCMatrix.from_dense(M)


A = _tile_edge_matrix()


def _edges(T):
    """The tile edges the supernode table ``T`` exercises."""
    start, width = T["_C_sup_start"], T["_C_sup_end"] - T["_C_sup_start"]
    rows = T["_C_l_indptr"][start + 1] - T["_C_l_indptr"][start]
    desc, i0, i1 = T["_C_desc_sup"], T["_C_desc_i0"], T["_C_desc_i1"]
    return {
        "widths": set(width.tolist()),
        "descendant_rows_mod_8": set(((rows[desc] - i0) % 8).tolist()),
        "target_columns": set((i1 - i0).tolist()),
        "in_panel_rows_mod_8": set(((rows - 4)[width > 4] % 8).tolist()),
    }


def test_the_matrix_reaches_every_tile_edge():
    solver = SparseLinearSolver(A, ordering="natural", options=SympilerOptions(backend="python"))
    assert solver._factorization.loop.role == "supernodal-cholesky"
    edges = _edges(solver._factorization.constants)
    assert edges["widths"] >= set(range(1, 10))
    assert edges["descendant_rows_mod_8"] == set(range(8))
    assert edges["target_columns"] >= set(range(1, 6))
    assert edges["in_panel_rows_mod_8"] == set(range(8))


def _scenarios(method):
    """Same-pattern value sets: diagonal sweeps, and for LDLᵀ the negative definite ``-A`` too."""
    diagonal = A.indices == np.repeat(np.arange(A.n), np.diff(A.indptr))
    out = [A.with_values(np.where(diagonal, A.data * (1.0 + 0.05 * b), A.data)) for b in range(4)]
    if method == "ldlt":
        out.append(A.with_values(-A.data))
    return out


@needs_cc
@pytest.mark.parametrize("num_threads", [1, 2])
@pytest.mark.parametrize("method", ["cholesky", "ldlt"])
def test_c_matches_python_bitwise_at_every_tile_edge(method, num_threads):
    scenarios = _scenarios(method)
    python = SparseLinearSolver(A, method=method, ordering="natural", options=SympilerOptions(backend="python"))
    expected = []
    for M in scenarios:
        python.factorize(M)
        expected.append((python.L.data.copy(), python.d))
    options = SympilerOptions(backend="c")
    batched = BatchedSolver(A, method=method, ordering="natural", options=options, num_threads=num_threads)
    assert batched.solver._factorization.loop.role == "supernodal-cholesky"
    for handle, (L, d) in zip(batched.factorize_batch(scenarios), expected):
        assert handle.ok and np.array_equal(handle.L.data, L)
        assert (handle.d is None) == (d is None) and (d is None or np.array_equal(handle.d, d))


def _outcome(artifact, M):
    """``("ok", values)`` or ``(exception type, message)`` of one numeric call."""
    try:
        raw = artifact.factorize_arrays(M.indptr, M.indices, M.data)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc).__name__, str(exc)
    return "ok", np.concatenate(raw if isinstance(raw, tuple) else (raw,))


def _with_pivot(k, value):
    """``A`` with row and column ``k`` decoupled (values 0.0, pattern kept) and ``A[k, k] = value``.

    Every multiplier of row ``k`` is then ``±0``, so the pivot of column
    ``k`` is ``value`` itself, and the columns before it are an SPD matrix.
    """
    data = A.data.copy()
    cols = np.repeat(np.arange(A.n), np.diff(A.indptr))
    data[(A.indices == k) | (cols == k)] = 0.0
    data[(A.indices == k) & (cols == k)] = value
    return A.with_values(data)


@needs_cc
@pytest.mark.parametrize("method", ["cholesky", "ldlt"])
def test_a_bad_pivot_in_each_tile_column_fails_alike(method):
    """Zero, negative and NaN pivots in the four columns of the widest block's in-panel tile."""
    sym = Sympiler(cache=ArtifactCache())
    python, c = (sym.compile(method, A, options=SympilerOptions(backend=b)) for b in ("python", "c"))
    T = c.constants
    start, width = T["_C_sup_start"], T["_C_sup_end"] - T["_C_sup_start"]
    c0 = int(start[np.flatnonzero(width == 9)[0]])
    failures = 0
    for k in range(c0 + 4, c0 + 8):
        for value in (0.0, -1.0, np.nan):
            M = _with_pivot(k, value)
            got, expected = _outcome(c, M), _outcome(python, M)
            assert got[0] == expected[0], (k, value, got, expected)
            if expected[0] == "ok":
                np.testing.assert_array_equal(got[1], expected[1])  # NaN for NaN
                continue
            assert got == expected == ("ValueError", kernel_spec(method).abi.failure.format(column=k))
            failures += 1
    # LLᵀ refuses all three, LDLᵀ only the zero pivot.
    assert failures == (12 if method == "cholesky" else 4)


@needs_cc
@pytest.mark.parametrize("method", ["cholesky", "ldlt", "lu"])
@pytest.mark.parametrize("matrix", ["tile_edges", "zoo_laplacian_3d"])
def test_the_auto_vectorizer_changes_no_bit(method, matrix):
    """The default flags against the same flags plus ``-ftree-vectorize``: two ``.so``, the same factors and ``x``.

    The default build leaves the compiler's vectorizer off and vectorizes
    the panel's column sweeps by hand; under ``-ffp-contract=off`` either
    build rounds every operation alike, so factors and solutions agree bit
    for bit on the tile-edge matrix and on a pattern of the benchmark zoo.
    """
    M, ordering = (A, "natural") if matrix == "tile_edges" else (laplacian_3d(9), "mindeg")
    default = SympilerOptions().c_flags
    solvers = [
        SparseLinearSolver(M, method=method, ordering=ordering, options=SympilerOptions(c_flags=flags))
        for flags in (default, (*default, "-ftree-vectorize"))
    ]
    stems = {s._factorization.module.shared_object for s in solvers}
    assert len(stems) == 2
    if method != "lu":
        assert all(s._factorization.loop.role == "supernodal-cholesky" for s in solvers)
    b = np.random.default_rng(1).normal(size=M.n)
    (off, on) = solvers
    for mine, theirs in zip(off._outputs, on._outputs):
        assert np.array_equal(mine, theirs)
    assert np.array_equal(off.solve(b), on.solve(b))
