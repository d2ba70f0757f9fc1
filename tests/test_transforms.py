"""Tests for the inspector-guided and low-level transformations: their tables and their plans."""

import numpy as np
import pytest

from repro.compiler import plan as plan_module
from repro.compiler.codegen import tables
from repro.compiler.options import SympilerOptions
from repro.compiler.plan import (
    CompilationContext,
    plan_cholesky,
    plan_incomplete,
    plan_lu,
    plan_triangular_solve,
    vs_block_participates,
)
from repro.sparse import generators
from repro.sparse.csc import CSCMatrix
from repro.sparse.generators import arrow_spd, block_tridiagonal_spd, sparse_rhs, unsymmetric_diag_dominant
from repro.sparse.ordering import minimum_degree_ordering
from repro.symbolic.inspector import (
    CholeskyInspector,
    IC0Inspector,
    LUInspector,
    TriangularSolveInspector,
)
from repro.symbolic.supernodes import supernodes_from_boundaries

from oracles import cholesky_factor


def _tri_context(L, options=None, rhs_nnz=3):
    b = sparse_rhs(L.n, nnz=rhs_nnz, seed=4)
    inspection = TriangularSolveInspector().inspect(L, rhs_pattern=np.nonzero(b)[0])
    return CompilationContext(
        method="triangular-solve", matrix=L, inspection=inspection, options=options or SympilerOptions()
    )


def _chol_context(A, options=None, method="cholesky"):
    inspection = CholeskyInspector().inspect(A)
    return CompilationContext(method=method, matrix=A, inspection=inspection, options=options or SympilerOptions())


def _segments(loop):
    """``(blocks, runs)`` of a planned solve: the ``w > 0`` seg rows, and each run's columns."""
    sets = loop.contract[1]
    rows = sets["seg"].reshape(-1, 5)
    runs = [sets["run_cols"][a:b] for w, a, b, _, _ in rows if w == 0]
    return rows[rows[:, 0] > 0], runs


# --------------------------------------------------------------------------- #
# The tables, by name
# --------------------------------------------------------------------------- #
def _edge_patterns():
    """Patterns the tables must survive: no update, no supernode, one supernode, a late hub."""
    dense = np.ones((6, 6)) + 6.0 * np.eye(6)
    return {
        "n=1": CSCMatrix.from_dense(np.array([[2.0]])),
        "diagonal": CSCMatrix.from_dense(3.0 * np.eye(5)),
        "dense": CSCMatrix.from_dense(dense),
        "arrow": arrow_spd(9, 1, seed=1),
    }


def test_a_lower_positions(spd_matrices):
    A = spd_matrices["fem"]
    _, sets = tables.simplicial_cholesky(A, CholeskyInspector().inspect(A), "llt")
    for j in range(A.n):
        rows = A.indices[sets["a_diag_pos"][j] : sets["a_col_end"][j]]
        assert rows[0] == j
        assert np.all(rows >= j)


def _row(inspection, j):
    """Row ``j`` of ``L`` without its diagonal: the prune-set of column ``j``."""
    return inspection.row_idx[inspection.row_ptr[j] : inspection.row_ptr[j + 1]]


def _check_simplicial(A, factor_kind="ldlt"):
    inspection = CholeskyInspector().inspect(A)
    dims, sets = tables.simplicial_cholesky(A, inspection, factor_kind)
    assert dims == {"nnz_l": inspection.factor_nnz}
    assert sets["prune_ptr"][-1] == inspection.row_idx.size == sets["update_pos"].size
    cursor = 0
    for j in range(A.n):
        assert sets["prune_ptr"][j] == cursor
        for k in _row(inspection, j):
            assert inspection.l_indices[sets["update_pos"][cursor]] == j
            assert sets["update_end"][cursor] == inspection.l_indptr[int(k) + 1]
            assert sets["update_col"][cursor] == k
            cursor += 1


def test_simplicial_descriptors_point_at_ljk(spd_matrices):
    _check_simplicial(spd_matrices["laplacian_2d"])
    A = spd_matrices["laplacian_2d"]
    assert "update_col" not in tables.simplicial_cholesky(A, CholeskyInspector().inspect(A), "llt")[1]


def _check_supernodal(A):
    """The (target, descendant supernode, i0, i1) rows against the per-column updates they stand for."""
    inspection = CholeskyInspector().inspect(A)
    dims, sets = tables.supernodal_cholesky(A, inspection)
    partition, Lp, Li = inspection.supernodes, inspection.l_indptr, inspection.l_indices
    assert sets["sup_start"].size == partition.n_supernodes == dims["n_super"]
    panel = 0
    covered = []  # one (target, descendant column) per column of every descendant row
    for s in range(partition.n_supernodes):
        c0, c1 = partition.columns(s)
        assert (sets["sup_start"][s], sets["sup_end"][s]) == (c0, c1)
        rows = Li[Lp[c0] : Lp[c0 + 1]]
        # The supernode's own columns come first in its row list, and every column shares it.
        assert rows[: c1 - c0].tolist() == list(range(c0, c1))
        for c in range(c0, c1):
            assert Li[Lp[c] : Lp[c + 1]].tolist() == rows[c - c0 :].tolist()
        assert sets["sup_panel_ptr"][s] == panel
        panel += rows.size * (c1 - c0)
        lo, hi = sets["desc_ptr"][s], sets["desc_ptr"][s + 1]
        assert np.all(np.diff(sets["desc_sup"][lo:hi]) > 0)  # ascending, each once
        for d, i0, i1 in zip(sets["desc_sup"][lo:hi], sets["desc_i0"][lo:hi], sets["desc_i1"][lo:hi]):
            d0, d1 = partition.columns(int(d))
            drows = Li[Lp[d0] : Lp[d0 + 1]]
            assert d < s and d1 - d0 <= i0 < i1 <= drows.size
            # Rows i0 .. i1 are exactly d's rows among s's columns; every row from i0 on is one of s's rows.
            assert np.all((drows[i0:i1] >= c0) & (drows[i0:i1] < c1)) and drows[i0 - 1] < c0
            assert i1 == drows.size or drows[i1] >= c1
            assert np.isin(drows[i0:], rows).all()
            covered += [(s, k) for k in range(d0, d1)]
    assert dims["sn_panel_total"] == panel
    # The per-column contract: one update of supernode s per column k < c0 with a row among s's columns.
    column = np.repeat(np.arange(A.n), np.diff(Lp))
    target = partition.col_to_super[Li]
    left = column < sets["sup_start"][target]
    expected = sorted(set(zip(target[left].tolist(), column[left].tolist())))
    assert sorted(covered) == expected


def test_supernodal_descriptors_cover_all_updates(spd_matrices):
    _check_supernodal(spd_matrices["block"])


_GENERATOR_ZOO = {
    "laplacian_2d": lambda: generators.laplacian_2d(10),
    "laplacian_3d": lambda: generators.laplacian_3d(5),
    "fem_stencil_2d": lambda: generators.fem_stencil_2d(7),
    "banded": lambda: generators.banded_spd(150, 6, seed=3),
    "block_tridiagonal": lambda: generators.block_tridiagonal_spd(12, 8, seed=4),
    "circuit": lambda: generators.circuit_like_spd(150, seed=5),
    "power_grid": lambda: generators.power_grid_spd(200, seed=6),
    "random": lambda: generators.random_spd(80, 0.04, seed=7),
    "arrow": lambda: generators.arrow_spd(200, 4, seed=8),
}


@pytest.mark.parametrize("ordering", ["natural", "mindeg"])
@pytest.mark.parametrize("name", sorted(_GENERATOR_ZOO))
def test_supernodal_rows_cover_the_per_column_updates_exactly_once(name, ordering):
    A = _GENERATOR_ZOO[name]()
    if ordering == "mindeg":
        A = minimum_degree_ordering(A).symmetric_permute(A)
    _check_supernodal(A)


def test_lu_descriptors_point_below_the_pivot():
    A = unsymmetric_diag_dominant(40, seed=3)
    inspection = LUInspector().inspect(A)
    dims, sets = tables.simplicial_lu(A, inspection)
    assert dims == {"nnz_l": inspection.l_nnz, "nnz_u": inspection.u_nnz}
    np.testing.assert_array_equal(sets["a_col_start"], A.indptr[:-1])
    for j in range(A.n):
        above = inspection.u_indices[inspection.u_indptr[j] : inspection.u_indptr[j + 1] - 1]
        lo, hi = sets["prune_ptr"][j], sets["prune_ptr"][j + 1]
        assert sets["update_col"][lo:hi].tolist() == above.tolist()
        for t in range(lo, hi):
            k = sets["update_col"][t]
            assert inspection.l_indices[sets["update_pos"][t] - 1] == k  # the unit diagonal is skipped
            assert sets["update_end"][t] == inspection.l_indptr[k + 1]


def _check_ic0(A):
    inspection = IC0Inspector().inspect(A)
    Lp, Li = inspection.l_indptr, inspection.l_indices
    dims, sets = tables.incomplete_ic0(A, inspection)
    assert dims == {"nnz_l": Li.size}
    np.testing.assert_array_equal(A.indices[sets["a_lower_pos"]], Li)
    t = 0
    for j in range(A.n):
        assert sets["prune_ptr"][j] == t
        for k in _row(inspection, j):
            assert Li[sets["mult_pos"][t]] == j and Lp[k] <= sets["mult_pos"][t] < Lp[k + 1]
            src = sets["l_scat_src"][sets["l_scat_ptr"][t] : sets["l_scat_ptr"][t + 1]]
            dst = sets["l_scat_dst"][sets["l_scat_ptr"][t] : sets["l_scat_ptr"][t + 1]]
            # Sources in column k from row j down, destinations in column j, same rows: the
            # intersection of the two patterns, nothing dropped that both store.
            assert src[0] == sets["mult_pos"][t] and np.all(src < Lp[k + 1])
            assert np.all((Lp[j] <= dst) & (dst < Lp[j + 1]))
            np.testing.assert_array_equal(Li[src], Li[dst])
            common = np.intersect1d(Li[sets["mult_pos"][t] : Lp[k + 1]], Li[Lp[j] : Lp[j + 1]])
            np.testing.assert_array_equal(Li[src], common)
            t += 1
    assert t == sets["mult_pos"].size == sets["l_scat_ptr"].size - 1


def test_ic0_scatter_is_the_pattern_intersection(spd_matrices):
    _check_ic0(spd_matrices["fem"])


def _check_segments(L, partition, active, min_width):
    dims, sets = tables.trisolve_segments(L, partition, active, min_width)
    rows = sets["seg"].reshape(-1, 5)
    assert dims == {"n_seg": rows.shape[0]}
    visited, cs = [], 0
    for w, a, b, off_lo, start in rows:
        if w == 0:
            assert b > a
            visited.append(sets["run_cols"][a:b])
            continue
        assert w >= min_width and start == cs and w == partition.width(partition.col_to_super[a])
        np.testing.assert_array_equal(sets["blk_cs"][cs : cs + w], L.indptr[a : a + w])
        # The rows below the diagonal block are the tail of the first column's pattern.
        assert off_lo + b == L.indptr[a + 1] and np.all(L.indices[off_lo : off_lo + b] >= a + w)
        visited.append(np.arange(a, a + w))
        cs += w
    visited = np.concatenate(visited) if visited else np.zeros(0, dtype=np.int64)
    # Ascending and disjoint; every active column, plus only the rest of a blocked supernode.
    assert np.all(np.diff(visited) > 0) and set(np.asarray(active).tolist()) <= set(visited.tolist())
    extra = np.setdiff1d(visited, active)
    assert np.all(partition.sizes()[partition.col_to_super[extra]] >= min_width)
    assert cs == sets["blk_cs"].size and sets["run_cols"].size == sum(r[2] - r[1] for r in rows if r[0] == 0)
    return rows


def test_segment_table_covers_exactly_the_active_columns(lower_factors):
    L = lower_factors["block"]
    partition = TriangularSolveInspector().inspect(L).supernodes
    assert (_check_segments(L, partition, np.arange(L.n), 2)[:, 0] > 0).any()
    reach = TriangularSolveInspector().inspect(L, rhs_pattern=[3]).reach_sorted
    rows = _check_segments(L, partition, reach, 2)
    assert 0 < rows.shape[0] and reach.size < L.n
    # Wider than every supernode: nothing is blocked, one run holds every active column.
    rows = _check_segments(L, partition, reach, L.n + 1)
    assert rows.tolist() == [[0, 0, reach.size, 0, 0]]


def test_a_reach_set_that_misses_every_wide_supernode_leaves_runs_only():
    """Columns 1-3 are the one wide supernode; a right-hand side on column 4 reaches none of it."""
    dense = np.eye(6)
    dense[1:4, 1:4] = np.tril(np.ones((3, 3)))
    dense[5, 0] = dense[5, 4] = 1.0
    L = CSCMatrix.from_dense(dense)
    partition = supernodes_from_boundaries([0, 1, 4, 5], 6)
    rows = _check_segments(L, partition, np.array([4, 5]), 2)
    assert rows.tolist() == [[0, 0, 2, 0, 0]]
    # Column 0 and column 4 sit on either side of the dropped block: two runs, not one.
    dims, sets = tables.trisolve_segments(L, partition, np.array([0, 4, 5]), 2)
    assert dims == {"n_seg": 2} and sets["seg"].tolist() == [0, 0, 1, 0, 0, 0, 1, 3, 0, 0]
    assert sets["blk_cs"].size == 0
    assert tables.trisolve_segments(L, partition, np.zeros(0, dtype=np.int64), 2)[0] == {"n_seg": 0}


@pytest.mark.parametrize("name", ["n=1", "diagonal", "dense", "arrow"])
def test_tables_of_edge_patterns(name):
    """No update at all, no off-diagonal entry, one supernode, one late hub column."""
    A = _edge_patterns()[name]
    _check_simplicial(A)
    _check_supernodal(A)
    _check_ic0(A)
    inspection = CholeskyInspector().inspect(A)
    L = inspection.l_pattern_matrix()
    partition = TriangularSolveInspector().inspect(L).supernodes
    for active in (np.arange(A.n), np.array([A.n - 1]), np.zeros(0, dtype=np.int64)):
        _check_segments(L, partition, active, 2)
    if name in ("n=1", "diagonal"):
        _, sets = tables.supernodal_cholesky(A, inspection)
        assert sets["desc_ptr"].tolist() == [0] * (A.n + 1) and sets["desc_sup"].size == 0
        assert tables.incomplete_ic0(A, IC0Inspector().inspect(A))[1]["l_scat_src"].size == 0


def _five_column_factor():
    """A 5 x 5 lower-triangular pattern whose columns 1-3 are one supernode."""
    dense = np.eye(5)
    dense[1:, 0] = dense[2:, 1] = dense[3:, 2] = dense[4:, 3] = 1.0
    dense[[2, 3], 0] = 0.0  # column 0 is not in the supernode: rows {0, 1, 4}
    return CSCMatrix.from_dense(dense)


def test_segments_without_a_partition_are_one_run_in_the_given_order():
    dims, sets = tables.trisolve_segments(_five_column_factor(), None, [3, 1, 2], 0)
    assert dims == {"n_seg": 1} and sets["seg"].tolist() == [0, 0, 3, 0, 0]
    assert sets["run_cols"].dtype == np.int64 and sets["run_cols"].tolist() == [3, 1, 2]


def test_a_wide_supernode_is_one_block_row():
    """A wide supernode is one row ``{w, c0, n_off, off_lo, cs}`` and its column starts."""
    L = _five_column_factor()
    partition = supernodes_from_boundaries([0, 1, 4], 5)
    dims, sets = tables.trisolve_segments(L, partition, np.arange(5), 2)
    assert dims == {"n_seg": 3}
    run, blk, tail = sets["seg"].reshape(3, 5).tolist()
    assert run == [0, 0, 1, 0, 0] and tail == [0, 1, 2, 0, 0] and sets["run_cols"].tolist() == [0, 4]
    assert blk == [3, 1, 1, int(L.indptr[1]) + 3, 0]  # one row (4) below the 3 x 3 diagonal block
    assert L.indices[blk[3] : blk[3] + blk[2]].tolist() == [4]
    assert sets["blk_cs"].tolist() == L.indptr[1:4].tolist()


# --------------------------------------------------------------------------- #
# VI-Prune
# --------------------------------------------------------------------------- #
def test_vi_prune_triangular_iterates_the_reach_set(lower_factors):
    L = lower_factors["fem"]
    context = _tri_context(L, SympilerOptions(enable_vs_block=False))
    loop = plan_triangular_solve(context)
    assert loop.role == "trisolve-segments" and loop.factor_kind is None
    blocks, runs = _segments(loop)
    assert not blocks.size and len(runs) == 1
    # The reach-set in the inspector's topological order, not sorted.
    np.testing.assert_array_equal(runs[0], context.inspection.reach)
    assert context.applied == ["vi-prune"]
    assert context.decisions["vi-prune"] == {"mode": "loop", "reach_size": context.inspection.reach.size}


def test_vi_prune_cholesky_produces_simplicial_loop(spd_matrices):
    A = spd_matrices["laplacian_2d"]
    context = _chol_context(A, SympilerOptions(enable_vs_block=False))
    loop = plan_cholesky(context)
    assert loop.role == "simplicial-cholesky" and loop.factor_kind == "llt"
    dims, sets = loop.contract
    assert dims == {"nnz_l": context.inspection.factor_nnz}
    assert list(sets) == ["l_indptr", "l_indices", "a_diag_pos", "a_col_end", "prune_ptr", "update_pos", "update_end"]
    assert context.decisions["vi-prune"] == {"mode": "loop", "total_updates": int(sets["prune_ptr"][-1])}
    # LDL^T is the same loop over the same prune-sets, and also reads the descendant columns.
    ldlt = plan_cholesky(_chol_context(A, SympilerOptions(enable_vs_block=False), method="ldlt"))
    assert ldlt.role == "simplicial-cholesky" and ldlt.factor_kind == "ldlt" and "update_col" in ldlt.contract[1]


def test_without_vi_prune_only_the_triangular_solve_has_a_loop(lower_factors, spd_matrices):
    """The untransformed solve is the plain column loop; a factorization has none to fall back on."""
    baseline = SympilerOptions.baseline()
    context = _tri_context(lower_factors["fem"], baseline)
    assert plan_triangular_solve(context) is None and context.applied == [] and context.decisions == {}
    context = _chol_context(spd_matrices["fem"], baseline)
    assert plan_cholesky(context) is None and context.applied == []


def test_a_plan_refuses_an_inspection_of_another_kernel(lower_factors):
    context = _tri_context(lower_factors["fem"])
    context.method = "cholesky"
    with pytest.raises(TypeError, match="CholeskyInspectionResult"):
        plan_cholesky(context)


# --------------------------------------------------------------------------- #
# VS-Block
# --------------------------------------------------------------------------- #
def test_vs_block_participation_heuristic():
    wide = supernodes_from_boundaries([0, 4, 8], 12)
    yes, details = vs_block_participates(wide, min_supernode_width=2, min_avg_width=1.2)
    assert yes and details["participates"]
    singles = supernodes_from_boundaries(list(range(12)), 12)
    no, details = vs_block_participates(singles, min_supernode_width=2, min_avg_width=1.2)
    assert not no and details["n_wide_supernodes"] == 0
    # The threshold is on the mean width of *all* supernodes: one pair among ten
    # singles has wide supernodes of mean width 2 and still stays out.
    mostly_single = supernodes_from_boundaries([0, 2, *range(3, 12)], 12)
    no, details = vs_block_participates(mostly_single, min_supernode_width=2, min_avg_width=1.2)
    assert not no and details["avg_wide_width"] == 2.0 and details["avg_width"] < 1.2


def _blocked_factor(n_blocks, block_size, seed):
    return cholesky_factor(block_tridiagonal_spd(n_blocks, block_size, seed=seed, dense_coupling=True))


def test_vs_block_triangular_produces_blocks():
    L = _blocked_factor(6, 6, seed=1)
    context = _tri_context(L, SympilerOptions(enable_vi_prune=False))
    loop = plan_triangular_solve(context)
    blocks, runs = _segments(loop)
    assert blocks.size, "expected at least one supernode block"
    # Without VI-Prune every column is active: the blocks and runs cover them all, once.
    covered = sorted({c for w, c0 in blocks[:, :2] for c in range(c0, c0 + w)} | {c for r in runs for c in r.tolist()})
    assert covered == list(range(L.n))
    assert context.decisions["vs-block"]["participates"]
    assert context.applied == ["vs-block"]


def test_vs_block_skips_when_supernodes_are_small(lower_factors, monkeypatch):
    # The 2-D grid factor under this ordering has mostly width-1 supernodes.
    monkeypatch.setattr(plan_module, "_VS_BLOCK_MIN_AVG_WIDTH", 10.0)
    L = lower_factors["laplacian_2d"]
    context = _tri_context(L, SympilerOptions(enable_vi_prune=False))
    assert plan_triangular_solve(context) is None
    assert not context.decisions["vs-block"]["participates"]
    assert context.applied == []


def test_vs_block_cholesky_produces_supernodal_loop(spd_matrices):
    A = spd_matrices["block"]
    context = _chol_context(A, SympilerOptions())
    loop = plan_cholesky(context)
    assert loop.role == "supernodal-cholesky" and loop.factor_kind == "llt"
    assert loop.contract[0]["n_super"] == context.inspection.supernodes.n_supernodes
    # VI-Prune leaves the supernodal loop alone: its descendant descriptors are the prune-sets.
    assert context.applied == ["vs-block", "vi-prune"]
    assert context.decisions["vi-prune"] == {"mode": "blocked"}


def test_vi_prune_after_vs_block_drops_unreached_blocks(lower_factors):
    L = lower_factors["block"]
    blocks_before, _ = _segments(plan_triangular_solve(_tri_context(L, SympilerOptions(enable_vi_prune=False), rhs_nnz=1)))
    context = _tri_context(L, SympilerOptions(), rhs_nnz=1)
    blocks_after, runs = _segments(plan_triangular_solve(context))
    assert context.applied == ["vs-block", "vi-prune"] and context.decisions["vi-prune"]["mode"] == "blocked"
    reach = set(context.inspection.reach_sorted.tolist())
    assert 0 < len(reach) < L.n
    for w, c0 in blocks_after[:, :2]:
        assert any(c in reach for c in range(c0, c0 + w))
    assert len(blocks_after) <= len(blocks_before)
    assert all(set(run.tolist()) <= reach for run in runs)
    covered = {c for w, c0 in blocks_after[:, :2] for c in range(c0, c0 + w)} | {c for run in runs for c in run.tolist()}
    assert reach <= covered


@pytest.mark.parametrize("method", ["lu", "ic0"])
def test_vs_block_is_not_considered_on_lu_or_ic0(method):
    """No supernodes are inspected and no decision is recorded: the loop is the pruned column loop."""
    A = block_tridiagonal_spd(6, 6, seed=1, dense_coupling=True)
    inspector, plan, role = {
        "lu": (LUInspector, plan_lu, "simplicial-lu"),
        "ic0": (IC0Inspector, plan_incomplete, "incomplete-cholesky"),
    }[method]
    inspection = inspector().inspect(A)
    assert not any(hasattr(inspection, name) for name in ("parent", "post", "l_col_counts", "supernodes"))
    context = CompilationContext(method=method, matrix=A, inspection=inspection, options=SympilerOptions())
    loop = plan(context)
    assert loop.role == role and loop.factor_kind == method
    assert "vs-block" not in context.decisions
    assert context.applied == ["vi-prune"]


@pytest.mark.parametrize("method", ["triangular-solve", "cholesky", "ldlt"])
def test_every_kernel_records_the_vs_block_thresholds(method):
    """Each VS-Block decision names the §4.2 thresholds it applied, the planner's constants."""
    from repro.compiler.cache import ArtifactCache
    from repro.compiler.sympiler import Sympiler

    sym = Sympiler(cache=ArtifactCache())
    A = block_tridiagonal_spd(6, 6, seed=1, dense_coupling=True)
    operand = sym.compile("cholesky", A).inspection.l_pattern_matrix() if method == "triangular-solve" else A
    decision = sym.compile(method, operand).decisions["vs-block"]
    assert decision["min_avg_width"] == plan_module._VS_BLOCK_MIN_AVG_WIDTH == 1.2
    assert decision["min_supernode_width"] == plan_module._VS_BLOCK_MIN_SUPERNODE_WIDTH == 2


#: The kernels that consider VS-Block; LU and IC(0) allow no in-block fill and do not.
_VS_BLOCK_KERNELS = ("cholesky", "ldlt", "triangular-solve")


@pytest.mark.parametrize(
    "matrix",
    [
        pytest.param(lambda: block_tridiagonal_spd(6, 6, seed=1, dense_coupling=True), id="block-coupled"),
        pytest.param(lambda: arrow_spd(30, 2, seed=6), id="arrow"),
        pytest.param(lambda: generators.laplacian_2d(7), id="laplacian_2d"),
    ],
)
@pytest.mark.parametrize("method", ["cholesky", "ic0", "ldlt", "lu", "triangular-solve"])
def test_a_vs_block_decision_is_recorded_exactly_where_vs_block_is_considered(method, matrix):
    from repro.compiler.cache import ArtifactCache
    from repro.compiler.registry import registered_kernels
    from repro.compiler.sympiler import Sympiler

    assert method in registered_kernels()
    sym = Sympiler(cache=ArtifactCache())
    A = matrix()
    operand = sym.compile("cholesky", A).inspection.l_pattern_matrix() if method == "triangular-solve" else A
    compiled = sym.compile(method, operand)
    considered = method in _VS_BLOCK_KERNELS
    assert ("vs-block" in compiled.decisions) is considered
    assert hasattr(compiled.inspection, "supernodes") is considered
    if not considered:
        assert "vs-block" not in compiled.applied_transformations
