"""Tests for the inspector-guided and low-level transformations."""

import numpy as np
import pytest

from repro.compiler.ast import domain_loop
from repro.compiler.codegen import tables
from repro.compiler.lowering import lower_cholesky, lower_triangular_solve
from repro.compiler.options import SympilerOptions
from repro.compiler.transforms.base import CompilationContext, TransformPipeline
from repro.compiler.transforms.lowlevel import LoopDistributeTransform, UnrollTransform
from repro.compiler.transforms.pipeline import build_pipeline
from repro.compiler.transforms.vi_prune import VIPruneTransform
from repro.compiler.transforms.vs_block import VSBlockTransform, vs_block_participates
from repro.sparse.csc import CSCMatrix
from repro.sparse.generators import arrow_spd, block_tridiagonal_spd, sparse_rhs, unsymmetric_diag_dominant
from repro.symbolic.inspector import (
    CholeskyInspector,
    IC0Inspector,
    ILU0Inspector,
    LUInspector,
    TriangularSolveInspector,
)
from repro.symbolic.supernodes import supernodes_from_boundaries


def _tri_context(L, options=None, rhs_nnz=3):
    b = sparse_rhs(L.n, nnz=rhs_nnz, seed=4)
    inspection = TriangularSolveInspector().inspect(L, rhs_pattern=np.nonzero(b)[0])
    return CompilationContext(
        method="triangular-solve",
        matrix=L,
        inspection=inspection,
        options=options or SympilerOptions(),
        rhs_pattern=inspection.rhs_pattern,
    )


def _chol_context(A, options=None):
    inspection = CholeskyInspector().inspect(A)
    return CompilationContext(
        method="cholesky",
        matrix=A,
        inspection=inspection,
        options=options or SympilerOptions(),
    )


def _segments(kernel):
    """``(blocks, runs)`` of a transformed solve: the ``w > 0`` seg rows, and each run's columns."""
    sets = domain_loop(kernel).contract[1]
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


def _check_simplicial(A, factor_kind="ldlt"):
    inspection = CholeskyInspector().inspect(A)
    dims, sets = tables.simplicial_cholesky(A, inspection, factor_kind)
    assert dims == {"nnz_l": inspection.factor_nnz}
    assert sets["prune_ptr"][-1] == sum(r.size for r in inspection.row_patterns) == sets["update_pos"].size
    cursor = 0
    for j in range(A.n):
        assert sets["prune_ptr"][j] == cursor
        for k in inspection.row_patterns[j]:
            assert inspection.l_indices[sets["update_pos"][cursor]] == j
            assert sets["update_end"][cursor] == inspection.l_indptr[int(k) + 1]
            assert sets["update_col"][cursor] == k
            cursor += 1


def test_simplicial_descriptors_point_at_ljk(spd_matrices):
    _check_simplicial(spd_matrices["laplacian_2d"])
    A = spd_matrices["laplacian_2d"]
    assert "update_col" not in tables.simplicial_cholesky(A, CholeskyInspector().inspect(A), "llt")[1]


def _check_supernodal(A):
    inspection = CholeskyInspector().inspect(A)
    dims, sets = tables.supernodal_cholesky(A, inspection, "ldlt")
    partition = inspection.supernodes
    assert sets["sup_start"].size == partition.n_supernodes == dims["n_super"]
    assert dims["sn_max_width"] == partition.max_size()
    for s, c0, c1 in partition.iter_supernodes():
        assert (sets["sup_start"][s], sets["sup_end"][s]) == (c0, c1)
        descendants = set()
        for c in range(c0, c1):
            descendants |= {int(k) for k in inspection.row_patterns[c] if int(k) < c0}
        lo, hi = sets["desc_ptr"][s], sets["desc_ptr"][s + 1]
        assert sets["desc_col"][lo:hi].tolist() == sorted(descendants)
        for t in range(lo, hi):
            pos, mid, end = sets["desc_pos"][t], sets["desc_mult_end"][t], sets["desc_end"][t]
            assert pos < mid <= end == inspection.l_indptr[sets["desc_col"][t] + 1]
            # The multipliers are exactly the descendant's rows inside the supernode.
            inside = (inspection.l_indices[pos:mid] >= c0) & (inspection.l_indices[pos:mid] < c1)
            assert inside.all() and (pos == inspection.l_indptr[sets["desc_col"][t]] or inspection.l_indices[pos - 1] < c0)
            assert mid == end or inspection.l_indices[mid] >= c1


def test_supernodal_descriptors_cover_all_updates(spd_matrices):
    _check_supernodal(spd_matrices["block"])


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
        for k in inspection.row_patterns[j]:
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


def _check_ilu0(A):
    inspection = ILU0Inspector().inspect(A)
    Lp, Li, Up, Ui = inspection.l_indptr, inspection.l_indices, inspection.u_indptr, inspection.u_indices
    dims, sets = tables.incomplete_ilu0(A, inspection)
    assert dims == {"nnz_l": Li.size, "nnz_u": Ui.size, "n_below": Li.size - A.n}
    np.testing.assert_array_equal(A.indices[sets["a_upper_pos"]], Ui)
    np.testing.assert_array_equal(A.indices[sets["a_lower_pos"]], Li[sets["l_gather_dst"]])
    assert np.intersect1d(sets["l_gather_dst"], Lp[:-1]).size == 0
    t = 0
    for j in range(A.n):
        assert sets["prune_ptr"][j] == t
        for k in Ui[Up[j] : Up[j + 1] - 1]:
            assert Ui[sets["mult_pos"][t]] == k and Up[j] <= sets["mult_pos"][t] < Up[j + 1] - 1
            below_k = Li[Lp[k] + 1 : Lp[k + 1]]
            for stream, idx, lo, hi in (("u", Ui, Up[j], Up[j + 1]), ("l", Li, Lp[j] + 1, Lp[j + 1])):
                ptr = sets[f"{stream}_scat_ptr"]
                src, dst = sets[f"{stream}_scat_src"][ptr[t] : ptr[t + 1]], sets[f"{stream}_scat_dst"][ptr[t] : ptr[t + 1]]
                assert np.all((Lp[k] < src) & (src < Lp[k + 1])) and np.all((lo <= dst) & (dst < hi))
                np.testing.assert_array_equal(Li[src], idx[dst])
                np.testing.assert_array_equal(Li[src], np.intersect1d(below_k, idx[lo:hi]))
            t += 1
    assert t == sets["mult_pos"].size


def test_ilu0_scatter_splits_at_the_diagonal():
    _check_ilu0(unsymmetric_diag_dominant(40, seed=5))


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
        assert w >= min_width and start == cs and w == partition.width(partition.supernode_of(a))
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
    _check_ilu0(A)
    inspection = CholeskyInspector().inspect(A)
    L = inspection.l_pattern_matrix()
    partition = TriangularSolveInspector().inspect(L).supernodes
    for active in (np.arange(A.n), np.array([A.n - 1]), np.zeros(0, dtype=np.int64)):
        _check_segments(L, partition, active, 2)
    if name in ("n=1", "diagonal"):
        _, sets = tables.supernodal_cholesky(A, inspection, "llt")
        assert sets["desc_ptr"].tolist() == [0] * (A.n + 1) and sets["desc_pos"].size == 0
        assert tables.incomplete_ic0(A, IC0Inspector().inspect(A))[1]["l_scat_src"].size == 0


# --------------------------------------------------------------------------- #
# VI-Prune
# --------------------------------------------------------------------------- #
def test_vi_prune_triangular_replaces_column_loop(lower_factors):
    L = lower_factors["fem"]
    context = _tri_context(L)
    kernel = VIPruneTransform().apply(lower_triangular_solve(), context)
    node = domain_loop(kernel)
    assert node.role == "trisolve-segments"
    blocks, runs = _segments(kernel)
    assert not blocks.size and len(runs) == 1
    # The reach-set in the inspector's topological order, not sorted.
    np.testing.assert_array_equal(runs[0], context.inspection.reach)
    assert context.applied == ["vi-prune"]
    assert kernel.meta["vi_prune"] is True


def test_vi_prune_cholesky_produces_simplicial_loop(spd_matrices):
    A = spd_matrices["laplacian_2d"]
    context = _chol_context(A)
    kernel = VIPruneTransform().apply(lower_cholesky(), context)
    node = domain_loop(kernel)
    assert node.role == "simplicial-cholesky" and node.factor_kind == "llt"
    dims, sets = node.contract
    assert dims == {"nnz_l": context.inspection.factor_nnz}
    assert list(sets) == ["l_indptr", "l_indices", "a_diag_pos", "a_col_end", "prune_ptr", "update_pos", "update_end"]


def test_vi_prune_is_idempotent_on_cholesky(spd_matrices):
    A = spd_matrices["fem"]
    context = _chol_context(A)
    kernel = VIPruneTransform().apply(lower_cholesky(), context)
    node = domain_loop(kernel)
    kernel = VIPruneTransform().apply(kernel, context)
    assert domain_loop(kernel) is node and node.role == "simplicial-cholesky"


def test_vi_prune_rejects_unknown_method(lower_factors):
    context = _tri_context(lower_factors["fem"])
    context.method = "qr"
    with pytest.raises(ValueError):
        VIPruneTransform().apply(lower_triangular_solve(), context)


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
    from repro.kernels.cholesky import cholesky_supernodal

    A = block_tridiagonal_spd(n_blocks, block_size, seed=seed, dense_coupling=True)
    return cholesky_supernodal(A, CholeskyInspector().inspect(A))


def test_vs_block_triangular_produces_blocks():
    L = _blocked_factor(6, 6, seed=1)
    context = _tri_context(L)
    kernel = VSBlockTransform().apply(lower_triangular_solve(), context)
    blocks, _ = _segments(kernel)
    assert blocks.size, "expected at least one supernode block"
    assert context.decisions["vs-block"]["participates"]
    assert kernel.meta["vs_block"] is True and context.applied == ["vs-block"]


def test_vs_block_skips_when_supernodes_are_small(lower_factors):
    # The 2-D grid factor under this ordering has mostly width-1 supernodes.
    L = lower_factors["laplacian_2d"]
    options = SympilerOptions(vs_block_min_avg_width=10.0)
    context = _tri_context(L, options=options)
    kernel = VSBlockTransform().apply(lower_triangular_solve(), context)
    assert domain_loop(kernel) is None
    assert not context.decisions["vs-block"]["participates"]
    assert context.applied == []


def test_vs_block_cholesky_produces_supernodal_loop(spd_matrices):
    A = spd_matrices["block"]
    context = _chol_context(A)
    kernel = VSBlockTransform().apply(lower_cholesky(), context)
    node = domain_loop(kernel)
    assert node.role == "supernodal-cholesky" and node.factor_kind == "llt"
    assert node.contract[0]["n_super"] == context.inspection.supernodes.n_supernodes
    # Low-level refinements are off until the low-level passes run.
    assert not node.distribute_single_columns
    # VI-Prune leaves the supernodal loop alone: its descendant descriptors are the prune-sets.
    kernel = VIPruneTransform().apply(kernel, context)
    assert domain_loop(kernel) is node and context.applied == ["vs-block", "vi-prune"]
    assert kernel.meta["vi_prune"] is True


def test_vi_prune_after_vs_block_drops_unreached_blocks(lower_factors):
    L = lower_factors["block"]
    context = _tri_context(L, rhs_nnz=1)
    kernel = VSBlockTransform().apply(lower_triangular_solve(), context)
    blocks_before, _ = _segments(kernel)
    kernel = VIPruneTransform().apply(kernel, context)
    blocks_after, runs = _segments(kernel)
    reach = set(context.inspection.reach_sorted.tolist())
    assert 0 < len(reach) < L.n
    for w, c0 in blocks_after[:, :2]:
        assert any(c in reach for c in range(c0, c0 + w))
    assert len(blocks_after) <= len(blocks_before)
    assert all(set(run.tolist()) <= reach for run in runs)
    covered = {c for w, c0 in blocks_after[:, :2] for c in range(c0, c0 + w)} | {c for run in runs for c in run.tolist()}
    assert reach <= covered


# --------------------------------------------------------------------------- #
# Low-level passes
# --------------------------------------------------------------------------- #
def test_unroll_records_the_small_blocks():
    L = _blocked_factor(5, 3, seed=2)
    options = SympilerOptions(unroll_max_width=4)
    context = _tri_context(L, options=options)
    kernel = VSBlockTransform().apply(lower_triangular_solve(), context)
    kernel = UnrollTransform().apply(kernel, context)
    blocks, _ = _segments(kernel)
    # The pass records its decision; the C emitter derives the unrolled
    # widths from the same option, so nothing is marked on the node.
    small = int((blocks[:, 0] <= 4).sum())
    assert small and context.decisions["unroll"] == {"unrolled_statements": small}
    assert kernel.meta["unrolled_statements"] == small


def test_distribute_refines_supernodal_loop(spd_matrices):
    A = spd_matrices["block"]
    context = _chol_context(A)
    kernel = VSBlockTransform().apply(lower_cholesky(), context)
    kernel = LoopDistributeTransform().apply(kernel, context)
    assert domain_loop(kernel).distribute_single_columns
    assert kernel.meta["loop_distribution"] is True and context.applied == ["vs-block", "distribute"]


def test_lowlevel_passes_are_noops_without_hints(spd_matrices):
    A = spd_matrices["fem"]
    context = _chol_context(A)
    kernel = lower_cholesky()
    for pass_ in (UnrollTransform(), LoopDistributeTransform()):
        kernel = pass_.apply(kernel, context)
    assert context.applied == []


# --------------------------------------------------------------------------- #
# Pipeline
# --------------------------------------------------------------------------- #
def test_build_pipeline_reflects_options():
    full = build_pipeline(SympilerOptions())
    assert full.pass_names()[:2] == ["vs-block", "vi-prune"]
    assert full.pass_names()[2:] == ["unroll", "distribute"]
    no_lowlevel = build_pipeline(SympilerOptions(enable_low_level=False))
    assert no_lowlevel.pass_names() == ["vs-block", "vi-prune"]
    assert build_pipeline(SympilerOptions(), transforms=("vi-prune",)).pass_names()[:1] == ["vi-prune"]
    assert len(build_pipeline(SympilerOptions.baseline())) == 0


def test_pipeline_run_records_applied_transformations(lower_factors):
    L = lower_factors["block"]
    options = SympilerOptions()
    context = _tri_context(L, options=options)
    pipeline = build_pipeline(options)
    assert isinstance(pipeline, TransformPipeline)
    pipeline.run(lower_triangular_solve(), context)
    assert "vi-prune" in context.applied
