"""Tests for the inspector-guided and low-level transformations."""

import numpy as np
import pytest

from repro.compiler.ast import (
    PrunedColumnSolveLoop,
    SimplicialCholeskyLoop,
    SupernodalCholeskyLoop,
    SupernodeTriangularBlock,
    walk,
)
from repro.compiler.lowering import lower_cholesky, lower_triangular_solve
from repro.compiler.options import SympilerOptions
from repro.compiler.transforms.base import CompilationContext, TransformPipeline
from repro.compiler.transforms.descriptors import (
    a_lower_positions,
    simplicial_descriptors,
    supernodal_descriptors,
)
from repro.compiler.transforms.lowlevel import LoopDistributeTransform, UnrollTransform
from repro.compiler.transforms.pipeline import build_pipeline
from repro.compiler.transforms.vi_prune import VIPruneTransform
from repro.compiler.transforms.vs_block import VSBlockTransform, vs_block_participates
from repro.sparse.generators import block_tridiagonal_spd, sparse_rhs
from repro.symbolic.inspector import CholeskyInspector, TriangularSolveInspector


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


def _nodes(kernel, node_type):
    return [n for n in walk(kernel.body) if isinstance(n, node_type)]


# --------------------------------------------------------------------------- #
# Descriptors
# --------------------------------------------------------------------------- #
def test_a_lower_positions(spd_matrices):
    A = spd_matrices["fem"]
    diag_pos, col_end = a_lower_positions(A)
    for j in range(A.n):
        rows = A.indices[diag_pos[j] : col_end[j]]
        assert rows[0] == j
        assert np.all(rows >= j)


def test_simplicial_descriptors_point_at_ljk(spd_matrices):
    A = spd_matrices["laplacian_2d"]
    inspection = CholeskyInspector().inspect(A)
    desc = simplicial_descriptors(A, inspection)
    assert desc.prune_ptr[-1] == sum(r.size for r in inspection.row_patterns)
    cursor = 0
    for j in range(A.n):
        for k in inspection.row_patterns[j]:
            pos = desc.update_pos[cursor]
            assert inspection.l_indices[pos] == j
            assert desc.update_end[cursor] == inspection.l_indptr[int(k) + 1]
            cursor += 1


def test_supernodal_descriptors_cover_all_updates(spd_matrices):
    A = spd_matrices["block"]
    inspection = CholeskyInspector().inspect(A)
    desc = supernodal_descriptors(A, inspection)
    partition = inspection.supernodes
    assert desc.sup_start.size == partition.n_supernodes
    for s, c0, c1 in partition.iter_supernodes():
        descendants = set()
        for c in range(c0, c1):
            descendants |= {int(k) for k in inspection.row_patterns[c] if int(k) < c0}
        assert desc.desc_ptr[s + 1] - desc.desc_ptr[s] == len(descendants)
        for t in range(desc.desc_ptr[s], desc.desc_ptr[s + 1]):
            assert desc.desc_pos[t] <= desc.desc_mult_end[t] <= desc.desc_end[t]


# --------------------------------------------------------------------------- #
# VI-Prune
# --------------------------------------------------------------------------- #
def test_vi_prune_triangular_replaces_column_loop(lower_factors):
    L = lower_factors["fem"]
    context = _tri_context(L)
    kernel = VIPruneTransform().apply(lower_triangular_solve(), context)
    pruned = _nodes(kernel, PrunedColumnSolveLoop)
    assert len(pruned) == 1
    np.testing.assert_array_equal(pruned[0].columns, context.inspection.reach)
    assert "prune_set" in kernel.constants
    assert context.applied == ["vi-prune"]
    assert kernel.meta["vi_prune"] is True


def test_vi_prune_cholesky_produces_simplicial_loop(spd_matrices):
    A = spd_matrices["laplacian_2d"]
    context = _chol_context(A)
    kernel = VIPruneTransform().apply(lower_cholesky(), context)
    loops = _nodes(kernel, SimplicialCholeskyLoop)
    assert len(loops) == 1
    assert loops[0].factor_nnz == context.inspection.factor_nnz
    for cname in ("l_indptr", "l_indices", "prune_ptr", "update_pos", "update_end"):
        assert cname in kernel.constants


def test_vi_prune_is_idempotent_on_cholesky(spd_matrices):
    A = spd_matrices["fem"]
    context = _chol_context(A)
    kernel = VIPruneTransform().apply(lower_cholesky(), context)
    kernel = VIPruneTransform().apply(kernel, context)
    assert len(_nodes(kernel, SimplicialCholeskyLoop)) == 1


def test_vi_prune_rejects_unknown_method(lower_factors):
    context = _tri_context(lower_factors["fem"])
    context.method = "qr"
    with pytest.raises(ValueError):
        VIPruneTransform().apply(lower_triangular_solve(), context)


# --------------------------------------------------------------------------- #
# VS-Block
# --------------------------------------------------------------------------- #
def test_vs_block_participation_heuristic():
    from repro.symbolic.supernodes import supernodes_from_boundaries

    wide = supernodes_from_boundaries([0, 4, 8], 12)
    yes, details = vs_block_participates(wide, min_supernode_width=2, min_avg_width=1.2)
    assert yes and details["participates"]
    singles = supernodes_from_boundaries(list(range(12)), 12)
    no, details = vs_block_participates(singles, min_supernode_width=2, min_avg_width=1.2)
    assert not no and details["n_wide_supernodes"] == 0


def test_vs_block_triangular_produces_blocks():
    A = block_tridiagonal_spd(6, 6, seed=1, dense_coupling=True)
    inspection = CholeskyInspector().inspect(A)
    from repro.kernels.cholesky import cholesky_supernodal

    L = cholesky_supernodal(A, inspection)
    context = _tri_context(L)
    kernel = VSBlockTransform().apply(lower_triangular_solve(), context)
    blocks = _nodes(kernel, SupernodeTriangularBlock)
    assert blocks, "expected at least one supernode block"
    assert "block_set" in kernel.constants
    assert context.decisions["vs-block"]["participates"]


def test_vs_block_skips_when_supernodes_are_small(lower_factors):
    # The 2-D grid factor under this ordering has mostly width-1 supernodes.
    L = lower_factors["laplacian_2d"]
    options = SympilerOptions(vs_block_min_avg_width=10.0)
    context = _tri_context(L, options=options)
    kernel = VSBlockTransform().apply(lower_triangular_solve(), context)
    assert not _nodes(kernel, SupernodeTriangularBlock)
    assert not context.decisions["vs-block"]["participates"]
    assert context.applied == []


def test_vs_block_cholesky_produces_supernodal_loop(spd_matrices):
    A = spd_matrices["block"]
    context = _chol_context(A)
    kernel = VSBlockTransform().apply(lower_cholesky(), context)
    loops = _nodes(kernel, SupernodalCholeskyLoop)
    assert len(loops) == 1
    assert loops[0].n_supernodes == context.inspection.supernodes.n_supernodes
    # Low-level refinements are off until the low-level passes run.
    assert not loops[0].distribute_single_columns


def test_vs_block_after_vi_prune_restricts_to_reach(lower_factors):
    L = lower_factors["block"]
    context = _tri_context(L, rhs_nnz=1)
    kernel = VIPruneTransform().apply(lower_triangular_solve(), context)
    kernel = VSBlockTransform().apply(kernel, context)
    reach = set(context.inspection.reach_sorted.tolist())
    covered = set()
    for node in walk(kernel.body):
        if isinstance(node, SupernodeTriangularBlock):
            covered |= set(range(node.c0, node.c0 + node.width))
        elif isinstance(node, PrunedColumnSolveLoop):
            covered |= set(int(c) for c in node.columns)
    assert reach <= covered


def test_vi_prune_after_vs_block_drops_unreached_blocks(lower_factors):
    L = lower_factors["block"]
    context = _tri_context(L, rhs_nnz=1)
    kernel = VSBlockTransform().apply(lower_triangular_solve(), context)
    n_blocks_before = len(_nodes(kernel, SupernodeTriangularBlock))
    kernel = VIPruneTransform().apply(kernel, context)
    blocks_after = _nodes(kernel, SupernodeTriangularBlock)
    reach = set(context.inspection.reach_sorted.tolist())
    for block in blocks_after:
        assert any(c in reach for c in range(block.c0, block.c0 + block.width))
    assert len(blocks_after) <= n_blocks_before


# --------------------------------------------------------------------------- #
# Low-level passes
# --------------------------------------------------------------------------- #
def test_unroll_records_the_small_blocks():
    A = block_tridiagonal_spd(5, 3, seed=2, dense_coupling=True)
    inspection = CholeskyInspector().inspect(A)
    from repro.kernels.cholesky import cholesky_supernodal

    L = cholesky_supernodal(A, inspection)
    options = SympilerOptions(unroll_max_width=4)
    context = _tri_context(L, options=options)
    kernel = VSBlockTransform().apply(lower_triangular_solve(), context)
    kernel = UnrollTransform().apply(kernel, context)
    blocks = _nodes(kernel, SupernodeTriangularBlock)
    # The pass records its decision; the C emitter derives the unrolled
    # widths from the same option, so nothing is marked on the nodes.
    small = sum(b.width <= 4 for b in blocks)
    assert small and context.decisions["unroll"] == {"unrolled_statements": small}
    assert kernel.meta["unrolled_statements"] == small


def test_distribute_refines_supernodal_loop(spd_matrices):
    A = spd_matrices["block"]
    context = _chol_context(A)
    kernel = VSBlockTransform().apply(lower_cholesky(), context)
    kernel = LoopDistributeTransform().apply(kernel, context)
    loop = _nodes(kernel, SupernodalCholeskyLoop)[0]
    assert loop.distribute_single_columns


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
    reordered = build_pipeline(SympilerOptions(transformation_order=("vi-prune", "vs-block")))
    assert reordered.pass_names()[:2] == ["vi-prune", "vs-block"]
    assert len(build_pipeline(SympilerOptions.baseline())) == 0


def test_pipeline_run_records_applied_transformations(lower_factors):
    L = lower_factors["block"]
    options = SympilerOptions()
    context = _tri_context(L, options=options)
    pipeline = build_pipeline(options)
    assert isinstance(pipeline, TransformPipeline)
    pipeline.run(lower_triangular_solve(), context)
    assert "vi-prune" in context.applied
