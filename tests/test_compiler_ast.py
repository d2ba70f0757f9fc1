"""Tests for the domain-specific AST."""

import numpy as np
import pytest

from repro.compiler.ast import (
    ArrayRef,
    Assign,
    BinOp,
    Block,
    Call,
    Comment,
    ForRange,
    If,
    IntConst,
    DomainLoop,
    KernelFunction,
    Var,
    domain_loop,
    pretty,
    walk,
)
from repro.compiler.codegen import tables
from repro.sparse.csc import CSCMatrix
from repro.symbolic.supernodes import supernodes_from_boundaries


def _simple_kernel():
    body = Block(
        [
            Comment("hello"),
            Assign(Var("x"), Call("copy", (Var("b"),))),
            ForRange(
                "j",
                IntConst(0),
                Var("n"),
                Block([Assign(ArrayRef("x", Var("j")), IntConst(0))]),
                role="column-loop",
            ),
        ]
    )
    return KernelFunction("k", ["b"], body, method="triangular-solve")


def test_walk_visits_all_nodes():
    kernel = _simple_kernel()
    kinds = [type(n).__name__ for n in walk(kernel)]
    assert "KernelFunction" in kinds
    assert "ForRange" in kinds
    assert "ArrayRef" in kinds
    assert kinds.count("Assign") == 2


def test_assign_validates_operator():
    with pytest.raises(ValueError):
        Assign(Var("x"), Var("y"), op="**=")


def test_annotations_builder_style():
    stmt = Comment("c").annotate(unroll=True, width=3)
    assert stmt.annotations == {"unroll": True, "width": 3}


def test_block_append_and_len():
    b = Block()
    assert len(b) == 0
    b.append(Comment("a"))
    assert len(b) == 1


def test_pretty_generic_kernel_mentions_structure():
    text = pretty(_simple_kernel())
    assert "kernel k(b)" in text
    assert "column-loop" in text
    assert "for j in 0 .. n" in text


def test_pretty_expression_forms():
    expr = BinOp("*", ArrayRef("Lx", Var("p")), ArrayRef("x", Var("j")))
    assert pretty(expr) == "(Lx[p] * x[j])"
    assert pretty(Call("sqrt", (Var("d"),))) == "sqrt(d)"


def test_pretty_if_statement():
    stmt = If(BinOp("!=", ArrayRef("x", Var("j")), IntConst(0)), Block([Comment("inner")]))
    text = pretty(stmt)
    assert "if (x[j] != 0):" in text


def test_pretty_rejects_unknown_node():
    class Bogus:
        pass

    with pytest.raises(TypeError):
        pretty(Bogus())


def _lower_pattern():
    """A 5 x 5 lower-triangular pattern whose columns 1-3 are one supernode."""
    dense = np.eye(5)
    dense[1:, 0] = dense[2:, 1] = dense[3:, 2] = dense[4:, 3] = 1.0
    dense[[2, 3], 0] = 0.0  # column 0 is not in the supernode: rows {0, 1, 4}
    return CSCMatrix.from_dense(dense)


def test_pruned_loop_node_properties():
    """Without a partition the segment table is one run, in the order given."""
    node = DomainLoop("trisolve-segments", tables.trisolve_segments(_lower_pattern(), None, [3, 1, 2], 0))
    dims, sets = node.contract
    assert dims == {"n_seg": 1} and sets["seg"].tolist() == [0, 0, 3, 0, 0]
    assert sets["run_cols"].dtype == np.int64 and sets["run_cols"].tolist() == [3, 1, 2]
    assert pretty(node) == "trisolve-segments n_seg=1"


def test_supernode_block_node_properties():
    """A wide supernode is one row ``{w, c0, n_off, off_lo, cs}`` and its column starts."""
    L = _lower_pattern()
    partition = supernodes_from_boundaries([0, 1, 4], 5)
    node = DomainLoop("trisolve-segments", tables.trisolve_segments(L, partition, np.arange(5), 2))
    dims, sets = node.contract
    assert dims == {"n_seg": 3}
    run, blk, tail = sets["seg"].reshape(3, 5).tolist()
    assert run == [0, 0, 1, 0, 0] and tail == [0, 1, 2, 0, 0] and sets["run_cols"].tolist() == [0, 4]
    assert blk == [3, 1, 1, int(L.indptr[1]) + 3, 0]  # one row (4) below the 3 x 3 diagonal block
    assert L.indices[blk[3] : blk[3] + blk[2]].tolist() == [4]
    assert sets["blk_cs"].tolist() == L.indptr[1:4].tolist()
    assert "trisolve-segments n_seg=3" in pretty(node)


def _two_column_tables():
    return {
        "l_indptr": np.array([0, 2, 3]),
        "l_indices": np.array([0, 1, 1]),
        "a_diag_pos": np.array([0, 2]),
        "a_col_end": np.array([2, 3]),
    }


def test_simplicial_loop_node_properties():
    sets = {**_two_column_tables(), "prune_ptr": np.array([0, 0, 1]), "update_pos": np.array([1]), "update_end": np.array([2])}
    node = DomainLoop("simplicial-cholesky", ({"nnz_l": 3}, sets), factor_kind="llt")
    assert node.contract[1] is sets and node.factor_kind == "llt"
    assert pretty(node) == "simplicial-cholesky kind=llt nnz_l=3"


def test_supernodal_loop_node_properties():
    dims = {"nnz_l": 3, "n_super": 2, "sn_max_panel": 2, "sn_max_width": 1}
    node = DomainLoop("supernodal-cholesky", (dims, _two_column_tables()), factor_kind="ldlt", source="block-set")
    assert not node.distribute_single_columns and node.annotations == {"source": "block-set"}
    assert pretty(node) == (
        "supernodal-cholesky kind=ldlt nnz_l=3 n_super=2 sn_max_panel=2 sn_max_width=1 "
        "distribute=False  # @source='block-set'"
    )


def test_domain_loop_is_found_in_nested_blocks():
    kernel = _simple_kernel()
    assert domain_loop(kernel) is None
    node = DomainLoop("simplicial-lu", ({}, {}), factor_kind="lu")
    kernel.body.append(Block([Comment("VI-Prune"), node]))
    assert domain_loop(kernel) is node
    assert "simplicial-lu kind=lu" in pretty(kernel)
