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
    KernelFunction,
    PrunedColumnSolveLoop,
    SimplicialCholeskyLoop,
    SupernodalCholeskyLoop,
    SupernodeTriangularBlock,
    Var,
    pretty,
    walk,
)


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


def test_kernel_constants_registration():
    kernel = _simple_kernel()
    name = kernel.add_constant("prune_set", np.array([1, 2, 3]))
    assert name == "prune_set"
    assert "prune_set" in kernel.constants
    with pytest.raises(ValueError):
        kernel.add_constant("prune_set", np.array([4]))


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


def test_pruned_loop_node_properties():
    node = PrunedColumnSolveLoop(np.array([3, 1, 2]), "prune_set")
    assert node.columns.dtype == np.int64
    assert node.constant_name == "prune_set"
    assert "pruned-column-solve" in pretty(node)


def test_supernode_block_node_properties():
    node = SupernodeTriangularBlock(
        sn_id=2, c0=4, width=3, n_rows=7, col_starts=np.array([10, 15, 19]),
        rows_start=10, rows_end=17,
    )
    assert node.n_offdiag_rows == 4
    assert "supernode-trsolve sn=2" in pretty(node)


def test_simplicial_loop_node_properties():
    node = SimplicialCholeskyLoop(
        n=2,
        l_indptr=np.array([0, 2, 3]),
        l_indices=np.array([0, 1, 1]),
        prune_ptr=np.array([0, 0, 1]),
        update_pos=np.array([1]),
        update_end=np.array([2]),
        a_diag_pos=np.array([0, 2]),
        a_col_end=np.array([2, 3]),
    )
    assert node.factor_nnz == 3
    assert "simplicial-cholesky n=2" in pretty(node)


def test_supernodal_loop_node_properties():
    node = SupernodalCholeskyLoop(
        n=2,
        l_indptr=np.array([0, 2, 3]),
        l_indices=np.array([0, 1, 1]),
        a_diag_pos=np.array([0, 2]),
        a_col_end=np.array([2, 3]),
        sup_start=np.array([0, 1]),
        sup_end=np.array([1, 2]),
        desc_ptr=np.array([0, 0, 1]),
        desc_pos=np.array([1]),
        desc_end=np.array([2]),
        desc_mult_end=np.array([2]),
    )
    assert node.n_supernodes == 2
    assert node.factor_nnz == 3
    assert "supernodal-cholesky" in pretty(node)


def test_kernel_repr_lists_constants():
    kernel = _simple_kernel()
    kernel.add_constant("block_set", np.array([0, 2]))
    assert "block_set" in repr(kernel)
