"""The table contract: what a kernel knows about the pattern, and under which name.

Everything that depends on the sparsity pattern alone reaches a numeric kernel
as *data*: one block of contiguous ``int64`` tables.  This module is the only
place that gives an inspection set its name and its position in that block,
and a pattern-dependent size its name.  One function per domain loop of the
transformed AST returns ``(dims, tables)`` — two ordered mappings, sizes and
inspection sets — and both backends read the result:

* :class:`~repro.compiler.codegen.c_backend.CBackend` registers it (the order
  here is the order of ``repro_T`` and of ``_C_dims``) and its emitters print
  the names, ``_C_<name>`` for a table and the bare name for a size;
* :class:`~repro.compiler.codegen.python_backend.PythonBackend` hands
  :func:`block` of it to a fixed NumPy reference kernel, which reads
  ``T["_C_<name>"]`` and unpacks ``T["_C_dims"]`` (``n`` first, then the sizes
  in the order given here).

So ``artifact.constants`` is the same mapping on both backends, key for key.
The level schedule and the pull structure of the wavefront kernels are not
here: they are registered by the wavefront emitters, on top of this contract.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.compiler.ast import (
    Assign,
    Block,
    Call,
    Comment,
    ForRange,
    IncompleteFactorLoop,
    PrunedColumnSolveLoop,
    SimplicialCholeskyLoop,
    Stmt,
    SupernodalCholeskyLoop,
    SupernodeTriangularBlock,
    Var,
)

__all__ = [
    "Contract",
    "entry",
    "block",
    "simplicial_cholesky",
    "simplicial_lu",
    "supernodal_cholesky",
    "incomplete_ic0",
    "incomplete_ilu0",
    "trisolve_items",
    "trisolve_segments",
]

#: ``(dims, tables)``: pattern-dependent sizes and inspection sets, by name, in block order.
Contract = Tuple[Dict[str, int], Dict[str, np.ndarray]]


def entry(name: str, value) -> Tuple[str, np.ndarray]:
    """The block's key and buffer for the inspection set ``name``."""
    return f"_C_{name}", np.ascontiguousarray(value, dtype=np.int64)


def block(n: int, contract: Contract) -> Dict[str, np.ndarray]:
    """The table block of a serial kernel: the sizes (``n`` first), then the sets."""
    dims, tables = contract
    return dict(entry(name, value) for name, value in [("dims", [n, *dims.values()]), *tables.items()])


def simplicial_cholesky(stmt: SimplicialCholeskyLoop) -> Contract:
    """The VI-Pruned left-looking LLᵀ / LDLᵀ column loop."""
    tables = {
        "l_indptr": stmt.l_indptr,
        "l_indices": stmt.l_indices,
        "a_diag_pos": stmt.a_diag_pos,
        "a_col_end": stmt.a_col_end,
        "prune_ptr": stmt.prune_ptr,
        "update_pos": stmt.update_pos,
        "update_end": stmt.update_end,
    }
    if stmt.factor_kind == "ldlt":
        tables["update_col"] = stmt.update_col
    return {"nnz_l": int(stmt.l_indptr[-1])}, tables


def simplicial_lu(stmt: SimplicialCholeskyLoop) -> Contract:
    """The VI-Pruned left-looking LU column loop (no pivoting)."""
    dims = {"nnz_l": int(stmt.l_indptr[-1]), "nnz_u": int(stmt.u_indptr[-1])}
    return dims, {
        "l_indptr": stmt.l_indptr,
        "l_indices": stmt.l_indices,
        "u_indptr": stmt.u_indptr,
        "u_indices": stmt.u_indices,
        "a_col_start": stmt.a_diag_pos,
        "a_col_end": stmt.a_col_end,
        "prune_ptr": stmt.prune_ptr,
        "update_pos": stmt.update_pos,
        "update_end": stmt.update_end,
        "update_col": stmt.update_col,
    }


def supernodal_cholesky(stmt: SupernodalCholeskyLoop) -> Contract:
    """The VS-Block'd LLᵀ / LDLᵀ supernode loop, with its work-buffer sizes."""
    tables = {
        "l_indptr": stmt.l_indptr,
        "l_indices": stmt.l_indices,
        "a_diag_pos": stmt.a_diag_pos,
        "a_col_end": stmt.a_col_end,
        "sup_start": stmt.sup_start,
        "sup_end": stmt.sup_end,
        "desc_ptr": stmt.desc_ptr,
        "desc_pos": stmt.desc_pos,
        "desc_mult_end": stmt.desc_mult_end,
        "desc_end": stmt.desc_end,
    }
    if stmt.factor_kind == "ldlt":
        tables["desc_col"] = stmt.desc_col
    widths = stmt.sup_end - stmt.sup_start
    rows = stmt.l_indptr[stmt.sup_start + 1] - stmt.l_indptr[stmt.sup_start]
    dims = {
        "nnz_l": int(stmt.l_indptr[-1]),
        "n_super": stmt.n_supernodes,
        # The panel and multiplier buffers of the largest supernode.
        "sn_max_panel": int((rows * widths).max(initial=0)),
        "sn_max_width": int(widths.max(initial=0)),
    }
    return dims, tables


def incomplete_ic0(stmt: IncompleteFactorLoop) -> Contract:
    """The no-fill IC(0) loop: in place on the ``tril(A)`` pattern."""
    return {"nnz_l": int(stmt.l_indptr[-1])}, {
        "l_indptr": stmt.l_indptr,
        "a_lower_pos": stmt.a_lower_pos,
        "prune_ptr": stmt.prune_ptr,
        "mult_pos": stmt.mult_pos,
        "l_scat_ptr": stmt.l_scat_ptr,
        "l_scat_src": stmt.l_scat_src,
        "l_scat_dst": stmt.l_scat_dst,
    }


def incomplete_ilu0(stmt: IncompleteFactorLoop) -> Contract:
    """The no-fill ILU(0) loop: in place on the ``A`` pattern."""
    dims = {
        "nnz_l": int(stmt.l_indptr[-1]),
        "nnz_u": int(stmt.u_indptr[-1]),
        "n_below": int(stmt.a_lower_pos.size),
    }
    return dims, {
        "l_indptr": stmt.l_indptr,
        "u_indptr": stmt.u_indptr,
        "a_lower_pos": stmt.a_lower_pos,
        "a_upper_pos": stmt.a_upper_pos,
        "l_gather_dst": stmt.l_gather_dst,
        "prune_ptr": stmt.prune_ptr,
        "mult_pos": stmt.mult_pos,
        "u_scat_ptr": stmt.u_scat_ptr,
        "u_scat_src": stmt.u_scat_src,
        "u_scat_dst": stmt.u_scat_dst,
        "l_scat_ptr": stmt.l_scat_ptr,
        "l_scat_src": stmt.l_scat_src,
        "l_scat_dst": stmt.l_scat_dst,
    }


def trisolve_items(body: Block) -> Optional[List[Stmt]]:
    """The lowered triangular solve in execution order.

    The flat list of column runs and supernode blocks the inspector-guided
    passes left, or ``None`` when the solve is untransformed: the loop over
    every column.  IR comments are dropped (they quote pattern statistics,
    which must not reach a source).
    """
    segments: List[Stmt] = []
    column_loops: List[ForRange] = []

    def walk_block(block: Block) -> None:
        for stmt in block.statements:
            if isinstance(stmt, Comment):
                continue
            if isinstance(stmt, Block):
                walk_block(stmt)
            elif isinstance(stmt, Assign):
                # The only generic assignment in the lowered solve is the
                # initial copy of b into x, which every kernel does itself.
                if not (isinstance(stmt.target, Var) and stmt.target.name == "x" and isinstance(stmt.value, Call)):
                    raise ValueError("unexpected generic assignment in the lowered triangular solve")
            elif isinstance(stmt, ForRange):
                if stmt.annotations.get("role") != "column-loop":
                    raise ValueError("unexpected generic loop in the lowered triangular solve")
                column_loops.append(stmt)
            elif isinstance(stmt, (PrunedColumnSolveLoop, SupernodeTriangularBlock)):
                segments.append(stmt)
            else:
                raise ValueError(f"no kernel reads a {type(stmt).__name__} in a triangular solve")

    walk_block(body)
    if not column_loops:
        return segments
    if segments or len(column_loops) > 1:
        raise ValueError("the untransformed column loop is not alone in the triangular solve")
    return None


def trisolve_segments(segments: Optional[List[Stmt]]) -> Contract:
    """The segment list a transformed triangular solve walks (no table for an untransformed one).

    Segment ``s`` of ``n_seg`` is the five entries ``seg[5 s ..]`` =
    ``{w, a, b, off_lo, cs}``.  ``w == 0``: a pruned column loop over
    ``run_cols[a .. b)``.  ``w > 0``: a supernode of ``w`` columns starting at
    column ``a``, with ``b`` rows below its diagonal block whose indices are
    ``Li[off_lo ..]`` and column ``k``'s diagonal entry at
    ``Lx[blk_cs[cs + k]]``.
    """
    if segments is None:
        return {}, {}
    rows: List[Tuple[int, ...]] = []
    run_cols: List[np.ndarray] = [np.empty(0, dtype=np.int64)]
    blk_cs: List[np.ndarray] = [np.empty(0, dtype=np.int64)]
    n_run = n_cs = 0
    for stmt in segments:
        if isinstance(stmt, PrunedColumnSolveLoop):
            rows.append((0, n_run, n_run + stmt.columns.size, 0, 0))
            run_cols.append(stmt.columns)
            n_run += stmt.columns.size
        else:
            rows.append((stmt.width, stmt.c0, stmt.n_offdiag_rows, stmt.rows_start + stmt.width, n_cs))
            blk_cs.append(stmt.col_starts)
            n_cs += stmt.width
    return {"n_seg": len(rows)}, {
        "seg": np.asarray(rows, dtype=np.int64).ravel(),
        "run_cols": np.concatenate(run_cols),
        "blk_cs": np.concatenate(blk_cs),
    }
