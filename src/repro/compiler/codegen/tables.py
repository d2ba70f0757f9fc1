"""The table contract: what a kernel knows about the pattern, and under which name.

Everything that depends on the sparsity pattern alone reaches a numeric kernel
as *data*: one block of contiguous ``int64`` tables.  This module is the only
place that computes an inspection set's run-time table, gives it its name and
its position in that block, and gives a pattern-dependent size its name.  One
function per domain loop takes the pattern and its inspection result and
returns ``(dims, tables)`` — two ordered mappings, sizes and inspection sets,
every table a NumPy array expression over the inspector's own arrays.  The
plan function that chooses the loop calls the function and puts the result on
its :class:`~repro.compiler.plan.DomainLoop`; both backends read
``loop.contract``:

* :class:`~repro.compiler.codegen.c_backend.CBackend` registers it (the order
  here is the order of ``repro_T`` and of ``_C_dims``) and its emitters print
  the names, ``_C_<name>`` for a table and the bare name for a size;
* :class:`~repro.compiler.codegen.python_backend.PythonBackend` hands
  :func:`block` of it to a fixed NumPy reference kernel, which reads
  ``T["_C_<name>"]`` and unpacks ``T["_C_dims"]`` (``n`` first, then the sizes
  in the order given here).

So ``artifact.constants`` is the same mapping on both backends, key for key.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.sparse.csc import CSCMatrix, group_pointers
from repro.symbolic.inspector import (
    CholeskyInspectionResult,
    IC0InspectionResult,
    LUInspectionResult,
    above_diagonal,
)
from repro.symbolic.supernodes import SupernodePartition

__all__ = [
    "Contract",
    "entry",
    "block",
    "simplicial_cholesky",
    "simplicial_lu",
    "supernodal_cholesky",
    "incomplete_ic0",
    "trisolve_segments",
]

#: ``(dims, tables)``: pattern-dependent sizes and inspection sets, by name, in block order.
Contract = Tuple[Dict[str, int], Dict[str, np.ndarray]]


def entry(name: str, value) -> Tuple[str, np.ndarray]:
    """The block's key and buffer for the inspection set ``name``."""
    return f"_C_{name}", np.ascontiguousarray(value, dtype=np.int64)


def block(n: int, contract: Contract) -> Dict[str, np.ndarray]:
    """The table block of a kernel: the sizes (``n`` first), then the sets, in the contract's order."""
    dims, tables = contract
    return dict(entry(name, value) for name, value in [("dims", [n, *dims.values()]), *tables.items()])


def _column_of(indptr: np.ndarray) -> np.ndarray:
    """Column of every stored entry of a compressed-column pattern."""
    return np.repeat(np.arange(indptr.size - 1, dtype=np.int64), np.diff(indptr))


def _ranges(starts: np.ndarray, ends: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(positions, owner)``: the ranges ``starts[t] .. ends[t]`` end to end, and the ``t`` of each position."""
    lengths = ends - starts
    owner = np.repeat(np.arange(starts.size, dtype=np.int64), lengths)
    first = np.cumsum(lengths) - lengths
    return np.arange(owner.size, dtype=np.int64) + (starts - first)[owner], owner


def _a_lower_positions(A: CSCMatrix) -> Tuple[np.ndarray, np.ndarray]:
    """``(a_diag_pos, a_col_end)``: column ``j``'s at/below-diagonal part is ``Ai[a_diag_pos[j]:a_col_end[j]]``."""
    cols = A.col_indices()
    above = np.bincount(cols[A.indices < cols], minlength=A.n_cols)
    return A.indptr[:-1] + above, A.indptr[1:]


def _row_updates(l_indptr: np.ndarray, l_indices: np.ndarray) -> np.ndarray:
    """Position of ``L[j, k]`` for every update ``(j, k)``, ``j`` ascending and ``k`` ascending within ``j``.

    That is the order of the rows of ``L`` (``row_ptr`` / ``row_idx`` of the
    inspection): the strictly-lower entries, stable-sorted by row.
    """
    strict = np.delete(np.arange(l_indices.size, dtype=np.int64), l_indptr[:-1])
    return strict[np.argsort(l_indices[strict], kind="stable")]


def simplicial_cholesky(A: CSCMatrix, inspection: CholeskyInspectionResult, factor_kind: str) -> Contract:
    """The VI-Pruned left-looking LLᵀ / LDLᵀ column loop.

    For column ``j``, the slice ``prune_ptr[j]:prune_ptr[j + 1]`` of
    ``update_pos`` / ``update_end`` gives, for each prune-set column ``k``
    (the row pattern of ``L``), the position of ``L[j, k]`` inside column
    ``k`` and the end of column ``k``; ``update_col`` is ``k`` itself (LDLᵀ
    scales by ``D[k]``).
    """
    l_indptr, l_indices = inspection.l_indptr, inspection.l_indices
    a_diag_pos, a_col_end = _a_lower_positions(A)
    tables = {
        "l_indptr": l_indptr,
        "l_indices": l_indices,
        "a_diag_pos": a_diag_pos,
        "a_col_end": a_col_end,
        "prune_ptr": inspection.row_ptr,
        "update_pos": _row_updates(l_indptr, l_indices),
        "update_end": l_indptr[inspection.row_idx + 1],
    }
    if factor_kind == "ldlt":
        tables["update_col"] = inspection.row_idx
    return {"nnz_l": int(l_indptr[-1])}, tables


def simplicial_lu(A: CSCMatrix, inspection: LUInspectionResult) -> Contract:
    """The VI-Pruned left-looking LU column loop (no pivoting).

    The prune-set of column ``j`` is its above-diagonal ``U`` pattern: every
    ``k`` with ``U[k, j] != 0`` subtracts ``L(:, k) * U[k, j]`` below row
    ``k``, so ``update_pos`` is the first *off-diagonal* entry of ``L(:, k)``
    and the kernel reads the multiplier from its work vector at
    ``update_col``.  The ``a_*`` tables cover the full column of ``A``.
    """
    l_indptr = inspection.l_indptr
    prune_ptr, update_col = above_diagonal(inspection.u_indptr, inspection.u_indices)
    dims = {"nnz_l": int(l_indptr[-1]), "nnz_u": int(inspection.u_indptr[-1])}
    return dims, {
        "l_indptr": l_indptr,
        "l_indices": inspection.l_indices,
        "u_indptr": inspection.u_indptr,
        "u_indices": inspection.u_indices,
        "a_col_start": A.indptr[:-1],
        "a_col_end": A.indptr[1:],
        "prune_ptr": prune_ptr,
        "update_pos": l_indptr[update_col] + 1,
        "update_end": l_indptr[update_col + 1],
        "update_col": update_col,
    }


def supernodal_cholesky(A: CSCMatrix, inspection: CholeskyInspectionResult) -> Contract:
    """The VS-Block'd LLᵀ / LDLᵀ supernode loop, with the size of its panel store.

    Supernode ``s`` is columns ``sup_start[s]:sup_end[s]`` (``w`` of them).
    They share the row list of the first one, ``c0``:
    ``l_indices[l_indptr[c0]:l_indptr[c0 + 1]]``, ``nr`` rows, the
    supernode's own columns first.  Its panel is ``nr x w``, column-major
    (leading dimension ``nr``), at ``sup_panel_ptr[s]`` of a store of
    ``sn_panel_total`` doubles that holds every panel for the whole
    factorization.

    The slice ``desc_ptr[s]:desc_ptr[s + 1]`` lists the descendant
    supernodes ``d = desc_sup[t]`` that update ``s``, ascending.  Rows
    ``desc_i0[t]:desc_i1[t]`` of ``d``'s row list are columns of ``s``, and
    rows ``desc_i0[t]:`` are the rows the update touches (every one of them
    is in ``s``'s row list).  Every column of ``d`` has these rows, so one
    row stands for all of ``d``'s columns.
    """
    l_indptr, l_indices = inspection.l_indptr, inspection.l_indices
    partition = inspection.supernodes
    sup_start, sup_end = partition.super_ptr[:-1], partition.super_ptr[1:]
    widths = sup_end - sup_start
    row_start = l_indptr[sup_start]
    rows = l_indptr[sup_start + 1] - row_start
    n_super = sup_start.size
    # One (supernode of the row, supernode) pair per row of a row list below its own columns.
    below, owner = _ranges(row_start + widths, row_start + rows)
    target = partition.col_to_super[l_indices[below]]
    pair, first, count = np.unique(target * n_super + owner, return_index=True, return_counts=True)
    desc_sup = pair % n_super
    desc_i0 = below[first] - row_start[desc_sup]
    a_diag_pos, a_col_end = _a_lower_positions(A)
    panel_size = rows * widths
    tables = {
        "l_indptr": l_indptr,
        "l_indices": l_indices,
        "a_diag_pos": a_diag_pos,
        "a_col_end": a_col_end,
        "sup_start": sup_start,
        "sup_end": sup_end,
        "sup_panel_ptr": np.cumsum(panel_size) - panel_size,
        "desc_ptr": group_pointers(pair // n_super, n_super),
        "desc_sup": desc_sup,
        "desc_i0": desc_i0,
        "desc_i1": desc_i0 + count,
    }
    dims = {
        "nnz_l": int(l_indptr[-1]),
        "n_super": int(n_super),
        "sn_panel_total": int(panel_size.sum()),
    }
    return dims, tables


def incomplete_ic0(A: CSCMatrix, inspection: IC0InspectionResult) -> Contract:
    """The no-fill IC(0) loop: in place on the ``tril(A)`` pattern.

    ``a_lower_pos`` gathers ``tril(A)`` into ``Lx``.  Update ``t`` of column
    ``j`` (source column ``k``, ``A[j, k] != 0``) has its multiplier
    ``L[j, k]`` at ``mult_pos[t]`` and subtracts, through
    ``l_scat_src`` / ``l_scat_dst[l_scat_ptr[t]:l_scat_ptr[t + 1]]``, the
    entries of column ``k`` from row ``j`` down whose row column ``j`` stores
    too.  ``l_indices`` are the rows of ``L``, which the module's solve entry
    reads.
    """
    l_indptr, l_indices, n = inspection.l_indptr, inspection.l_indices, inspection.n
    mult_pos = _row_updates(l_indptr, l_indices)
    # Update t reads column k from row j down and keeps the entries whose row
    # column j stores: a dropped update of IC(0) is an entry left out here.
    src, update = _ranges(mult_pos, l_indptr[inspection.row_idx + 1])
    wanted = l_indices[mult_pos][update] * n + l_indices[src]
    stored = _column_of(l_indptr) * n + l_indices
    dst = np.minimum(np.searchsorted(stored, wanted), stored.size - 1)
    hit = stored[dst] == wanted
    return {"nnz_l": int(l_indptr[-1])}, {
        "l_indptr": l_indptr,
        "l_indices": l_indices,
        "a_lower_pos": np.flatnonzero(A.indices >= A.col_indices()),
        "prune_ptr": inspection.row_ptr,
        "mult_pos": mult_pos,
        "l_scat_ptr": group_pointers(update[hit], mult_pos.size),
        "l_scat_src": src[hit],
        "l_scat_dst": dst[hit],
    }


def trisolve_segments(
    L: CSCMatrix, partition: Optional[SupernodePartition], active_columns: np.ndarray, min_width: int
) -> Contract:
    """The segment list a transformed triangular solve walks.

    Segment ``s`` of ``n_seg`` is the five entries ``seg[5 s ..]`` =
    ``{w, a, b, off_lo, cs}``.  ``w == 0``: a pruned column loop over
    ``run_cols[a .. b)``.  ``w > 0``: a supernode of ``w`` columns starting at
    column ``a``, with ``b`` rows below its diagonal block whose indices are
    ``Li[off_lo ..]`` and column ``k``'s diagonal entry at
    ``Lx[blk_cs[cs + k]]``.

    Without a ``partition`` (VS-Block did not take the solve) the list is one
    pruned loop over ``active_columns`` in the order given — the reach-set's
    topological order.  With one, supernodes at least ``min_width`` wide that
    hold an active column are blocks, in ascending order, and the active
    columns of the narrower ones between two wide supernodes are one run.
    """
    active_columns = np.asarray(active_columns, dtype=np.int64)
    if partition is None:
        seg = np.array([0, 0, active_columns.size, 0, 0], dtype=np.int64)
        return {"n_seg": 1}, {"seg": seg, "run_cols": active_columns, "blk_cs": np.zeros(0, dtype=np.int64)}
    Lp, sizes, supernode = L.indptr, partition.sizes(), partition.col_to_super
    active = np.zeros(L.n_cols, dtype=bool)
    active[active_columns] = True
    wide = sizes >= min_width
    n_wide = np.cumsum(wide)  # wide supernodes up to and including each supernode
    # A run is the active narrow columns with the same number of wide supernodes before them.
    run_cols = np.flatnonzero(active & ~wide[supernode])
    slot, run_len = np.unique(n_wide[supernode[run_cols]], return_counts=True)
    run_end = np.cumsum(run_len)
    runs = np.zeros((slot.size, 5), dtype=np.int64)
    runs[:, 1], runs[:, 2] = run_end - run_len, run_end
    # A block is a wide supernode with an active column; it follows the run of its slot.
    blocked = np.flatnonzero(wide & (np.bincount(supernode[active_columns], minlength=wide.size) > 0))
    c0, w = partition.super_ptr[blocked], sizes[blocked]
    blocks = np.stack([w, c0, Lp[c0 + 1] - Lp[c0] - w, Lp[c0] + w, np.cumsum(w) - w], axis=1)
    order = np.argsort(np.concatenate([2 * slot, 2 * n_wide[blocked] - 1]), kind="stable")
    seg = np.concatenate([runs, blocks])[order].ravel()
    return {"n_seg": int(order.size)}, {"seg": seg, "run_cols": run_cols, "blk_cs": Lp[_ranges(c0, c0 + w)[0]]}

