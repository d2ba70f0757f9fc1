"""The python backend's kernels: six fixed NumPy functions over the table block.

Each takes ``T`` — :func:`repro.compiler.codegen.tables.block` of the contract
the C emitters bind; ``T["_C_dims"]`` is ``n``, then the contract's sizes in
its order — plus the numeric arrays, and performs the floating-point operations
of the generated C kernel in the C kernel's order (a NumPy slice stands for a
loop whose iterations touch distinct entries), so the two agree to the bit.  A
bad pivot raises :class:`Breakdown` with the global column; the backend's
binder makes it the ``ValueError`` of the method's ``CMethodSpec.failure``, as
the C binder does with the status it gets back.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Breakdown",
    "simplicial_cholesky",
    "simplicial_lu",
    "supernodal_cholesky",
    "ic0",
    "triangular_solve",
    "factor_solve",
]


class Breakdown(Exception):
    """A pivot failed its test at global column ``args[0]``."""


def simplicial_cholesky(T, Ap, Ai, Ax, ldlt=False):
    """Left-looking LLᵀ (``Lx``) or LDLᵀ (``(Lx, D)``), update loop pruned to the rows of L."""
    n, nnz_l = T["_C_dims"]
    Lp, Li, a0, a1 = T["_C_l_indptr"], T["_C_l_indices"], T["_C_a_diag_pos"], T["_C_a_col_end"]
    ptr, pos, end, col = T["_C_prune_ptr"], T["_C_update_pos"], T["_C_update_end"], T.get("_C_update_col")
    Lx, D, f = np.zeros(nnz_l), np.empty(n), np.zeros(n)
    for j in range(n):
        f[Ai[a0[j] : a1[j]]] = Ax[a0[j] : a1[j]]
        for t in range(ptr[j], ptr[j + 1]):
            ps, pe = pos[t], end[t]
            f[Li[ps:pe]] -= Lx[ps:pe] * (Lx[ps] * D[col[t]] if ldlt else Lx[ps])
        _finish_column(Lx, D, f, Li, Lp[j], Lp[j + 1], j, ldlt)
    return (Lx, D) if ldlt else Lx


def _finish_column(Lx, D, f, Li, lp0, lp1, j, ldlt):
    """Pivot test, diagonal and scaled sub-diagonal of column ``j``; clears the work vector."""
    d = f[j]
    if ldlt:
        if d == 0.0:
            raise Breakdown(j)
        D[j] = d
        Lx[lp0] = 1.0
    else:
        if not d > 0.0:
            raise Breakdown(j)
        d = np.sqrt(d)
        Lx[lp0] = d
    Lx[lp0 + 1 : lp1] = f[Li[lp0 + 1 : lp1]] / d
    f[Li[lp0:lp1]] = 0.0


def simplicial_lu(T, Ap, Ai, Ax):
    """Left-looking LU without pivoting, update loop pruned to the symbolic U pattern."""
    n, nnz_l, nnz_u = T["_C_dims"]
    Lp, Li, Up, Ui = T["_C_l_indptr"], T["_C_l_indices"], T["_C_u_indptr"], T["_C_u_indices"]
    a0, a1, ptr = T["_C_a_col_start"], T["_C_a_col_end"], T["_C_prune_ptr"]
    pos, end, col = T["_C_update_pos"], T["_C_update_end"], T["_C_update_col"]
    Lx, Ux, f = np.zeros(nnz_l), np.zeros(nnz_u), np.zeros(n)
    for j in range(n):
        f[Ai[a0[j] : a1[j]]] = Ax[a0[j] : a1[j]]
        for t in range(ptr[j], ptr[j + 1]):
            ps, pe = pos[t], end[t]
            f[Li[ps:pe]] -= Lx[ps:pe] * f[col[t]]
        u0, u1, lp0, lp1 = Up[j], Up[j + 1], Lp[j], Lp[j + 1]
        Ux[u0:u1] = f[Ui[u0:u1]]
        piv = f[j]
        if piv == 0.0:
            raise Breakdown(j)
        Lx[lp0] = 1.0
        Lx[lp0 + 1 : lp1] = f[Li[lp0 + 1 : lp1]] / piv
        f[Ui[u0:u1]] = 0.0
        f[Li[lp0:lp1]] = 0.0
    return Lx, Ux


def supernodal_cholesky(T, Ap, Ai, Ax, ldlt=False):
    """Left-looking supernodal LLᵀ / LDLᵀ: one column-major panel per supernode, one block update per descendant.

    Panels stay for the whole factorization (the C kernel's panel store).  A
    descendant ``d`` subtracts ``C = Σ_q Pd[i0:, q] ⊗ Pd[i0:i1, q]`` (LDLᵀ:
    scaled by ``D``), accumulated from zero with ``q`` ascending, through the
    target's row map.  The panel itself is then factored right-looking, one
    outer product per column: every entry sees the C kernel's left-looking
    subtractions in the same order.  (The C kernel runs both updates on
    4 x 8 register tiles; that changes which entries are computed together,
    not the operations on any one entry or their order.)  Entries above a
    panel's diagonal are written and never read.
    """
    n, nnz_l = T["_C_dims"][:2]
    Lp, Li, a0, a1 = T["_C_l_indptr"], T["_C_l_indices"], T["_C_a_diag_pos"], T["_C_a_col_end"]
    start, stop, ptr = T["_C_sup_start"], T["_C_sup_end"], T["_C_desc_ptr"]
    desc, first, last = T["_C_desc_sup"], T["_C_desc_i0"], T["_C_desc_i1"]
    Lx, D, rowmap, panels = np.zeros(nnz_l), np.empty(n), np.empty(n, dtype=np.int64), []
    for s, (c0, c1) in enumerate(zip(start, stop)):
        w = c1 - c0
        rows = Li[Lp[c0] : Lp[c0 + 1]]
        rowmap[rows] = np.arange(rows.size)
        P = np.zeros((rows.size, w), order="F")
        for c in range(c0, c1):
            P[rowmap[Ai[a0[c] : a1[c]]], c - c0] = Ax[a0[c] : a1[c]]
        for t in range(ptr[s], ptr[s + 1]):
            d, i0, i1 = desc[t], first[t], last[t]
            Pd, d0 = panels[d], start[d]
            drows = Li[Lp[d0] + i0 : Lp[d0 + 1]]
            C = np.zeros((drows.size, i1 - i0))
            for q in range(Pd.shape[1]):
                C += np.outer(Pd[i0:, q], Pd[i0:i1, q] * D[d0 + q] if ldlt else Pd[i0:i1, q])
            P[np.ix_(rowmap[drows], drows[: i1 - i0] - c0)] -= C
        for k in range(w):
            piv = P[k, k]
            if ldlt:
                if piv == 0.0:
                    raise Breakdown(c0 + k)
                D[c0 + k] = piv
                P[k, k] = 1.0
            else:
                if not piv > 0.0:
                    raise Breakdown(c0 + k)
                piv = np.sqrt(piv)
                P[k, k] = piv
            P[k + 1 :, k] /= piv
            below = P[k + 1 : w, k]
            P[k + 1 :, k + 1 :] -= np.outer(P[k + 1 :, k], below * D[c0 + k] if ldlt else below)
            Lx[Lp[c0 + k] : Lp[c0 + k + 1]] = P[k:, k]
        panels.append(P)
    return (Lx, D) if ldlt else Lx


def ic0(T, Ap, Ai, Ax):
    """IC(0): in-place no-fill elimination on the ``tril(A)`` pattern."""
    n, _ = T["_C_dims"]
    Lp, ptr, mult = T["_C_l_indptr"], T["_C_prune_ptr"], T["_C_mult_pos"]
    sp, src, dst = T["_C_l_scat_ptr"], T["_C_l_scat_src"], T["_C_l_scat_dst"]
    Lx = Ax[T["_C_a_lower_pos"]]
    for j in range(n):
        for t in range(ptr[j], ptr[j + 1]):
            Lx[dst[sp[t] : sp[t + 1]]] -= Lx[src[sp[t] : sp[t + 1]]] * Lx[mult[t]]
        lp0, lp1 = Lp[j], Lp[j + 1]
        d = Lx[lp0]
        if not d > 0.0:
            raise Breakdown(j)
        Lx[lp0] = np.sqrt(d)
        Lx[lp0 + 1 : lp1] /= Lx[lp0]
    return Lx


def triangular_solve(T, Lp, Li, Lx, b):
    """Forward substitution over every column, or over the segment table when the solve was transformed.

    A supernode segment is its columns in order: its first column's pattern is the supernode's,
    so the column solve below is the diagonal-block solve and the panel update of the C kernel.
    """
    x = np.array(b, dtype=np.float64)
    if "_C_seg" in T:
        runs = T["_C_run_cols"]
        segments = (runs[lo:hi] if w == 0 else range(lo, lo + w) for w, lo, hi, _, _ in T["_C_seg"].reshape(-1, 5))
    else:
        segments = [range(T["_C_dims"][0])]
    for columns in segments:
        for j in columns:
            p0, p1 = Lp[j], Lp[j + 1]
            xj = x[j] / Lx[p0]
            x[j] = xj
            x[Li[p0 + 1 : p1]] -= Lx[p0 + 1 : p1] * xj
    return x


def factor_solve(T, perm, Lx, *arrays, kind):
    """The solve entry of a direct factorization or IC(0): ``x`` solving ``A x = b`` on its factors, in place.

    ``kind`` is the domain loop's ``factor_kind``; ``"llt"`` and ``"ic0"``
    divide by the diagonal of ``L``, the others have a unit one.  ``arrays`` are ``D`` (``kind="ldlt"``) or ``Ux`` (``"lu"``) if the kernel
    has them, then ``b``, ``w`` and ``x``.  ``w = b[perm]``; the forward sweep
    on ``L``, push form, columns ascending; ``÷ D``; the backward sweep,
    columns descending: on ``U`` in push form with its pivot last, or on
    ``Lᵀ`` in dot form, a column's products taken from the last row up.  A
    supernodal factor's C sweep subtracts them one after another from
    ``w[c]``; a simplicial one subtracts every other one from ``w[c]`` and
    the rest from ``0.0``, and adds the two.  ``np.subtract.reduce`` is a
    sequential left fold, so one per chain is the C loop's order.  Last,
    ``x[perm] = w``.  The C entry runs the columns of a supernodal factor
    two at a time, which gives every entry of ``w`` the same operations in
    the same order.
    """
    *factor, b, w, x = arrays
    Lp, Li = T["_C_l_indptr"], T["_C_l_indices"]
    unit = kind not in ("llt", "ic0")
    w[...] = b[perm]
    for c in range(w.size):
        p0, p1 = Lp[c], Lp[c + 1]
        if not unit:
            w[c] /= Lx[p0]
        w[Li[p0 + 1 : p1]] -= Lx[p0 + 1 : p1] * w[c]
    if kind == "ldlt":
        w /= factor[0]
    if kind == "lu":
        Up, Ui, Ux = T["_C_u_indptr"], T["_C_u_indices"], factor[0]
        for c in range(w.size - 1, -1, -1):
            u0, u1 = Up[c], Up[c + 1] - 1
            w[c] /= Ux[u1]
            w[Ui[u0:u1]] -= Ux[u0:u1] * w[c]
    else:
        supernodal = "_C_sup_start" in T
        for c in range(w.size - 1, -1, -1):
            p0, p1 = Lp[c], Lp[c + 1]
            t = (Lx[p0 + 1 : p1] * w[Li[p0 + 1 : p1]])[::-1]
            if supernodal:
                acc = np.subtract.reduce(t, initial=w[c])
            else:
                acc = np.subtract.reduce(t[0::2], initial=w[c]) + np.subtract.reduce(t[1::2], initial=0.0)
            w[c] = acc if unit else acc / Lx[p0]
    x[perm] = w
