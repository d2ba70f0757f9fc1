"""Dense oracles of the factorizations, written apart from the code under test.

Each runs on a dense copy of the matrix, without pivoting.  :func:`ldlt` and
:func:`lu` are the complete factorizations, for numeric checks.  :func:`ic0`
restricts every update to the stored entries of ``A``.  It runs
left-looking, with sources in ascending order, which is the operation order
of the python backend's kernel, so the two agree to the bit.
:func:`lower_triangle` is scipy's ``tril`` on a CSC matrix;
:func:`on_pattern` reads a dense factor at the stored entries of a CSC one;
:func:`solve_with` solves with compiled factors by scipy's triangular solves,
and :func:`reference_solve` an SPD system by the dense Cholesky factor.
:func:`spd_zoo` is the set of small SPD matrices the fixtures of
``conftest.py`` hand out.

The symbolic phase runs in the native helper (``repro.symbolic.native``)
alone; the Python twins of its traversals follow the dense oracles, and the
helper's results are tested array-equal to them:
:func:`elimination_tree_reference`, :func:`postorder_reference` (over
:func:`first_children`), :func:`reach_set_reference`, :func:`ereach` (one
row; :func:`_ereach_stamped` for a pass over all of them),
:func:`factor_structure_reference`, :func:`lu_pattern_reference` and
:func:`minimum_degree_reference`.
"""

import heapq
from typing import List, Tuple

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve_triangular

from repro.baselines.scipy_reference import reference_cholesky
from repro.sparse.csc import CSCMatrix
from repro.sparse.generators import (
    arrow_spd,
    banded_spd,
    block_tridiagonal_spd,
    circuit_like_spd,
    fem_stencil_2d,
    laplacian_2d,
    laplacian_3d,
    power_grid_spd,
    random_spd,
)
from repro.sparse.ordering import _adjacency_sets
from repro.sparse.permutation import Permutation
from repro.symbolic.fill_pattern import _upper_pattern
from repro.symbolic.inspector import inspect_cholesky


def spd_zoo():
    """Small SPD matrices, one of every generator class, by name."""
    return {
        "laplacian_2d": laplacian_2d(7),
        "laplacian_3d": laplacian_3d(4),
        "fem": fem_stencil_2d(6),
        "banded": banded_spd(35, 4, seed=1),
        "block": block_tridiagonal_spd(5, 5, seed=2),
        "circuit": circuit_like_spd(48, seed=3),
        "random": random_spd(40, 0.06, seed=4),
        "grid": power_grid_spd(42, seed=5),
        "arrow": arrow_spd(30, 2, seed=6),
    }


def lower_triangle(A):
    """The stored entries of ``A`` on and below the diagonal, by scipy's ``tril``."""
    return CSCMatrix.from_scipy(sp.tril(A.to_scipy(), format="csc"))


def on_pattern(dense, M):
    """The entries of ``dense`` at the stored positions of ``M``, in ``M.data`` order."""
    return dense[M.indices, np.repeat(np.arange(M.n), np.diff(M.indptr))]


def reference_solve(A, b):
    """``x`` with ``A x = b`` for an SPD ``A``, by :func:`reference_cholesky` and scipy's dense triangular solves."""
    L = reference_cholesky(A)
    y = scipy.linalg.solve_triangular(L, np.asarray(b, dtype=np.float64), lower=True)
    return scipy.linalg.solve_triangular(L.T, y, lower=False)


def solve_with(factors, b):
    """``x`` with ``L diag(d) Lᵀ x = b`` (LDLᵀ factors) or ``L U x = b`` (LU factors), by scipy's triangular solves."""
    L = factors.L.to_scipy().tocsr()
    y = spsolve_triangular(L, b, lower=True)
    if hasattr(factors, "d"):
        return spsolve_triangular(L.T.tocsr(), y / factors.d, lower=False)
    return spsolve_triangular(factors.U.to_scipy().tocsr(), y, lower=False)


def cholesky_factor(A):
    """NumPy's Cholesky factor of ``A`` as a CSC matrix on the inspector's pattern of ``L``."""
    L = inspect_cholesky(A).l_pattern_matrix()
    return L.with_values(on_pattern(reference_cholesky(A), L))


def ldlt(A):
    """``(L, d)`` with ``A = L diag(d) Lᵀ`` and ``L`` unit lower triangular; reads ``tril(A)``."""
    M = np.tril(A.to_dense())
    n = M.shape[0]
    L, d = np.eye(n), np.empty(n)
    for k in range(n):
        d[k] = M[k, k]
        L[k + 1 :, k] = M[k + 1 :, k] / d[k]
        M[k + 1 :, k + 1 :] -= np.outer(L[k + 1 :, k], M[k + 1 :, k])
    return L, d


def lu(A):
    """``(L, U)`` with ``A = L U``, ``L`` unit lower and ``U`` upper triangular."""
    U = A.to_dense()
    L = np.eye(U.shape[0])
    for k in range(U.shape[0]):
        L[k + 1 :, k] = U[k + 1 :, k] / U[k, k]
        U[k + 1 :, :] -= np.outer(L[k + 1 :, k], U[k, :])
        U[k + 1 :, k] = 0.0
    return L, np.triu(U)


def _dense_and_mask(A):
    mask = np.zeros((A.n, A.n), dtype=bool)
    mask[A.indices, np.repeat(np.arange(A.n), np.diff(A.indptr))] = True
    return A.to_dense(), mask


def ic0(A):
    """IC(0) of ``A``: the dense lower factor, nonzero only on the pattern of ``tril(A)``."""
    L, mask = _dense_and_mask(A)
    L, mask = np.tril(L), np.tril(mask)
    for j in range(A.n):
        for k in np.flatnonzero(mask[j, :j]):
            rows = j + np.flatnonzero(mask[j:, j] & mask[j:, k])
            L[rows, j] -= L[rows, k] * L[j, k]
        if not L[j, j] > 0.0:
            raise ValueError(f"non-positive pivot at column {j}")
        L[j, j] = np.sqrt(L[j, j])
        L[j + 1 :, j] /= L[j, j]
    return L


# --------------------------------------------------------------------------- #
# The Python twins of the native symbolic helper
# --------------------------------------------------------------------------- #
def elimination_tree_reference(work: CSCMatrix) -> np.ndarray:
    """:func:`elimination_tree` in Python.

    ``work`` stores the upper triangle by columns (or the full symmetric
    pattern): entries below the diagonal are skipped, not transposed.
    """
    n = work.n
    parent = np.full(n, -1, dtype=np.int64)
    ancestor = np.full(n, -1, dtype=np.int64)
    indptr, indices = work.indptr, work.indices
    for k in range(n):
        for p in range(indptr[k], indptr[k + 1]):
            i = indices[p]
            # Traverse from i toward the root, compressing paths to k.
            while i != -1 and i < k:
                inext = ancestor[i]
                ancestor[i] = k
                if inext == -1:
                    parent[i] = k
                i = inext
    return parent


def first_children(parent: np.ndarray) -> List[List[int]]:
    """Children lists of every node, in increasing child order."""
    parent = np.asarray(parent, dtype=np.int64)
    children: List[List[int]] = [[] for _ in range(parent.size)]
    for j, p in enumerate(parent):
        if p >= 0:
            children[p].append(j)
    return children


def postorder_reference(parent: np.ndarray) -> np.ndarray:
    """:func:`postorder` in Python."""
    parent = np.asarray(parent, dtype=np.int64)
    n = parent.size
    children = first_children(parent)
    order = np.empty(n, dtype=np.int64)
    k = 0
    for root in range(n):
        if parent[root] != -1:
            continue
        # Iterative postorder over the subtree rooted at `root`.
        stack = [(root, 0)]
        while stack:
            node, child_idx = stack.pop()
            if child_idx < len(children[node]):
                stack.append((node, child_idx + 1))
                stack.append((children[node][child_idx], 0))
            else:
                order[k] = node
                k += 1
    if k != n:
        raise ValueError("parent array does not describe a forest (cycle detected)")
    return order


def reach_set_reference(n: int, indptr: np.ndarray, indices: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """:func:`reach_set_from_arrays` in Python, over checked ``sources``."""
    visited = np.zeros(n, dtype=bool)
    # The output is filled from the back, exactly like cs_reach: a vertex is
    # appended when its DFS finishes, producing reverse-finish order which is
    # a topological order for this DAG.
    out = np.empty(n, dtype=np.int64)
    top = n

    # Explicit DFS stacks: one for the vertex path, one for the position of
    # the next out-edge to explore at each vertex on the path.
    vertex_stack = np.empty(n, dtype=np.int64)
    edge_stack = np.empty(n, dtype=np.int64)

    for src in sources:
        if visited[src]:
            continue
        depth = 0
        vertex_stack[0] = src
        edge_stack[0] = indptr[src]
        visited[src] = True
        while depth >= 0:
            v = vertex_stack[depth]
            p = edge_stack[depth]
            end = indptr[v + 1]
            descended = False
            while p < end:
                i = indices[p]
                p += 1
                if i > v and not visited[i]:
                    # Descend into the unvisited dependent column i.
                    edge_stack[depth] = p
                    depth += 1
                    vertex_stack[depth] = i
                    edge_stack[depth] = indptr[i]
                    visited[i] = True
                    descended = True
                    break
            if not descended:
                # v is finished: emit it and pop.
                top -= 1
                out[top] = v
                depth -= 1
            # else: continue the loop with the child on top of the stack.
    return out[top:].copy()


def _ereach_stamped(upper: CSCMatrix, k: int, parent: np.ndarray, stamp: np.ndarray) -> np.ndarray:
    """Row ``k``'s pattern; ``stamp[i] == k`` marks the nodes this row has seen.

    A caller visiting every row passes one ``stamp`` (initially all ``-1``)
    to all of them: the row index is its own marker, so nothing is cleared or
    allocated between rows.
    """
    stamp[k] = k
    result: List[int] = []
    for i in upper.col_rows(k):
        i = int(i)
        if i > k:
            continue
        # Walk up the etree from i until a marked node is found: every node
        # on the way is a nonzero of row k of L.
        while stamp[i] != k:
            result.append(i)
            stamp[i] = k
            i = int(parent[i])
            if i == -1:
                break
    result.sort()
    return np.asarray(result, dtype=np.int64)


def ereach(A: CSCMatrix, k: int, parent: np.ndarray, *, _upper: CSCMatrix | None = None) -> np.ndarray:
    """Nonzero pattern of row ``k`` of the Cholesky factor ``L``.

    Returns the column indices ``j < k`` such that ``L[k, j] != 0``, in
    ascending order (ascending order is a topological order of the
    elimination tree because ``parent[j] > j``).

    Parameters
    ----------
    A:
        The SPD matrix (full symmetric or lower-triangular storage).
    k:
        Row index.
    parent:
        Elimination tree of ``A``.
    """
    if not (0 <= k < A.n):
        raise IndexError(f"row {k} out of range")
    upper = _upper if _upper is not None else _upper_pattern(A)
    return _ereach_stamped(upper, k, parent, np.full(A.n, -1, dtype=np.int64))


def _pointers_of(lists) -> np.ndarray:
    """Compressed pointers of a sequence of lists laid end to end."""
    return np.concatenate(([0], np.cumsum([len(each) for each in lists], dtype=np.int64)))


def factor_structure_reference(
    upper: CSCMatrix, parent: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`factor_structure` in Python; ``upper`` stores the upper triangle."""
    n = upper.n
    stamp = np.full(n, -1, dtype=np.int64)
    rows = [_ereach_stamped(upper, k, parent, stamp) for k in range(n)]
    row_ptr = _pointers_of(rows)
    row_idx = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
    col_rows: List[List[int]] = [[j] for j in range(n)]
    for k in range(n):
        for j in rows[k]:
            col_rows[int(j)].append(k)
    l_indptr = _pointers_of(col_rows)
    # Rows were appended in increasing k, so each column is already sorted.
    l_indices = np.asarray([i for rows_j in col_rows for i in rows_j], dtype=np.int64)
    return row_ptr, row_idx, l_indptr, l_indices


def lu_pattern_reference(
    A: CSCMatrix,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`lu_pattern` in Python: one depth-first reach per column."""
    n = A.n
    l_cols: List[np.ndarray] = []  # off-diagonal rows (> j) of L column j
    u_cols: List[np.ndarray] = []  # above-diagonal rows (< j) of U column j
    marked = np.full(n, -1, dtype=np.int64)  # column currently marking a node
    stack = np.empty(n, dtype=np.int64)
    for j in range(n):
        reached: List[int] = []
        marked[j] = j  # the diagonal is always structural
        for i0 in A.col_rows(j):
            # Depth-first reach in the DAG of the already-built L columns:
            # a node k < j forwards to the off-diagonal rows of L(:, k).
            # Nodes are marked when pushed, so each is stacked at most once
            # per column and the fixed-size stack cannot overflow.
            i0 = int(i0)
            if marked[i0] == j:
                continue
            marked[i0] = j
            reached.append(i0)
            top = 0
            stack[0] = i0
            while top >= 0:
                i = int(stack[top])
                top -= 1
                if i < j:
                    for r in l_cols[i]:
                        r = int(r)
                        if marked[r] != j:
                            marked[r] = j
                            reached.append(r)
                            top += 1
                            stack[top] = r
        reached_arr = np.asarray(sorted(reached), dtype=np.int64)
        u_cols.append(reached_arr[reached_arr < j])
        l_cols.append(reached_arr[reached_arr > j])
    l_indptr = np.zeros(n + 1, dtype=np.int64)
    u_indptr = np.zeros(n + 1, dtype=np.int64)
    for j in range(n):
        l_indptr[j + 1] = l_indptr[j] + 1 + l_cols[j].size  # + unit diagonal
        u_indptr[j + 1] = u_indptr[j] + u_cols[j].size + 1  # + pivot
    l_indices = np.empty(int(l_indptr[-1]), dtype=np.int64)
    u_indices = np.empty(int(u_indptr[-1]), dtype=np.int64)
    for j in range(n):
        l_indices[l_indptr[j]] = j
        l_indices[l_indptr[j] + 1 : l_indptr[j + 1]] = l_cols[j]
        u_indices[u_indptr[j] : u_indptr[j + 1] - 1] = u_cols[j]
        u_indices[u_indptr[j + 1] - 1] = j
    return l_indptr, l_indices, u_indptr, u_indices


def minimum_degree_reference(A: CSCMatrix) -> Permutation:
    """:func:`minimum_degree_ordering` on explicit adjacency sets, in Python.

    The classical (non-quotient-graph) formulation: asymptotically slower,
    but a dozen lines, which makes it the oracle for the native one.
    """
    n = A.n_rows
    adj = _adjacency_sets(A)
    eliminated = np.zeros(n, dtype=bool)
    # Lazy-deletion heap of (degree, vertex); stale entries are skipped.
    heap: List[tuple[int, int]] = [(len(adj[v]), v) for v in range(n)]
    heapq.heapify(heap)
    order = np.empty(n, dtype=np.int64)
    for k in range(n):
        while True:
            deg, v = heapq.heappop(heap)
            if not eliminated[v] and deg == len(adj[v]):
                break
        order[k] = v
        eliminated[v] = True
        neighbours = adj[v]
        # Form the clique among the remaining neighbours of v.
        for u in neighbours:
            adj[u].discard(v)
        nb_list = list(neighbours)
        for idx, u in enumerate(nb_list):
            for w in nb_list[idx + 1 :]:
                if w not in adj[u]:
                    adj[u].add(w)
                    adj[w].add(u)
                    heapq.heappush(heap, (len(adj[w]), w))
            # Every neighbour lost v, so every neighbour's degree is stale.
            heapq.heappush(heap, (len(adj[u]), u))
        adj[v] = set()
    return Permutation(order)
