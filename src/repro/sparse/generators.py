"""Synthetic SPD matrix generators.

The paper's evaluation uses eleven symmetric-positive-definite matrices from
the SuiteSparse collection (Table 2), drawn from structural mechanics, FEM
discretizations, thermal problems and 2-D ecology/geophysics grids.  Those
exact matrices are not available offline, so this module provides generators
for the same *classes* of sparsity structure:

* ``laplacian_2d`` / ``laplacian_3d`` — 5-point / 7-point finite-difference
  Poisson problems (analogues of ``ecology2``, ``tmt_sym``, ``parabolic_fem``,
  ``thermomech_dM``).
* ``fem_stencil_2d`` — 9-point bilinear-FEM stencil (``Dubcova2/3`` analogues).
* ``banded_spd`` / ``block_tridiagonal_spd`` — banded and block-structured
  structural-mechanics style matrices with sizeable supernodes (``cbuckle``,
  ``msc23052``, ``Pres_Poisson`` analogues).
* ``circuit_like_spd`` / ``power_grid_spd`` — graph Laplacians of
  irregular-degree networks (the circuit/power-system motivating domain of
  §1.2, and ``gyro``-like irregular structure).
* ``random_spd`` — uniformly random symmetric pattern, diagonally dominated.

Every generator returns a full (both triangles stored) SPD
:class:`~repro.sparse.csc.CSCMatrix`.  Diagonal dominance is used to guarantee
positive definiteness so every matrix is factorizable without pivoting.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.coo import TripletBuilder
from repro.sparse.csc import CSCMatrix

__all__ = [
    "laplacian_2d",
    "laplacian_3d",
    "fem_stencil_2d",
    "banded_spd",
    "block_tridiagonal_spd",
    "arrow_spd",
    "random_spd",
    "circuit_like_spd",
    "power_grid_spd",
    "saddle_point_indefinite",
    "unsymmetric_diag_dominant",
    "sparse_rhs",
]


# --------------------------------------------------------------------------- #
# Mesh / stencil problems
# --------------------------------------------------------------------------- #
def laplacian_2d(nx: int, ny: int | None = None, *, shift: float = 0.0) -> CSCMatrix:
    """5-point Dirichlet Laplacian on an ``nx``-by-``ny`` grid.

    The matrix order is ``nx * ny``; it is SPD for any positive grid size.
    """
    if ny is None:
        ny = nx
    if nx <= 0 or ny <= 0:
        raise ValueError("grid dimensions must be positive")
    n = nx * ny
    builder = TripletBuilder(n, n)

    def node(i: int, j: int) -> int:
        return i * ny + j

    for i in range(nx):
        for j in range(ny):
            v = node(i, j)
            builder.add(v, v, 4.0 + shift)
            if i + 1 < nx:
                builder.add_symmetric(node(i + 1, j), v, -1.0)
            if j + 1 < ny:
                builder.add_symmetric(node(i, j + 1), v, -1.0)
    return builder.to_csc()


def laplacian_3d(nx: int, ny: int | None = None, nz: int | None = None, *, shift: float = 0.0) -> CSCMatrix:
    """7-point Dirichlet Laplacian on an ``nx``-by-``ny``-by-``nz`` grid."""
    if ny is None:
        ny = nx
    if nz is None:
        nz = nx
    if nx <= 0 or ny <= 0 or nz <= 0:
        raise ValueError("grid dimensions must be positive")
    n = nx * ny * nz
    builder = TripletBuilder(n, n)

    def node(i: int, j: int, k: int) -> int:
        return (i * ny + j) * nz + k

    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                v = node(i, j, k)
                builder.add(v, v, 6.0 + shift)
                if i + 1 < nx:
                    builder.add_symmetric(node(i + 1, j, k), v, -1.0)
                if j + 1 < ny:
                    builder.add_symmetric(node(i, j + 1, k), v, -1.0)
                if k + 1 < nz:
                    builder.add_symmetric(node(i, j, k + 1), v, -1.0)
    return builder.to_csc()


def fem_stencil_2d(nx: int, ny: int | None = None, *, shift: float = 0.0) -> CSCMatrix:
    """9-point (bilinear finite element) stencil on a 2-D grid.

    Uses the standard Q1 element stiffness stencil ``8/3`` on the diagonal,
    ``-1/3`` on every edge and corner neighbour, which is SPD on a Dirichlet
    grid; a diagonal ``shift`` can be added to increase definiteness margin.
    """
    if ny is None:
        ny = nx
    if nx <= 0 or ny <= 0:
        raise ValueError("grid dimensions must be positive")
    n = nx * ny
    builder = TripletBuilder(n, n)

    def node(i: int, j: int) -> int:
        return i * ny + j

    for i in range(nx):
        for j in range(ny):
            v = node(i, j)
            builder.add(v, v, 8.0 / 3.0 + shift)
            for di, dj in ((1, 0), (0, 1), (1, 1), (1, -1)):
                ii, jj = i + di, j + dj
                if 0 <= ii < nx and 0 <= jj < ny:
                    builder.add_symmetric(node(ii, jj), v, -1.0 / 3.0)
    return builder.to_csc()


# --------------------------------------------------------------------------- #
# Structured / structural-mechanics style problems
# --------------------------------------------------------------------------- #
def banded_spd(n: int, bandwidth: int, *, seed: int = 0, fill: float = 1.0) -> CSCMatrix:
    """Random symmetric banded matrix made SPD by diagonal dominance.

    Parameters
    ----------
    bandwidth:
        Number of sub-diagonals that may hold nonzeros.
    fill:
        Probability of a within-band entry being nonzero (1.0 = full band).
    """
    if n <= 0:
        raise ValueError("matrix order must be positive")
    if bandwidth < 0:
        raise ValueError("bandwidth must be non-negative")
    rng = np.random.default_rng(seed)
    builder = TripletBuilder(n, n)
    row_sums = np.zeros(n, dtype=np.float64)
    for j in range(n):
        for i in range(j + 1, min(n, j + bandwidth + 1)):
            if fill >= 1.0 or rng.random() < fill:
                v = rng.uniform(-1.0, -0.05)
                builder.add_symmetric(i, j, v)
                row_sums[i] += abs(v)
                row_sums[j] += abs(v)
    for j in range(n):
        builder.add(j, j, row_sums[j] + 1.0)
    return builder.to_csc()


def block_tridiagonal_spd(
    n_blocks: int, block_size: int, *, seed: int = 0, dense_coupling: bool = False
) -> CSCMatrix:
    """Block-tridiagonal SPD matrix with dense diagonal blocks.

    The dense diagonal blocks and identical column structure within each block
    make this generator produce large supernodes — a structural-mechanics
    style workload where VS-Block pays off the most.

    Parameters
    ----------
    dense_coupling:
        When true, adjacent blocks are coupled by a fully dense off-diagonal
        block (every column of a block then shares the same below-diagonal
        structure, so whole blocks become supernodes); when false only the
        corresponding degrees of freedom of adjacent blocks are coupled.
    """
    if n_blocks <= 0 or block_size <= 0:
        raise ValueError("block counts and sizes must be positive")
    rng = np.random.default_rng(seed)
    n = n_blocks * block_size
    builder = TripletBuilder(n, n)
    row_sums = np.zeros(n, dtype=np.float64)
    for b in range(n_blocks):
        base = b * block_size
        # Dense symmetric diagonal block.
        for jj in range(block_size):
            for ii in range(jj + 1, block_size):
                v = rng.uniform(-1.0, -0.05)
                builder.add_symmetric(base + ii, base + jj, v)
                row_sums[base + ii] += abs(v)
                row_sums[base + jj] += abs(v)
        # Coupling to the next block.
        if b + 1 < n_blocks:
            nxt = (b + 1) * block_size
            for jj in range(block_size):
                if dense_coupling:
                    for ii in range(block_size):
                        v = rng.uniform(-0.3, -0.02)
                        builder.add_symmetric(nxt + ii, base + jj, v)
                        row_sums[nxt + ii] += abs(v)
                        row_sums[base + jj] += abs(v)
                else:
                    v = rng.uniform(-0.5, -0.05)
                    builder.add_symmetric(nxt + jj, base + jj, v)
                    row_sums[nxt + jj] += abs(v)
                    row_sums[base + jj] += abs(v)
    for j in range(n):
        builder.add(j, j, row_sums[j] + 1.0)
    return builder.to_csc()


def arrow_spd(n: int, arrow_width: int = 1, *, seed: int = 0) -> CSCMatrix:
    """Arrowhead SPD matrix: tridiagonal plus ``arrow_width`` dense last rows.

    Arrowhead matrices are the classic worst case for natural ordering and a
    good stress test for the orderings and the symbolic fill prediction.
    """
    if n <= 0:
        raise ValueError("matrix order must be positive")
    if arrow_width < 0 or arrow_width >= n:
        raise ValueError("arrow_width must lie in [0, n)")
    rng = np.random.default_rng(seed)
    builder = TripletBuilder(n, n)
    row_sums = np.zeros(n, dtype=np.float64)
    for j in range(n - 1):
        v = rng.uniform(-1.0, -0.1)
        builder.add_symmetric(j + 1, j, v)
        row_sums[j] += abs(v)
        row_sums[j + 1] += abs(v)
    for k in range(arrow_width):
        i = n - 1 - k
        for j in range(0, i - 1):
            v = rng.uniform(-0.4, -0.05)
            builder.add_symmetric(i, j, v)
            row_sums[i] += abs(v)
            row_sums[j] += abs(v)
    for j in range(n):
        builder.add(j, j, row_sums[j] + 1.0)
    return builder.to_csc()


# --------------------------------------------------------------------------- #
# Irregular graph problems
# --------------------------------------------------------------------------- #
def random_spd(n: int, density: float = 0.01, *, seed: int = 0) -> CSCMatrix:
    """Random symmetric pattern of the given off-diagonal density, SPD.

    ``density`` is the expected fraction of nonzero off-diagonal entries in
    the full matrix; the diagonal is always present.
    """
    if n <= 0:
        raise ValueError("matrix order must be positive")
    if not (0.0 <= density <= 1.0):
        raise ValueError("density must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    # Expected number of strictly-lower-triangular entries.
    target = int(round(density * n * (n - 1) / 2.0))
    builder = TripletBuilder(n, n)
    row_sums = np.zeros(n, dtype=np.float64)
    if target > 0:
        rows = rng.integers(0, n, size=3 * target + 8)
        cols = rng.integers(0, n, size=3 * target + 8)
        seen = set()
        count = 0
        for i, j in zip(rows, cols):
            if count >= target:
                break
            i, j = int(i), int(j)
            if i == j:
                continue
            lo, hi = (j, i) if i > j else (i, j)
            if (hi, lo) in seen:
                continue
            seen.add((hi, lo))
            v = rng.uniform(-1.0, -0.05)
            builder.add_symmetric(hi, lo, v)
            row_sums[hi] += abs(v)
            row_sums[lo] += abs(v)
            count += 1
    for j in range(n):
        builder.add(j, j, row_sums[j] + 1.0)
    return builder.to_csc()


def circuit_like_spd(n: int, avg_degree: float = 4.0, *, hub_fraction: float = 0.02, seed: int = 0) -> CSCMatrix:
    """Graph-Laplacian-like SPD matrix with a skewed degree distribution.

    Mimics circuit-simulation / power-system Jacobians (§1.2): most nodes have
    a small number of neighbours, while a few hub nodes (ground nets, slack
    buses) connect to many others.  Such matrices have small supernodes, the
    regime where the paper reports CHOLMOD underperforming.
    """
    if n <= 1:
        raise ValueError("matrix order must be at least 2")
    rng = np.random.default_rng(seed)
    builder = TripletBuilder(n, n)
    row_sums = np.zeros(n, dtype=np.float64)
    edges = set()

    def add_edge(i: int, j: int) -> None:
        if i == j:
            return
        lo, hi = (j, i) if i > j else (i, j)
        if (hi, lo) in edges:
            return
        edges.add((hi, lo))
        v = rng.uniform(-1.0, -0.1)
        builder.add_symmetric(hi, lo, v)
        row_sums[hi] += abs(v)
        row_sums[lo] += abs(v)

    # A random spanning chain keeps the graph connected.
    perm = rng.permutation(n)
    for k in range(n - 1):
        add_edge(int(perm[k]), int(perm[k + 1]))
    # Random local edges up to the requested average degree.
    extra = max(0, int(round(avg_degree * n / 2.0)) - (n - 1))
    for _ in range(extra):
        i = int(rng.integers(0, n))
        j = int(rng.integers(max(0, i - 25), min(n, i + 25)))
        add_edge(i, j)
    # Hubs connect to many random nodes.
    n_hubs = max(1, int(round(hub_fraction * n)))
    hubs = rng.choice(n, size=n_hubs, replace=False)
    for h in hubs:
        targets = rng.choice(n, size=max(4, n // 50), replace=False)
        for t in targets:
            add_edge(int(h), int(t))
    for j in range(n):
        builder.add(j, j, row_sums[j] + 1.0)
    return builder.to_csc()


def power_grid_spd(n_buses: int, *, neighbours: int = 2, rewire: float = 0.05, seed: int = 0) -> CSCMatrix:
    """Small-world network Laplacian: a power-transmission-grid analogue.

    Buses are arranged on a ring, each connected to its ``neighbours`` nearest
    buses on either side; a fraction ``rewire`` of edges is rewired to a
    random bus (long transmission lines).  The admittance-matrix-like result
    is SPD via diagonal dominance.
    """
    if n_buses <= 2:
        raise ValueError("a grid needs at least 3 buses")
    rng = np.random.default_rng(seed)
    builder = TripletBuilder(n_buses, n_buses)
    row_sums = np.zeros(n_buses, dtype=np.float64)
    edges = set()

    def add_edge(i: int, j: int) -> None:
        if i == j:
            return
        lo, hi = (j, i) if i > j else (i, j)
        if (hi, lo) in edges:
            return
        edges.add((hi, lo))
        v = rng.uniform(-2.0, -0.5)
        builder.add_symmetric(hi, lo, v)
        row_sums[hi] += abs(v)
        row_sums[lo] += abs(v)

    for i in range(n_buses):
        for k in range(1, neighbours + 1):
            j = (i + k) % n_buses
            if rng.random() < rewire:
                j = int(rng.integers(0, n_buses))
            add_edge(i, j)
    for j in range(n_buses):
        builder.add(j, j, row_sums[j] + 1.0)
    return builder.to_csc()


# --------------------------------------------------------------------------- #
# Symmetric indefinite (saddle-point) problems
# --------------------------------------------------------------------------- #
def saddle_point_indefinite(
    n_primal: int,
    n_dual: int,
    *,
    coupling_per_row: int = 3,
    seed: int = 0,
) -> CSCMatrix:
    """Symmetric *indefinite* KKT/saddle-point matrix ``[[H, Bᵀ], [B, -C]]``.

    ``H`` (``n_primal`` × ``n_primal``) and ``C`` (``n_dual`` × ``n_dual``)
    are SPD (diagonally dominant band / diagonal blocks) and ``B`` is a sparse
    coupling block with ``coupling_per_row`` entries per dual row.  The result
    is symmetric quasi-definite, hence strongly factorizable: LDLᵀ succeeds
    without pivoting for every symmetric permutation, with exactly
    ``n_primal`` positive and ``n_dual`` negative pivots — the canonical
    workload for the LDLᵀ kernel, which Cholesky rejects.
    """
    if n_primal <= 0 or n_dual <= 0:
        raise ValueError("block orders must be positive")
    rng = np.random.default_rng(seed)
    n = n_primal + n_dual
    builder = TripletBuilder(n, n)
    row_sums = np.zeros(n_primal, dtype=np.float64)
    # H: tridiagonal coupling inside the primal block.
    for i in range(n_primal - 1):
        v = rng.uniform(-1.0, -0.2)
        builder.add_symmetric(i + 1, i, v)
        row_sums[i] += abs(v)
        row_sums[i + 1] += abs(v)
    for i in range(n_primal):
        builder.add(i, i, row_sums[i] + rng.uniform(1.0, 2.0))
    # B: sparse coupling between dual rows and primal columns.
    for i in range(n_dual):
        cols = rng.choice(n_primal, size=min(coupling_per_row, n_primal), replace=False)
        for j in cols:
            builder.add_symmetric(n_primal + i, int(j), rng.uniform(0.2, 1.0))
    # -C: strictly negative dual diagonal.
    for i in range(n_dual):
        builder.add(n_primal + i, n_primal + i, -rng.uniform(1.0, 2.0))
    return builder.to_csc()


# --------------------------------------------------------------------------- #
# Unsymmetric (Newton-Jacobian style) problems
# --------------------------------------------------------------------------- #
def unsymmetric_diag_dominant(
    n: int,
    *,
    avg_nnz_per_col: float = 4.0,
    bandwidth: int = 12,
    long_range_fraction: float = 0.15,
    seed: int = 0,
) -> CSCMatrix:
    """Unsymmetric, strictly diagonally dominant matrix (a Jacobian analogue).

    Mimics the Newton–Raphson Jacobians of circuit/power-flow simulation
    (§1.2 of the paper): the *pattern* is fixed by the network topology while
    the values are direction-dependent (``A[i, j] != A[j, i]``, and an entry
    may exist in one direction only, so the pattern itself is unsymmetric).
    Entries cluster in a band around the diagonal (local couplings) with a
    fraction of long-range entries (tie lines); the diagonal strictly
    dominates both its row and its column, so LU without pivoting is stable
    and every pivot is nonzero — the regime the ``lu`` kernel targets.

    Parameters
    ----------
    avg_nnz_per_col:
        Expected number of off-diagonal entries per column.
    bandwidth:
        Half-width of the band most entries fall into.
    long_range_fraction:
        Fraction of entries rewired to a uniformly random row.
    """
    if n <= 0:
        raise ValueError("matrix order must be positive")
    if avg_nnz_per_col < 0:
        raise ValueError("avg_nnz_per_col must be non-negative")
    rng = np.random.default_rng(seed)
    builder = TripletBuilder(n, n)
    row_sums = np.zeros(n, dtype=np.float64)
    col_sums = np.zeros(n, dtype=np.float64)
    seen = set()
    target = int(round(avg_nnz_per_col * n))
    attempts = 0
    count = 0
    while count < target and attempts < 20 * max(target, 1):
        attempts += 1
        j = int(rng.integers(0, n))
        if rng.random() < long_range_fraction:
            i = int(rng.integers(0, n))
        else:
            lo = max(0, j - bandwidth)
            hi = min(n, j + bandwidth + 1)
            i = int(rng.integers(lo, hi))
        if i == j or (i, j) in seen:
            continue
        seen.add((i, j))
        v = float(rng.uniform(0.05, 1.0) * rng.choice((-1.0, 1.0)))
        builder.add(i, j, v)
        row_sums[i] += abs(v)
        col_sums[j] += abs(v)
        count += 1
    for j in range(n):
        sign = 1.0 if rng.random() < 0.85 else -1.0
        builder.add(j, j, sign * (max(row_sums[j], col_sums[j]) + rng.uniform(0.5, 1.5)))
    return builder.to_csc()


# --------------------------------------------------------------------------- #
# Right-hand sides
# --------------------------------------------------------------------------- #
def sparse_rhs(n: int, *, nnz: int | None = None, density: float | None = None, seed: int = 0) -> np.ndarray:
    """A sparse right-hand-side vector as a dense array with few nonzeros.

    Triangular solves in the paper use RHS vectors with less than 5 % fill-in
    (§4.2); the default density here matches that regime.  Exactly one of
    ``nnz``/``density`` may be given; the default is 2 % density (at least one
    nonzero).
    """
    if n <= 0:
        raise ValueError("vector length must be positive")
    if nnz is not None and density is not None:
        raise ValueError("pass either nnz or density, not both")
    if nnz is None:
        density = 0.02 if density is None else density
        nnz = max(1, int(round(density * n)))
    nnz = min(max(int(nnz), 1), n)
    rng = np.random.default_rng(seed)
    b = np.zeros(n, dtype=np.float64)
    positions = rng.choice(n, size=nnz, replace=False)
    b[positions] = rng.uniform(0.5, 2.0, size=nnz)
    return b
