"""Quickstart: compile and run matrix-specialized sparse kernels.

Builds a small SPD model problem, lets Sympiler analyze its sparsity pattern
at compile time, and then runs the generated numeric-only kernels: a sparse
Cholesky factorization and a sparse triangular solve with a sparse right-hand
side.  Results are checked against dense NumPy/SciPy references.

Run with:  python examples/quickstart.py
"""

import numpy as np

from repro import Sympiler, laplacian_2d, sparse_rhs
from repro.baselines import reference_cholesky, reference_trisolve


def main() -> None:
    # An SPD model problem: the 5-point Laplacian on a 20x20 grid.
    A = laplacian_2d(20)
    print(f"matrix: n={A.n}, nnz={A.nnz}")

    sym = Sympiler()

    # Every kernel compiles through one entry, compile(kernel, A[, rhs_pattern=]).
    # --- Cholesky: symbolic analysis + code generation happen here ---------
    chol = sym.compile("cholesky", A)
    print(f"applied transformations: {chol.applied_transformations}")
    print(f"predicted nnz(L) = {chol.factor_nnz}")
    print(f"compile-time cost breakdown [s]: {chol.timings.as_dict()}")

    # --- numeric phase: only numeric arrays are touched --------------------
    L = chol.factorize(A)
    err = np.abs(L.to_dense() - reference_cholesky(A)).max()
    print(f"factorization max abs error vs dense reference: {err:.2e}")

    # --- triangular solve with a sparse RHS ---------------------------------
    b = sparse_rhs(A.n, density=0.02, seed=7)
    tri = sym.compile("triangular-solve", L, rhs_pattern=np.nonzero(b)[0])
    print(
        f"triangular solve visits {tri.reach_size} of {L.n} columns "
        f"(reach-set pruning)"
    )
    x = tri.solve(L, b)
    err = np.abs(x - reference_trisolve(L, b)).max()
    print(f"triangular solve max abs error vs dense reference: {err:.2e}")

    # On the default C backend `tri.source` is generated C that names the
    # tables it reads; on the python backend (the oracle of the bitwise
    # tests) it is a fixed NumPy function handed the same tables.
    first_lines = "\n".join(tri.source.splitlines()[:12])
    print(f"\n--- first lines of the solve kernel ({tri.backend} backend) ---")
    print(first_lines)
    print("its tables:", {name: table.shape for name, table in tri.constants.items()})


if __name__ == "__main__":
    main()
