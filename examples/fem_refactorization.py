"""Repeated factorization of a FEM matrix with a fixed sparsity pattern.

A time-stepping simulation reassembles its stiffness/mass matrix every step
with new values on the same mesh (same sparsity).  This example compares, for
a sequence of such steps, the cost of

* scipy's native SuperLU (``splu``), which redoes its symbolic work inside
  every factorization, on the same pre-ordered matrix, against
* Sympiler: one compile (symbolic analysis + C code generation), then the
  generated numeric-only kernel per step.  The compile needs a C compiler
  (``REPRO_CC``, else ``cc``); without one it raises ``CCompilationError``.

Run with:  python examples/fem_refactorization.py
"""

import time

import numpy as np
from scipy.sparse.linalg import splu

from repro import Sympiler, SympilerOptions, fem_stencil_2d
from repro.sparse.ordering import minimum_degree_ordering


def main() -> None:
    steps = 8
    A0 = fem_stencil_2d(22, 22, shift=0.3)
    perm = minimum_degree_ordering(A0)
    A0 = perm.symmetric_permute(A0)
    print(f"FEM matrix: n={A0.n}, nnz={A0.nnz}, time steps: {steps}")

    rng = np.random.default_rng(1)
    # Per-step matrices: same pattern, scaled values (e.g. varying material
    # coefficients / time-step sizes).
    matrices = []
    for _ in range(steps):
        Ak = A0.copy()
        Ak.data *= rng.uniform(0.8, 1.2)
        matrices.append(Ak)

    # --- scipy splu, same ordering (no column permutation of its own) --------
    scipy_matrices = [Ak.to_scipy() for Ak in matrices]
    t0 = time.perf_counter()
    for S in scipy_matrices:
        splu(S, permc_spec="NATURAL", options={"SymmetricMode": True})
    splu_steps = time.perf_counter() - t0

    # --- Sympiler -----------------------------------------------------------
    t0 = time.perf_counter()
    sym = Sympiler(SympilerOptions(backend="c"))
    compiled = sym.compile("cholesky", A0)
    sympiler_setup = time.perf_counter() - t0
    t0 = time.perf_counter()
    factors = [compiled.factorize(Ak) for Ak in matrices]
    sympiler_steps = time.perf_counter() - t0

    print(f"scipy splu : {steps} factorizations {splu_steps:.3f}s")
    print(
        f"Sympiler   : compile {sympiler_setup:.3f}s "
        f"(inspection+codegen), {steps} factorizations {sympiler_steps:.3f}s"
    )
    print(f"per-step numeric speedup over splu: {splu_steps / sympiler_steps:.2f}x")

    # Sanity: the last factor reproduces the last matrix.
    L = factors[-1].to_dense()
    residual = np.abs(L @ L.T - matrices[-1].to_dense()).max()
    print(f"max abs reconstruction error of the last factor: {residual:.2e}")


if __name__ == "__main__":
    main()
