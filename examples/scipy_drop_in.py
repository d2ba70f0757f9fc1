"""scipy drop-in: `repro.solve(A, b)` on scipy matrices, no conversions.

The lazy-specializing front end accepts a `scipy.sparse` matrix (or COO
triplets, or a dense array) directly: the first call on a structure probes
it, auto-selects the kernel route, orders, inspects and compiles; every
later call on the same structure is pure numeric execution.  This script
walks the three auto-selected routes and the explicit `pcg` one, shows the
warm-call counters, and runs the fixed-pattern/changing-values loop through
the `@sympiled` decorator.

Run with:  python examples/scipy_drop_in.py
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import repro
from repro.frontend import SpecializedSolver, sympiled
from repro.sparse import (
    laplacian_2d,
    saddle_point_indefinite,
    unsymmetric_diag_dominant,
)


def main() -> None:
    rng = np.random.default_rng(7)

    # --- repro.solve on a scipy matrix, auto-selected route ----------------
    A = laplacian_2d(20).to_scipy().tocsc()  # any scipy.sparse SPD matrix
    n = A.shape[0]
    b = rng.normal(size=n)
    x = repro.solve(A, b)  # first call: probe + specialize + solve
    print(f"SPD {n}x{n}: residual {np.linalg.norm(A @ x - b):.2e} (route: cholesky)")
    assert np.allclose(x, spla.spsolve(A, b), atol=1e-8)

    # The second structurally-identical call skips probing, inspection and
    # codegen entirely — specialize once, execute numerically forever.
    x2 = repro.solve(A, rng.normal(size=n))
    front = repro.frontend.default_frontend()
    print(
        f"warm call: specializations={front.stats.specializations}, "
        f"structure_hits={front.stats.structure_hits}"
    )
    assert np.isfinite(x2).all()

    # --- the other routes, probed from structure ----------------------------
    K = saddle_point_indefinite(120, 40).to_scipy()  # symmetric indefinite
    xk = repro.solve(K, np.ones(K.shape[0]))  # route: ldlt
    J = unsymmetric_diag_dominant(150).to_scipy()  # unsymmetric Jacobian
    xj = repro.solve(J, np.ones(J.shape[0]))  # route: lu
    print(
        f"KKT residual {np.linalg.norm(K @ xk - 1.0):.2e} (route: ldlt), "
        f"Jacobian residual {np.linalg.norm(J @ xj - 1.0):.2e} (route: lu)"
    )

    # The probes pick a direct route at any size; IC(0)-preconditioned CG
    # runs when asked for.
    iterative = SpecializedSolver(method="pcg")
    P = laplacian_2d(16).to_scipy()
    xp = iterative.solve(P, np.ones(P.shape[0]))
    print(
        f"SPD: route {list(iterative.stats.methods)} in "
        f"{iterative.last_cg_result.iterations} CG iterations, "
        f"residual {np.linalg.norm(P @ xp - 1.0):.2e}"
    )

    # --- COO triplets work anywhere a pattern enters the system ------------
    rows = np.array([0, 1, 1, 2])
    cols = np.array([0, 0, 1, 2])
    vals = np.array([4.0, 1.0, 3.0, 5.0])
    xt = repro.solve((rows, cols, vals), np.ones(3))
    print(f"triplet input: x = {np.round(xt, 3)}")

    # --- @sympiled: the fixed-pattern / changing-values loop ----------------
    mesh = laplacian_2d(12)

    @sympiled
    def assemble_and_solve(t: float):
        # Same pattern every step, new values — the loop the paper amortizes.
        stiffness = mesh.with_values(mesh.data * (1.0 + 0.5 * t))
        load = np.full(mesh.n, t)
        return stiffness, load

    for step in range(5):
        assemble_and_solve(0.1 * (step + 1))
    info = assemble_and_solve.cache_info()
    print(
        f"@sympiled over 5 steps: {info['specializations']} specialization, "
        f"{info['refactorizations']} numeric refactorizations"
    )
    assert info["specializations"] == 1

    print("scipy drop-in front end OK")


if __name__ == "__main__":
    main()
