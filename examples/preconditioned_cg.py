"""Preconditioned conjugate gradient with Sympiler-generated triangular solves.

Section 4.3 of the paper argues that the one-time symbolic/codegen cost of a
specialized triangular solve is negligible for preconditioned iterative
solvers, which perform a triangular solve (or two) in *every* iteration on a
fixed sparsity pattern.  This example solves a 2-D Poisson problem with CG,
with and without an IC(0) preconditioner whose forward/backward sweeps run
through Sympiler-generated kernels, and reports the iteration counts.

Run with:  python examples/preconditioned_cg.py
"""

import numpy as np

from repro import laplacian_2d
from repro.solvers import preconditioned_conjugate_gradient


def main() -> None:
    A = laplacian_2d(24)
    rng = np.random.default_rng(3)
    x_true = rng.normal(size=A.n)
    b = A.matvec(x_true)
    print(f"Poisson system: n={A.n}, nnz={A.nnz}")

    plain = preconditioned_conjugate_gradient(
        A, b, tol=1e-10, use_preconditioner=False
    )
    print(
        f"plain CG:            {plain.iterations:4d} iterations, "
        f"final residual {plain.final_residual:.2e}"
    )

    precond = preconditioned_conjugate_gradient(A, b, tol=1e-10)
    print(
        f"IC(0)-preconditioned:{precond.iterations:4d} iterations, "
        f"final residual {precond.final_residual:.2e} "
        "(IC(0) factor computed by the generated ic0 kernel)"
    )
    print(
        "preconditioner applications (2 generated triangular solves each): "
        f"{precond.iterations + 1}"
    )
    err = np.abs(precond.x - x_true).max()
    print(f"max abs error of the preconditioned solution: {err:.2e}")


if __name__ == "__main__":
    main()
