"""Look inside the compiler: planned loops, decisions and generated code.

Walks through the stages of Figure 2 of the paper on a small matrix with
large supernodes: the domain loop each kernel runs once the inspector-guided
transformations (VS-Block, VI-Prune) have been decided,
the sizes of the tables it reads, the decisions taken by the participation
heuristics, and what each backend runs: the python backend's fixed reference
kernel with the table block it reads, and the generated C that names the same
tables (compiled only when a C compiler is installed).

Run with:  python examples/inspect_codegen.py
"""

import numpy as np

from repro import Sympiler, SympilerOptions, sparse_rhs
from repro.sparse.generators import block_tridiagonal_spd


def describe(name: str, artifact) -> None:
    """Print the loop an artifact runs, the sizes of its tables and its decisions."""
    loop = artifact.loop
    if loop is None:
        print(f"{name}: the untransformed loop over every column (no tables)")
    else:
        sizes = ", ".join(f"{k}={v}" for k, v in loop.contract[0].items())
        kind = f" [{loop.factor_kind}]" if loop.factor_kind else ""
        print(f"{name}: {loop.role}{kind}; sizes {sizes}")
    print(f"  applied: {artifact.applied_transformations}")
    for decision, details in artifact.decisions.items():
        print(f"  {decision}: {details}")


def main() -> None:
    A = block_tridiagonal_spd(6, 5, seed=11, dense_coupling=True)
    sym = Sympiler(SympilerOptions(backend="python"))

    chol = sym.compile("cholesky", A)
    L = chol.factorize(A)
    b = sparse_rhs(A.n, nnz=2, seed=5)
    tri = sym.compile("triangular-solve", L, rhs_pattern=np.nonzero(b)[0])
    baseline = SympilerOptions.baseline().with_updates(backend="python")
    untransformed = sym.compile("triangular-solve", L, options=baseline)

    print("=" * 72)
    print("1. The untransformed solve: the column loop of Figure 2a")
    print("=" * 72)
    describe("triangular solve", untransformed)

    print()
    print("=" * 72)
    print("2. The loops VS-Block / VI-Prune chose (Figures 2b-2c)")
    print("=" * 72)
    describe("triangular solve, sparse b", tri)
    describe("cholesky", chol)

    print()
    print("=" * 72)
    print("3. Python backend: one fixed kernel, specialized by the tables it is handed")
    print("=" * 72)
    print(tri.source)
    for name, table in tri.constants.items():
        print(f"{name}: {table.tolist()}")

    print("=" * 72)
    print("4. Generated C kernel")
    print("=" * 72)
    # The default options: C, or python again when no C compiler is found.
    c_tri = sym.compile("triangular-solve", L, rhs_pattern=np.nonzero(b)[0], options=SympilerOptions())
    if c_tri.backend == "c":
        print("\n".join(c_tri.source.splitlines()[:60]))
        print("...")
        x_c = c_tri.solve(L, b)
        x_py = tri.solve(L, b)
        print(f"\nmax |x_c - x_python| = {np.abs(x_c - x_py).max():.2e}")
    else:
        print("(no C compiler found on this machine; skipping C compilation)")


if __name__ == "__main__":
    main()
