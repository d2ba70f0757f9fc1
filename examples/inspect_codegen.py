"""Look inside the compiler: AST, transformations and generated code.

Walks through the stages of Figure 2 of the paper on a small matrix with
large supernodes: the lowered (annotated) AST, the AST after the
inspector-guided transformations, the decisions taken by the participation
heuristics, and what each backend runs: the python backend's fixed reference
kernel with the table block it reads, and the generated C that names the same
tables (compiled only when a C compiler is installed).

Run with:  python examples/inspect_codegen.py
"""

import numpy as np

from repro import Sympiler, SympilerOptions, sparse_rhs
from repro.compiler.ast import pretty
from repro.compiler.codegen.c_backend import c_compiler_available
from repro.compiler.lowering import lower_triangular_solve
from repro.sparse.generators import block_tridiagonal_spd


def main() -> None:
    A = block_tridiagonal_spd(6, 5, seed=11, dense_coupling=True)
    sym = Sympiler()

    print("=" * 72)
    print("1. Initial lowered AST for the triangular solve (Figure 2a)")
    print("=" * 72)
    print(pretty(lower_triangular_solve()))

    chol = sym.compile_cholesky(A)
    L = chol.factorize(A)
    b = sparse_rhs(A.n, nnz=2, seed=5)
    tri = sym.compile_triangular_solve(L, rhs_pattern=np.nonzero(b)[0])

    print()
    print("=" * 72)
    print("2. Transformed AST after VS-Block / VI-Prune / low-level passes")
    print("=" * 72)
    # One line per domain loop: its role and the sizes of its table contract.
    print(pretty(tri.kernel))
    print(pretty(chol.kernel))
    print()
    print("applied transformations:", tri.applied_transformations)
    print("VS-Block participation decision:", tri.decisions.get("vs-block"))

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
    if c_compiler_available("cc") or c_compiler_available("gcc"):
        compiler = "cc" if c_compiler_available("cc") else "gcc"
        c_tri = sym.compile_triangular_solve(
            L,
            rhs_pattern=np.nonzero(b)[0],
            options=SympilerOptions(backend="c", c_compiler=compiler),
        )
        print("\n".join(c_tri.source.splitlines()[:60]))
        print("...")
        x_c = c_tri.solve(L, b)
        x_py = tri.solve(L, b)
        print(f"\nmax |x_c - x_python| = {np.abs(x_c - x_py).max():.2e}")
    else:
        print("(no C compiler found on this machine; skipping C compilation)")


if __name__ == "__main__":
    main()
