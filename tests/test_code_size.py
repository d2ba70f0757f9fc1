"""Generated C is O(code): its size is a constant of the code shape.

Every inspection set reaches the kernel as a run-time table and every size as
a run-time scalar, so no generated source may grow with the pattern, and two
patterns that lower to the same code must produce the same bytes (which is
what lets them share one ``.so``).  The python backend generates nothing: its
source is the text of a fixed reference kernel over the same tables.
"""

import re

import numpy as np
import pytest

from repro.compiler.cache import ArtifactCache
from repro.compiler.codegen.c_backend import c_compiler_available, disk_cache_stats
from repro.compiler.options import SympilerOptions
from repro.compiler.registry import registered_kernels
from repro.compiler.sympiler import Sympiler
from repro.frontend import SpecializedSolver
from repro.solvers.linear_solver import backward_factor
from repro.sparse import generators as g
from repro.symbolic.inspector import inspect_cholesky, inspect_lu

pytestmark = pytest.mark.skipif(
    not c_compiler_available("cc"), reason="no C compiler available"
)

MATRICES = {
    "laplacian_2d": lambda: g.laplacian_2d(14),
    "laplacian_3d": lambda: g.laplacian_3d(6),
    "fem_stencil_2d": lambda: g.fem_stencil_2d(10),
    "banded_spd": lambda: g.banded_spd(180, 5, seed=1),
    "block_tridiagonal_spd": lambda: g.block_tridiagonal_spd(20, 6, seed=2),
    "circuit_like_spd": lambda: g.circuit_like_spd(200, seed=3),
    "arrow_spd": lambda: g.arrow_spd(150, 3, seed=4),
    "saddle_point_indefinite": lambda: g.saddle_point_indefinite(120, 40, seed=5),
    "unsymmetric_diag_dominant": lambda: g.unsymmetric_diag_dominant(160, seed=6),
}
KERNELS = list(registered_kernels())
MAX_SOURCE_BYTES = 64 * 1024
MAX_INITIALISER_LITERALS = 64


def _compile(kernel, A, options):
    """Compile ``kernel`` for the pattern of ``A`` (symbolic only: no values needed)."""
    sym = Sympiler(cache=ArtifactCache())
    if kernel != "triangular-solve":
        return sym.compile(kernel, A, options=options)
    # The triangular solve runs on a factor pattern: the one the symbolic
    # analysis of A predicts (L of LU when A is not symmetric).
    inspect = inspect_cholesky if A.pattern_equal(A.transpose()) else inspect_lu
    L = inspect(A).l_pattern_matrix()
    return sym.compile(kernel, L, options=options)


def test_every_registered_c_kernel_is_covered():
    assert KERNELS == ["cholesky", "ic0", "ldlt", "lu", "triangular-solve"]


@pytest.mark.parametrize("parallel", ["none", "wavefront"])
@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("matrix", sorted(MATRICES))
def test_source_size_does_not_follow_the_pattern(matrix, kernel, parallel):
    artifact = _compile(kernel, MATRICES[matrix](), SympilerOptions(backend="c", parallel=parallel))
    source = artifact.source
    assert len(source) <= MAX_SOURCE_BYTES
    assert "static const int64_t" not in source
    for initialiser in re.findall(r"\{[\s\d,+-]*\}", source):  # a brace list of integers
        assert len(re.findall(r"\d+", initialiser)) <= MAX_INITIALISER_LITERALS, initialiser[:80]


@pytest.mark.parametrize("backend", ["c", "python"])
@pytest.mark.parametrize("kernel", KERNELS)
def test_same_code_shape_gives_the_same_bytes(kernel, backend):
    """No literal of the pattern is left."""
    options = SympilerOptions(backend=backend)
    small = _compile(kernel, g.laplacian_2d(12), options)
    large = _compile(kernel, g.laplacian_2d(40), options)
    assert small.source == large.source
    assert small.inspection.n != large.inspection.n
    if backend == "c":
        assert small.module.shared_object == large.module.shared_object
    else:
        assert len(small.source) < 6 * 1024  # one function, not a module per pattern


def test_every_triangular_solve_is_one_shared_object():
    """Source is a function of (kernel, options, code shape): both sweeps of
    every pattern, blocked or not, are the one table-driven segment loop."""
    artifacts = []
    for build in MATRICES.values():
        A = build()
        if A.pattern_equal(A.transpose()):
            L, U = inspect_cholesky(A).l_pattern_matrix(), None
        else:
            inspection = inspect_lu(A)
            L, U = inspection.l_pattern_matrix(), inspection.u_pattern_matrix()
        for operand in (L, backward_factor(L, U)):
            artifacts.append(
                Sympiler(cache=ArtifactCache()).compile(
                    "triangular-solve", operand, options=SympilerOptions(backend="c")
                )
            )
    assert len(artifacts) == 2 * len(MATRICES)
    assert len({a.source for a in artifacts}) == 1
    assert len({a.module.shared_object for a in artifacts}) == 1
    # Not vacuous: the patterns differ in what the passes made of them.
    assert len({"vs-block" in a.applied_transformations for a in artifacts}) == 2


def test_shared_objects_follow_the_routes_not_the_patterns(monkeypatch, tmp_path):
    """Twelve patterns over all three direct routes cold-compile at most four
    kernels (two Cholesky shapes, LDL^T, LU: each solves through its own
    module's solve entry), and one more pattern of a route already taken
    compiles nothing."""
    monkeypatch.setenv("REPRO_SYMPILER_CACHE", str(tmp_path))
    zoo = [
        g.laplacian_2d(10),
        g.saddle_point_indefinite(90, 30, seed=11),
        g.unsymmetric_diag_dominant(65, seed=12),
        g.laplacian_3d(4),
        g.fem_stencil_2d(7),
        g.banded_spd(150, 6, seed=3),
        g.block_tridiagonal_spd(12, 8, seed=4),
        g.circuit_like_spd(150, seed=5),
        g.power_grid_spd(200, seed=6),
        g.random_spd(80, 0.04, seed=7),
        g.arrow_spd(200, 4, seed=8),
        g.random_spd(120, 0.02, seed=9),
    ]
    front = SpecializedSolver(options=SympilerOptions(backend="c"))
    before = disk_cache_stats().compiles

    def solve(A):
        b = np.ones(A.n)
        assert np.linalg.norm(A.matvec(front.solve(A, b)) - b) <= 1e-9 * np.sqrt(A.n)

    for A in zoo:
        solve(A)
    assert front.stats.methods == {"cholesky": 10, "ldlt": 1, "lu": 1}
    compiles = disk_cache_stats().compiles - before
    assert 0 < compiles <= 4
    assert len(list(tmp_path.glob("*.so"))) == compiles
    solve(g.laplacian_2d(11))
    assert disk_cache_stats().compiles - before == compiles

