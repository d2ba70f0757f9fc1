"""The benchmark matrix suite (Table 2 analogue).

The paper evaluates on eleven SPD matrices from the SuiteSparse collection
(13.7k–1M rows).  Those matrices are not available offline and full-scale
pure-Python factorizations would be impractical, so this suite provides
synthetic matrices of the same structural *classes* — structural mechanics
with large supernodes, FEM stencils, thermal/parabolic 3-D problems,
irregular circuit-like networks and large 2-D grids — scaled down so every
experiment runs in seconds.  Matrices are listed in the same order and with
the same role as Table 2.

Each entry records the generator, the fill-reducing ordering applied before
factorization and a short description of the SuiteSparse matrix it stands in
for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from repro.sparse.csc import CSCMatrix
from repro.sparse.generators import (
    block_tridiagonal_spd,
    circuit_like_spd,
    fem_stencil_2d,
    laplacian_2d,
    laplacian_3d,
)
from repro.sparse.ordering import ordering_by_name

__all__ = [
    "SuiteEntry",
    "build_suite",
    "small_suite",
    "load_suite_matrix",
]


@dataclass(frozen=True)
class SuiteEntry:
    """One matrix of the benchmark suite."""

    problem_id: int
    name: str
    stands_in_for: str
    domain: str
    generator: Callable[[], CSCMatrix]
    ordering: str = "mindeg"

    def build(self) -> CSCMatrix:
        """Generate the (un-permuted) matrix."""
        return self.generator()


def build_suite() -> List[SuiteEntry]:
    """The eleven-matrix suite mirroring Table 2."""
    return [
        SuiteEntry(
            1,
            "s_cbuckle",
            "cbuckle",
            "structural (shell buckling): dense block couplings, large supernodes",
            lambda: block_tridiagonal_spd(36, 14, seed=101, dense_coupling=True),
            ordering="natural",
        ),
        SuiteEntry(
            2,
            "s_pres_poisson",
            "Pres_Poisson",
            "pressure Poisson FEM discretization",
            lambda: fem_stencil_2d(24, 24, shift=0.5),
            ordering="mindeg",
        ),
        SuiteEntry(
            3,
            "s_gyro",
            "gyro",
            "MEMS gyroscope model: irregular connectivity, small supernodes",
            lambda: circuit_like_spd(700, avg_degree=5.0, hub_fraction=0.01, seed=102),
            ordering="rcm",
        ),
        SuiteEntry(
            4,
            "s_gyro_k",
            "gyro_k",
            "MEMS gyroscope stiffness matrix variant",
            lambda: circuit_like_spd(700, avg_degree=5.0, hub_fraction=0.02, seed=103),
            ordering="rcm",
        ),
        SuiteEntry(
            5,
            "s_dubcova2",
            "Dubcova2",
            "2-D PDE finite-element mesh",
            lambda: fem_stencil_2d(30, 30, shift=0.25),
            ordering="rcm",
        ),
        SuiteEntry(
            6,
            "s_msc23052",
            "msc23052",
            "structural mechanics, banded with moderate dense blocks",
            lambda: block_tridiagonal_spd(30, 26, seed=104, dense_coupling=True),
            ordering="natural",
        ),
        SuiteEntry(
            7,
            "s_thermomech",
            "thermomech_dM",
            "thermo-mechanical 3-D coupling, small supernodes",
            lambda: laplacian_3d(9, 9, 9, shift=0.5),
            ordering="rcm",
        ),
        SuiteEntry(
            8,
            "s_dubcova3",
            "Dubcova3",
            "larger 2-D PDE finite-element mesh",
            lambda: fem_stencil_2d(38, 38, shift=0.25),
            ordering="mindeg",
        ),
        SuiteEntry(
            9,
            "s_parabolic_fem",
            "parabolic_fem",
            "parabolic (diffusion) FEM problem on a 2-D grid",
            lambda: laplacian_2d(38, 38, shift=0.25),
            ordering="mindeg",
        ),
        SuiteEntry(
            10,
            "s_ecology2",
            "ecology2",
            "2-D 5-point grid (ecological circuit model)",
            lambda: laplacian_2d(45, 45, shift=0.1),
            ordering="mindeg",
        ),
        SuiteEntry(
            11,
            "s_tmt_sym",
            "tmt_sym",
            "2-D electromagnetics grid",
            lambda: laplacian_2d(50, 50, shift=0.1),
            ordering="mindeg",
        ),
    ]


def small_suite() -> List[SuiteEntry]:
    """A four-matrix subset used by fast tests and smoke benchmarks."""
    return [
        SuiteEntry(
            1,
            "t_block",
            "cbuckle (tiny)",
            "block structural test matrix",
            lambda: block_tridiagonal_spd(8, 6, seed=11),
            ordering="natural",
        ),
        SuiteEntry(
            2,
            "t_fem",
            "Dubcova (tiny)",
            "FEM stencil test matrix",
            lambda: fem_stencil_2d(10, 10, shift=0.25),
            ordering="mindeg",
        ),
        SuiteEntry(
            3,
            "t_grid",
            "ecology2 (tiny)",
            "2-D grid test matrix",
            lambda: laplacian_2d(12, 12, shift=0.1),
            ordering="rcm",
        ),
        SuiteEntry(
            4,
            "t_circuit",
            "gyro (tiny)",
            "irregular network test matrix",
            lambda: circuit_like_spd(120, seed=12),
            ordering="rcm",
        ),
    ]


def load_suite_matrix(entry: SuiteEntry, *, permute: bool = True) -> CSCMatrix:
    """Build the matrix of a suite entry.

    With ``permute=True`` the entry's fill-reducing ordering is applied
    symmetrically, which is what every experiment operates on.
    """
    A = entry.build()
    if permute and entry.ordering != "natural":
        perm = ordering_by_name(entry.ordering)(A)
        A = perm.symmetric_permute(A)
    return A
