"""Reference numeric kernels.

Interpreted implementations of the algorithms the compiler specialises, each
the single implementation of its algorithm and each a test oracle for the
compiled path:

* dense micro-kernels (:mod:`repro.kernels.dense`) used inside supernodal
  code,
* simplicial and supernodal sparse Cholesky (:mod:`repro.kernels.cholesky`),
  LDLᵀ (:mod:`repro.kernels.ldlt`), LU (:mod:`repro.kernels.lu`) and the
  no-fill IC(0) / ILU(0) (:mod:`repro.kernels.incomplete`),
* FLOP-counting helpers (:mod:`repro.kernels.flops`) used to report GFLOP/s
  the same way for every variant.
"""

from repro.kernels.cholesky import (
    cholesky_left_looking,
    cholesky_supernodal,
)
from repro.kernels.dense import (
    dense_cholesky,
    dense_ldlt,
    dense_lower_solve,
    dense_solve_transposed_right,
    small_cholesky,
)
from repro.kernels.flops import cholesky_flops, gflops, triangular_solve_flops
from repro.kernels.incomplete import ic0_left_looking, ilu0_left_looking
from repro.kernels.ldlt import LDLTFactors, ldlt_left_looking
from repro.kernels.lu import LUFactors, lu_left_looking

__all__ = [
    "dense_cholesky",
    "dense_lower_solve",
    "dense_solve_transposed_right",
    "small_cholesky",
    "cholesky_left_looking",
    "cholesky_supernodal",
    "dense_ldlt",
    "ldlt_left_looking",
    "LDLTFactors",
    "lu_left_looking",
    "LUFactors",
    "ic0_left_looking",
    "ilu0_left_looking",
    "triangular_solve_flops",
    "cholesky_flops",
    "gflops",
]
