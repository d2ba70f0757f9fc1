"""The FLOP model behind every reported GFLOP/s (:mod:`repro.kernels.flops`).

The numeric kernels themselves are generated by :mod:`repro.compiler`; this
package keeps only the counting conventions that the paper-figure reproducer
and the end-to-end benchmark share.
"""

from repro.kernels.flops import cholesky_flops, triangular_solve_flops

__all__ = ["triangular_solve_flops", "cholesky_flops"]
