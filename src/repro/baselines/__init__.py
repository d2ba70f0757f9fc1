"""Interpreted models of the library baselines the paper compares against.

Two baselines are modelled after the libraries used in the paper's
evaluation (§4).  Both are interpreted Python: their timings are comparable
with code generated by the **python** backend only (``repro.bench`` times the
C backend against native scipy instead), and tests use them as independent
reference implementations.

* :mod:`repro.baselines.eigen_like` — an Eigen-style simplicial (non-
  supernodal) left-looking Cholesky and the Figure 1(c) triangular solve.
  Symbolic work (etree row-pattern reach, transposing ``A``) happens inside
  the numeric phase, exactly the coupling the paper criticizes.
* :mod:`repro.baselines.cholmod_like` — a CHOLMOD-style supernodal
  left-looking Cholesky with BLAS(NumPy)-backed dense panels and a generic,
  pattern-agnostic driver.

:mod:`repro.baselines.scipy_reference` provides independent correctness
oracles built on NumPy/SciPy dense routines.
"""

from repro.baselines.cholmod_like import (
    CholmodLikeFactorization,
    cholmod_like_factorize,
    cholmod_like_numeric,
    cholmod_like_symbolic,
)
from repro.baselines.eigen_like import (
    EigenLikeFactorization,
    eigen_like_factorize,
    eigen_like_numeric,
    eigen_like_symbolic,
    eigen_like_trisolve,
)
from repro.baselines.scipy_reference import (
    reference_cholesky,
    reference_solve,
    reference_trisolve,
)

__all__ = [
    "eigen_like_symbolic",
    "eigen_like_numeric",
    "eigen_like_factorize",
    "eigen_like_trisolve",
    "EigenLikeFactorization",
    "cholmod_like_symbolic",
    "cholmod_like_numeric",
    "cholmod_like_factorize",
    "CholmodLikeFactorization",
    "reference_cholesky",
    "reference_trisolve",
    "reference_solve",
]
