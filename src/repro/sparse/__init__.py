"""Sparse-matrix substrate for the Sympiler reproduction.

This package provides the compressed sparse containers, synthetic matrix
generators, orderings and permutations that both the symbolic-analysis layer
(:mod:`repro.symbolic`) and the code generator (:mod:`repro.compiler`) are
built on.  The central container is :class:`repro.sparse.csc.CSCMatrix`, the
compressed-sparse-column format used throughout the paper; COO triplets
(:class:`~repro.sparse.coo.COOMatrix`) are the assembly format.  Other forms
— scipy matrices, dense arrays — enter through :mod:`repro.frontend.ingest`.
"""

from repro.sparse.coo import COOMatrix, TripletBuilder
from repro.sparse.csc import CSCMatrix
from repro.sparse.generators import (
    arrow_spd,
    banded_spd,
    block_tridiagonal_spd,
    circuit_like_spd,
    fem_stencil_2d,
    laplacian_2d,
    laplacian_3d,
    power_grid_spd,
    random_spd,
    saddle_point_indefinite,
    sparse_rhs,
    unsymmetric_diag_dominant,
)
from repro.sparse.ordering import (
    minimum_degree_ordering,
    natural_ordering,
    reverse_cuthill_mckee,
)
from repro.sparse.permutation import Permutation
from repro.sparse.utils import symmetrize_pattern

__all__ = [
    "CSCMatrix",
    "COOMatrix",
    "TripletBuilder",
    "Permutation",
    "minimum_degree_ordering",
    "reverse_cuthill_mckee",
    "natural_ordering",
    "laplacian_2d",
    "laplacian_3d",
    "fem_stencil_2d",
    "banded_spd",
    "block_tridiagonal_spd",
    "arrow_spd",
    "random_spd",
    "circuit_like_spd",
    "power_grid_spd",
    "saddle_point_indefinite",
    "unsymmetric_diag_dominant",
    "sparse_rhs",
    "symmetrize_pattern",
]
