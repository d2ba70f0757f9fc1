"""The four Fig. 1 triangular-solve variants, as option bundles of the compiled kernel.

Fig. 1 contrasts a solve over every column (``baseline``), one over the
reach-set only (VI-Prune), one over supernodal blocks (VS-Block) and one with
both.  Here each is the compiled ``triangular-solve`` kernel under one
:class:`SympilerOptions` bundle, checked against the dense reference.
"""

import numpy as np
import pytest

from repro.baselines.scipy_reference import reference_trisolve
from repro.compiler.options import SympilerOptions
from repro.compiler.sympiler import Sympiler
from repro.sparse.csc import CSCMatrix
from repro.sparse.generators import sparse_rhs

VARIANTS = {
    "baseline": SympilerOptions.baseline(),
    "vi-prune": SympilerOptions(enable_vs_block=False),
    "vs-block": SympilerOptions(enable_vi_prune=False),
    "all": SympilerOptions(),
}


@pytest.fixture(params=["laplacian_2d", "fem", "banded", "block", "circuit", "arrow"])
def factor(request, lower_factors):
    return lower_factors[request.param]


def _solve(L, b, variant, *, dense=False):
    """``L x = b`` by the kernel of ``variant`` compiled for ``b``'s pattern (or a dense one)."""
    rhs_pattern = None if dense else np.nonzero(b)[0]
    compiled = Sympiler().compile(
        "triangular-solve", L, rhs_pattern=rhs_pattern, options=VARIANTS[variant]
    )
    return compiled.solve(L, b)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_sparse_rhs_matches_reference(factor, variant):
    b = sparse_rhs(factor.n, density=0.05, seed=4)
    np.testing.assert_allclose(_solve(factor, b, variant), reference_trisolve(factor, b), atol=1e-9)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_dense_rhs_matches_reference(lower_factors, variant, rng):
    for L in lower_factors.values():
        b = rng.normal(size=L.n)
        np.testing.assert_allclose(
            _solve(L, b, variant, dense=True), reference_trisolve(L, b), atol=1e-9
        )


def test_solution_is_zero_outside_reach(factor):
    b = sparse_rhs(factor.n, nnz=1, seed=8)
    compiled = Sympiler().compile(
        "triangular-solve", factor, rhs_pattern=np.nonzero(b)[0], options=VARIANTS["vi-prune"]
    )
    x = compiled.solve(factor, b)
    outside = np.setdiff1d(np.arange(factor.n), compiled.inspection.reach_sorted)
    assert outside.size + compiled.reach_size == factor.n
    np.testing.assert_array_equal(x[outside], 0.0)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_identity_solve(variant):
    I = CSCMatrix.identity(4)
    b = np.array([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(_solve(I, b, variant), b)


def test_non_square_rejected():
    rect = CSCMatrix.from_dense(np.tril(np.ones((3, 2))))
    with pytest.raises(ValueError, match="square"):
        Sympiler().compile("triangular-solve", rect)


def test_upper_triangular_rejected():
    U = CSCMatrix.from_dense(np.triu(np.ones((3, 3))))
    with pytest.raises(ValueError, match="lower-triangular"):
        Sympiler().compile("triangular-solve", U)


@pytest.mark.parametrize("backend", ["python", "c"])
def test_missing_diagonal_rejected(backend):
    """Column 1 stores only row 2: its first entry is not a pivot, so no kernel is built."""
    L = CSCMatrix.from_dense(np.array([[2.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 3.0, 4.0]]))
    assert L.col_rows(1).tolist() == [2]
    with pytest.raises(ValueError, match="stored diagonal; column 1 of L has none"):
        Sympiler().compile("triangular-solve", L, options=SympilerOptions(backend=backend))
