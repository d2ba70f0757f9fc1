"""Seeded randomised differential suite: every compiled kernel against a dense NumPy oracle.

Random SPD, symmetric indefinite and unsymmetric patterns from
:mod:`repro.sparse.generators`; each of the six kernels (the triangular solve
with a dense and with a sparse right-hand side) on each backend, under the
option bundles, checked against what NumPy computes on the dense matrix.
The seeds are fixed, so a failure reproduces.
"""

import numpy as np
import pytest

from repro.compiler.cache import ArtifactCache
from repro.compiler.codegen.c_backend import c_compiler_available
from repro.compiler.options import SympilerOptions
from repro.compiler.sympiler import Sympiler
from repro.sparse.generators import random_spd, saddle_point_indefinite, sparse_rhs, unsymmetric_diag_dominant
from repro.sparse.ordering import minimum_degree_ordering

from oracles import cholesky_factor

SEEDS = (0, 1, 2)
CASES = ("triangular-solve", "triangular-solve/sparse-rhs", "cholesky", "ldlt", "lu", "ic0")
#: All passes / no VS-Block / nothing (VI-Prune forced back on for a factorization).
BUNDLES = (
    {},
    {"enable_vs_block": False},
    {"enable_vi_prune": False, "enable_vs_block": False},
)
BACKENDS = [
    "python",
    pytest.param("c", marks=pytest.mark.skipif(not c_compiler_available("cc"), reason="no C compiler available")),
]


def _problem(case, seed):
    """``(operand, kernel args, right-hand side or None)`` of one case, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(30, 70))
    method = case.partition("/")[0]
    if method == "lu":
        return unsymmetric_diag_dominant(n, avg_nnz_per_col=float(rng.uniform(2, 5)), seed=seed), {}, None
    if method == "ldlt":
        n_dual = int(rng.integers(5, n // 3))
        K = saddle_point_indefinite(n - n_dual, n_dual, seed=seed)
        # Quasi-definite: every symmetric order factorizes, and this one has a bushy etree.
        return minimum_degree_ordering(K).symmetric_permute(K), {}, None
    A = random_spd(n, density=float(rng.uniform(0.03, 0.12)), seed=seed)
    if method != "triangular-solve":
        return A, {}, None
    L = cholesky_factor(A)
    if case.endswith("sparse-rhs"):
        b = sparse_rhs(n, nnz=int(rng.integers(1, 4)), seed=seed)
        return L, {"rhs_pattern": np.nonzero(b)[0]}, b
    return L, {}, rng.uniform(-1.0, 1.0, n)


def _check_against_dense(case, operand, b, answer):
    """Raise unless ``answer`` is what NumPy computes on the dense operand."""
    M = operand.to_dense()
    scale = np.abs(M).max()
    close = dict(rtol=1e-9, atol=1e-11 * scale)
    method = case.partition("/")[0]
    if method == "triangular-solve":
        np.testing.assert_allclose(answer, np.linalg.solve(M, b), **close)
    elif method == "cholesky":
        np.testing.assert_allclose(answer.to_dense(), np.linalg.cholesky(M), **close)
    elif method == "ldlt":
        L = answer.L.to_dense()
        np.testing.assert_array_equal(np.diag(L), 1.0)
        np.testing.assert_allclose(L @ np.diag(answer.d) @ L.T, M, **close)
        assert (answer.d < 0).sum() > 0  # indefinite, as drawn
    else:
        L = answer.L.to_dense() if method == "lu" else answer.to_dense()
        product = L @ (answer.U.to_dense() if method == "lu" else L.T)
        # LU is exact everywhere; IC(0) is exact on the pattern of A and stores nothing off it.
        on = np.ones_like(M, dtype=bool) if method == "lu" else M != 0
        np.testing.assert_allclose(product[on], M[on], **close)
        if method != "lu":
            assert not np.any(L[np.tril(M) == 0])


def _run(artifact, operand, b):
    if b is not None:
        return artifact.solve_arrays(operand.indptr, operand.indices, operand.data, b)
    return artifact.assemble_factors(artifact.factorize_arrays(operand.indptr, operand.indices, operand.data))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", CASES)
def test_every_kernel_matches_the_dense_oracle(case, seed, backend):
    operand, kernel_args, b = _problem(case, seed)
    sym = Sympiler(cache=ArtifactCache())
    for bundle in BUNDLES:
        options = SympilerOptions(backend=backend, **bundle)
        artifact = sym.compile(case.partition("/")[0], operand, options=options, **kernel_args)
        _check_against_dense(case, operand, b, _run(artifact, operand, b))
