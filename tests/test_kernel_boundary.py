"""Every numeric call checks the lengths of its arrays before a kernel runs.

A generated kernel trusts the sizes in its table block (``n``, the number of
stored entries), so an index or value array of another length would be read
or written past its end.  ``solve_arrays`` / ``factorize_arrays`` — which
every solver, the runtime and the service go through — compare each array
with the compile-time operand and raise the same ``ValueError`` on every
backend.
"""

import numpy as np
import pytest

from repro.compiler.cache import ArtifactCache
from repro.compiler.codegen.c_backend import c_compiler_available
from repro.compiler.options import SympilerOptions
from repro.compiler.sympiler import Sympiler
from repro.sparse.generators import laplacian_2d

needs_cc = pytest.mark.skipif(not c_compiler_available("cc"), reason="no C compiler available")
BACKENDS = {
    "python": {"backend": "python"},
    "c": {"backend": "c"},
    "c-simplicial": {"backend": "c", "enable_vs_block": False},
}
BACKEND_IDS = [pytest.param(name, marks=() if name == "python" else needs_cc) for name in BACKENDS]


def _compile(method, operand, backend):
    return Sympiler(cache=ArtifactCache()).compile(method, operand, options=SympilerOptions(**BACKENDS[backend]))


def _shortened(arrays, argument):
    """``arrays`` with ``argument`` three entries short, and the message that refuses it."""
    expected = len(arrays[argument])
    arrays = dict(arrays, **{argument: arrays[argument][:-3]})
    return arrays, rf"^{argument} has length {expected - 3}, expected {expected}$"


@pytest.mark.parametrize("backend", BACKEND_IDS)
@pytest.mark.parametrize("argument", ["Lp", "Li", "Lx", "b"])
def test_triangular_solve_refuses_a_wrong_length(argument, backend):
    A = laplacian_2d(8)
    L = Sympiler(cache=ArtifactCache()).compile("cholesky", A).factorize(A)
    solve = _compile("triangular-solve", L, backend)
    arrays = {"Lp": L.indptr, "Li": L.indices, "Lx": L.data, "b": np.ones(L.n)}
    x = solve.solve_arrays(*arrays.values())
    np.testing.assert_allclose(L.matvec(x), np.ones(L.n), atol=1e-12)
    arrays, refusal = _shortened(arrays, argument)
    with pytest.raises(ValueError, match=refusal):
        solve.solve_arrays(*arrays.values())


def test_the_example_short_right_hand_side():
    A = laplacian_2d(8)
    L = Sympiler(cache=ArtifactCache()).compile("cholesky", A).factorize(A)
    solve = _compile("triangular-solve", L, "python")
    with pytest.raises(ValueError, match=r"^b has length 61, expected 64$"):
        solve.solve_arrays(L.indptr, L.indices, L.data, np.ones(61))


@pytest.mark.parametrize("backend", BACKEND_IDS)
@pytest.mark.parametrize("argument", ["Ap", "Ai", "Ax"])
@pytest.mark.parametrize("method", ["cholesky", "ldlt", "lu", "ic0", "ilu0"])
def test_factorization_refuses_a_wrong_length(method, argument, backend):
    A = laplacian_2d(6, shift=0.1)
    factorization = _compile(method, A, backend)
    arrays = {"Ap": A.indptr, "Ai": A.indices, "Ax": A.data}
    factorization.factorize_arrays(*arrays.values())
    arrays, refusal = _shortened(arrays, argument)
    with pytest.raises(ValueError, match=refusal):
        factorization.factorize_arrays(*arrays.values())
