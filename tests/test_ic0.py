"""End-to-end tests of the IC(0) preconditioner kernel.

Covers the symbolic layer (the no-fill inspection), the factor, both
code-generation backends (the python one bitwise against the dense
pattern-masked oracle of ``oracles.py``, the C one bitwise against the python
one), batches of value sets and the artifact protocol — the whole registry
extension of the incomplete kernel.
"""

import numpy as np
import pytest

from repro.compiler.cache import ArtifactCache
from repro.compiler.codegen.c_backend import c_compiler_available
from repro.compiler.options import SympilerOptions
from repro.compiler.registry import UnknownKernelError
from repro.compiler.sympiler import Sympiler
from repro.solvers.linear_solver import map_items
from repro.sparse.csc import CSCMatrix
from repro.sparse.generators import banded_spd, fem_stencil_2d, laplacian_2d
from repro.symbolic.inspector import IC0InspectionResult, inspect_ic0

import oracles
from oracles import lower_triangle

needs_cc = pytest.mark.skipif(
    not (c_compiler_available("cc") or c_compiler_available("gcc")),
    reason="no C compiler available",
)


def _c_options(**overrides):
    compiler = "cc" if c_compiler_available("cc") else "gcc"
    return SympilerOptions(backend="c", c_compiler=compiler, **overrides)


def _fresh_sympiler(options=SympilerOptions(backend="python")):
    """A python-backend driver with an isolated cache; a compile's own ``options=`` wins."""
    return Sympiler(options, cache=ArtifactCache())


def _spd(n_side=10, shift=0.1):
    return laplacian_2d(n_side, shift=shift)


def _pattern_residual(dense_factor_product, A):
    """Max |(factor product - A)| over the stored entries of A."""
    dense_A = A.to_dense()
    mask = np.zeros_like(dense_A, dtype=bool)
    for j in range(A.n):
        mask[A.col_rows(j), j] = True
    return float(np.abs((dense_factor_product - dense_A)[mask]).max())


class TestSymbolicIC0:
    def test_factor_pattern_is_tril_of_a(self):
        A = _spd()
        insp = inspect_ic0(A)
        assert isinstance(insp, IC0InspectionResult)
        tril = lower_triangle(A)
        np.testing.assert_array_equal(insp.l_indptr, tril.indptr)
        np.testing.assert_array_equal(insp.l_indices, tril.indices)
        assert insp.factor_nnz == tril.nnz

    def test_rows_are_update_sources(self):
        A = fem_stencil_2d(8, shift=0.25)
        insp = inspect_ic0(A)
        dense = A.to_dense() != 0
        for j in range(A.n):
            expected = [k for k in range(j) if dense[j, k]]
            np.testing.assert_array_equal(insp.row_idx[insp.row_ptr[j] : insp.row_ptr[j + 1]], expected)

    def test_missing_diagonal_raises(self):
        dense = np.array([[2.0, 0.0], [1.0, 0.0]])
        dense[1, 1] = 0.0  # structurally absent after from_dense
        A = CSCMatrix.from_dense(dense)
        with pytest.raises(ValueError, match="diagonal"):
            inspect_ic0(A)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            inspect_ic0(CSCMatrix.from_dense(np.ones((2, 3))))


def _factorize(kernel, A, backend):
    """The compiled ``kernel`` factor(s) of ``A`` on ``backend``."""
    options = _c_options() if backend == "c" else SympilerOptions(backend="python")
    return _fresh_sympiler().compile(kernel, A, options=options).factorize(A)


@pytest.mark.parametrize("backend", ["python", pytest.param("c", marks=needs_cc)])
class TestFactors:
    def test_ic0_exact_on_pattern(self, backend):
        A = _spd(11)
        L = _factorize("ic0", A, backend).to_dense()
        assert _pattern_residual(L @ L.T, A) < 1e-12

    def test_ic0_equals_exact_cholesky_when_no_fill(self, backend):
        # A banded SPD matrix with bandwidth 1 factors without fill.
        A = banded_spd(25, 1, seed=3)
        from repro.baselines.scipy_reference import reference_cholesky

        np.testing.assert_allclose(
            _factorize("ic0", A, backend).to_dense(), reference_cholesky(A), atol=1e-9
        )

    def test_ic0_breakdown_raises(self, backend):
        dense = np.array([[1.0, 2.0], [2.0, 1.0]])  # not SPD: second pivot < 0
        A = CSCMatrix.from_dense(dense)
        with pytest.raises(ValueError, match="IC\\(0\\) breakdown"):
            _factorize("ic0", A, backend)

class TestCompiledIC0Python:
    def test_bitwise_matches_the_dense_oracle(self):
        sym = _fresh_sympiler()
        for A in (_spd(), fem_stencil_2d(9, shift=0.25), banded_spd(30, 2, seed=4)):
            compiled = sym.compile("ic0", A)
            L = compiled.factorize(A)
            assert np.array_equal(L.data, oracles.on_pattern(oracles.ic0(A), L))
            assert L.pattern_equal(lower_triangle(A))

    def test_kernel_is_incomplete_factor_loop(self):
        compiled = _fresh_sympiler().compile("ic0", _spd(6))
        loop = compiled.loop
        assert loop.role == "incomplete-cholesky" and loop.factor_kind == "ic0"
        # The scatter arrays are tables of the block — no runtime pattern work.
        for name in ("a_lower_pos", "prune_ptr", "mult_pos", "l_scat_ptr"):
            assert np.array_equal(compiled.constants[f"_C_{name}"], loop.contract[1][name])

    def test_vi_prune_is_forced_and_vs_block_is_not_considered(self):
        compiled = _fresh_sympiler().compile(
            "ic0", _spd(6), options=SympilerOptions.baseline().with_updates(backend="python")
        )
        assert compiled.decisions.get("vi-prune-forced") is True
        assert "vi-prune" in compiled.applied_transformations
        # No in-block fill is allowed, so the inspection builds no tree and no
        # supernodes, and the compile records no VS-Block decision.
        default = _fresh_sympiler().compile("ic0", _spd(7))
        assert "vs-block" not in default.decisions
        assert not any(hasattr(default.inspection, name) for name in ("parent", "post", "supernodes"))

    def test_breakdown_message_names_the_column(self):
        dense = np.array([[1.0, 2.0], [2.0, 1.0]])
        A = CSCMatrix.from_dense(dense)
        compiled = _fresh_sympiler().compile("ic0", A)
        with pytest.raises(ValueError, match="non-positive pivot at column 1"):
            compiled.factorize(A)

    def test_refactorization_with_new_values(self):
        A = _spd(8)
        compiled = _fresh_sympiler().compile("ic0", A)
        L1 = compiled.factorize(A)
        A2 = A.with_values(A.data * 4.0)
        L2 = compiled.factorize(A2)
        np.testing.assert_allclose(L2.data, 2.0 * L1.data, atol=1e-12)

    def test_the_long_name_is_not_a_kernel(self):
        with pytest.raises(UnknownKernelError, match="incomplete-cholesky"):
            _fresh_sympiler().compile("incomplete-cholesky", _spd(5))


@needs_cc
class TestCompiledIncompleteC:
    def test_ic0_close_to_python_backend(self):
        A = _spd(10)
        sym = _fresh_sympiler()
        Lc = sym.compile("ic0", A, options=_c_options()).factorize(A)
        Lp = sym.compile("ic0", A, options=SympilerOptions(backend="python")).factorize(A)
        np.testing.assert_array_equal(Lc.data, Lp.data)

    def test_c_breakdown_status_becomes_value_error(self):
        A = CSCMatrix.from_dense(np.array([[1.0, 2.0], [2.0, 1.0]]))
        compiled = _fresh_sympiler().compile("ic0", A, options=_c_options())
        with pytest.raises(ValueError, match="IC\\(0\\) breakdown"):
            compiled.factorize(A)


class TestBatchIncomplete:
    @pytest.mark.parametrize("backend", ["python", pytest.param("c", marks=needs_cc)])
    def test_ic0_batch_isolates_breakdown(self, backend):
        A = _spd(6)
        options = _c_options() if backend == "c" else SympilerOptions(backend="python")
        artifact = _fresh_sympiler().compile("ic0", A, options=options)
        good = A.data.copy()
        bad = A.data.copy()
        bad[A.indptr[0]] = -5.0  # non-positive first pivot
        results, errors = map_items(
            lambda ax: artifact.factorize_arrays(A.indptr, A.indices, ax),
            [good, bad, good],
            artifact=artifact,
            num_threads=2,
        )
        assert [error is None for error in errors] == [True, False, True]
        assert "IC(0) breakdown" in str(errors[1])
        assert results[1] is None
        assert np.array_equal(
            results[0], artifact.factorize_arrays(A.indptr, A.indices, good)
        )


class TestArtifactsAndCache:
    def test_recompile_is_cache_hit(self):
        sym = _fresh_sympiler()
        A = _spd(8)
        first = sym.compile("ic0", A)
        hits = sym.cache.stats.hits
        assert sym.compile("ic0", A) is first
        assert sym.cache.stats.hits == hits + 1

    def test_pattern_mismatch_detected(self):
        from repro.compiler.artifacts import PatternMismatchError

        sym = _fresh_sympiler()
        compiled = sym.compile("ic0", _spd(8))
        other = _spd(9)
        with pytest.raises(PatternMismatchError):
            compiled.factorize(other, check_pattern=True)

    def test_is_incomplete_flags(self):
        from repro.compiler.artifacts import SympiledCholesky, SympiledIC0, SympiledLU

        assert SympiledIC0.is_incomplete
        assert not SympiledCholesky.is_incomplete and not SympiledLU.is_incomplete

    def test_generated_source_is_numeric_only(self):
        compiled = _fresh_sympiler().compile("ic0", _spd(6))
        assert compiled.source.startswith("def ic0(T, Ap, Ai, Ax):")
        assert "searchsorted" not in compiled.source  # no runtime pattern work
        for name in ("_C_l_indptr", "_C_l_scat_ptr", "_C_a_lower_pos", "_C_mult_pos"):
            assert name in compiled.constants and name in compiled.source


@pytest.mark.parametrize("backend", ["python", pytest.param("c", marks=needs_cc)])
class TestEverySPDMatrix:
    """The factor and the inspection of IC(0) on each matrix of the shared SPD set."""

    def test_factor_is_the_dense_oracle_bitwise(self, spd_matrix, backend):
        L = _factorize("ic0", spd_matrix, backend)
        assert L.pattern_equal(lower_triangle(spd_matrix))
        assert np.array_equal(L.data, oracles.on_pattern(oracles.ic0(spd_matrix), L))

    def test_compile_reads_only_the_lower_triangle(self, spd_matrix, backend):
        options = _c_options() if backend == "c" else SympilerOptions(backend="python")
        compiled = _fresh_sympiler().compile("ic0", spd_matrix, options=options)
        insp = compiled.inspection
        tril = lower_triangle(spd_matrix)
        np.testing.assert_array_equal(insp.l_indptr, tril.indptr)
        np.testing.assert_array_equal(insp.l_indices, tril.indices)
        # The row lists are the transpose of the strict lower triangle.
        dense = spd_matrix.to_dense() != 0
        for j in range(spd_matrix.n):
            expected = np.flatnonzero(dense[j, :j])
            np.testing.assert_array_equal(insp.row_idx[insp.row_ptr[j] : insp.row_ptr[j + 1]], expected)
        # No tree, postorder or supernode partition, and no VS-Block decision.
        assert not any(hasattr(insp, name) for name in ("parent", "post", "l_col_counts", "supernodes"))
        assert "vs-block" not in compiled.decisions
        assert compiled.applied_transformations == ["vi-prune"]
