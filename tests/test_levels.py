"""Tests for the level-set schedule layer (repro.symbolic.levels).

Covers the satellite requirement: property-style tests that every computed
level set is an antichain of the kernel's dependency graph (no intra-level
edges) and that the concatenated levels pass
``DependencyGraph.is_valid_topological_order`` — for cholesky, ldlt and lu
patterns — plus the compile-time plumbing (schedules attached to inspection
results and cached with the artifact).
"""

import numpy as np
import pytest

from repro.compiler.cache import ArtifactCache
from repro.compiler.sympiler import Sympiler
from repro.sparse.generators import (
    circuit_like_spd,
    fem_stencil_2d,
    laplacian_2d,
    saddle_point_indefinite,
    unsymmetric_diag_dominant,
)
from repro.symbolic.dependency_graph import DependencyGraph
from repro.symbolic.inspector import CholeskyInspector, LDLTInspector, LUInspector
from repro.symbolic.levels import (
    ExecutionSchedule,
    dependency_graph_from_column_deps,
    level_sets_from_parent,
    schedule_from_level_array,
)


def _symmetric_cases():
    return {
        "laplacian": laplacian_2d(9, shift=0.1),
        "fem": fem_stencil_2d(7, shift=0.25),
        "circuit": circuit_like_spd(60, seed=9),
    }


def _assert_wavefront_partition(schedule: ExecutionSchedule, dg: DependencyGraph):
    """The two defining properties, checked explicitly (not via the helper)."""
    level = schedule.level_of()
    # Antichain: no dependency edge connects two members of one level.
    for j in schedule.as_order():
        for i in dg.out_neighbors(int(j)):
            i = int(i)
            if level[i] >= 0:
                assert level[i] != level[int(j)], (
                    f"edge {int(j)} -> {i} inside level {level[i]}"
                )
    # Concatenated levels are a valid topological order.
    assert dg.is_valid_topological_order(schedule.as_order())
    # And the helper agrees.
    assert schedule.validate_against(dg)


class TestFactorizationSchedules:
    @pytest.mark.parametrize("name", sorted(_symmetric_cases()))
    def test_cholesky_schedule_is_wavefront_partition(self, name):
        A = _symmetric_cases()[name]
        result = CholeskyInspector().inspect(A)
        dg = DependencyGraph.from_lower_triangular(result.l_pattern_matrix())
        _assert_wavefront_partition(result.schedule, dg)
        assert result.schedule.n_scheduled == A.n

    def test_ldlt_schedule_is_wavefront_partition(self):
        K = saddle_point_indefinite(30, 12, seed=3)
        result = LDLTInspector().inspect(K)
        dg = DependencyGraph.from_lower_triangular(result.l_pattern_matrix())
        _assert_wavefront_partition(result.schedule, dg)

    def test_lu_schedule_is_wavefront_partition(self):
        J = unsymmetric_diag_dominant(70, seed=11)
        result = LUInspector().inspect(J)
        deps = [
            result.u_indices[result.u_indptr[j] : result.u_indptr[j + 1] - 1]
            for j in range(result.n)
        ]
        dg = dependency_graph_from_column_deps(result.n, deps)
        _assert_wavefront_partition(result.schedule, dg)

    def test_exact_schedule_no_deeper_than_etree(self):
        """Exact row-pattern levels are at most as deep as etree levels."""
        A = fem_stencil_2d(8, shift=0.25)
        result = CholeskyInspector().inspect(A)
        etree_schedule = level_sets_from_parent(result.parent)
        assert result.schedule.n_levels <= etree_schedule.n_levels
        dg = DependencyGraph.from_lower_triangular(result.l_pattern_matrix())
        _assert_wavefront_partition(etree_schedule, dg)


class TestScheduleObject:
    def test_widths_and_order(self):
        level = np.array([0, 0, 1, 2, 1, 0])
        s = schedule_from_level_array(level, graph="test")
        assert s.n_levels == 3
        assert list(s.widths) == [3, 2, 1]
        assert s.max_width == 3
        assert s.average_width == pytest.approx(2.0)
        assert np.array_equal(s.level(0), [0, 1, 5])
        assert np.array_equal(s.as_order(), [0, 1, 5, 2, 4, 3])
        lo = s.level_of()
        assert lo[3] == 2 and lo[5] == 0

    def test_active_restriction_squeezes_empty_levels(self):
        level = np.array([0, 1, 2, 3])
        s = schedule_from_level_array(level, active=np.array([0, 3]))
        assert s.n_scheduled == 2
        assert s.n_levels == 2  # empty middle levels squeezed
        assert s.level_of()[1] == -1

    def test_level_out_of_range(self):
        s = schedule_from_level_array(np.zeros(3, dtype=np.int64))
        with pytest.raises(IndexError):
            s.level(1)

    def test_validate_against_rejects_bad_partition(self):
        # Chain 0 -> 1: putting both in level 0 is not an antichain.
        dg = DependencyGraph(2, np.array([0, 1, 1]), np.array([1]))
        bogus = schedule_from_level_array(np.array([0, 0]))
        assert not bogus.validate_against(dg)


class TestCompileTimePlumbing:
    def test_artifact_exposes_cached_schedule(self):
        sym = Sympiler(cache=ArtifactCache())
        A = laplacian_2d(6, shift=0.1)
        artifact = sym.compile("cholesky", A)
        assert isinstance(artifact.schedule, ExecutionSchedule)
        # A cache hit returns the very same schedule object — the schedule is
        # compile-time state keyed by the pattern fingerprint.
        again = sym.compile("cholesky", A)
        assert again.schedule is artifact.schedule


def test_symbolic_inspector_imports_standalone():
    """The symbolic layer imports on its own in a fresh interpreter.

    The inspectors import the level schedule, and the compiler imports the
    inspectors; a module of the symbolic layer that imported the compiler or
    the solvers back would recurse (inspector -> ... -> compiler artifacts ->
    inspector) and die at import time.  Guard the discipline.
    """
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-c", "import repro.symbolic.inspector"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
