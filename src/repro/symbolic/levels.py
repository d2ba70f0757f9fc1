"""Level-set (wavefront) schedules over compiled-kernel dependency structure.

A left-looking sparse kernel executes one column at a time, but its true
ordering constraint is only the column dependency DAG: column ``j`` must wait
for exactly the columns whose values it consumes.  Partitioning the DAG into
*level sets* (wavefronts) — level 0 holds the columns with no dependencies,
level ``l`` the columns all of whose dependencies live in levels ``< l`` —
yields a schedule whose levels are antichains: every column inside one level
may execute concurrently.

This module computes those partitions from the symbolic structures the
factorization inspectors already produce:

* the elimination tree (``parent`` vector) — a conservative wavefront for the
  factorizations, since ``L[j, k] != 0`` implies ``j`` is an etree ancestor
  of ``k``,
* exact per-column dependency lists (the Cholesky/LDLᵀ row patterns, the LU
  above-diagonal ``U`` patterns).

The inspectors attach the resulting :class:`ExecutionSchedule` to their
inspection results at compile time, so it is cached under the same pattern
fingerprint as the generated code and costs nothing on the numeric path.  A
schedule is checked against a
:class:`~repro.symbolic.dependency_graph.DependencyGraph` with
:meth:`ExecutionSchedule.validate_against`.

The per-vertex level of each of the two structures is one sequential sweep;
it runs in the native helper (:mod:`repro.symbolic.native`) when that is
loaded and in the ``*_levels_reference`` functions here otherwise.  Both give
the same array, and the bucketing into a schedule is shared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.observe.trace import span
from repro.symbolic import native
from repro.symbolic.dependency_graph import DependencyGraph

__all__ = [
    "ExecutionSchedule",
    "schedule_from_level_array",
    "level_sets_from_parent",
    "level_sets_from_csr_deps",
    "dependency_graph_from_column_deps",
]


@dataclass(frozen=True)
class ExecutionSchedule:
    """A level-set partition of the columns of one compiled kernel.

    Attributes
    ----------
    n:
        Number of vertices (columns) of the underlying kernel.  Vertices
        outside the schedule (see ``active`` of
        :func:`schedule_from_level_array`) simply appear in no level.
    order:
        Every scheduled vertex, level by level (ascending vertex order inside
        each level — a deterministic, valid sequential execution order).
    level_ptr:
        CSR-style level boundaries: level ``l`` is
        ``order[level_ptr[l]:level_ptr[l + 1]]``.
    graph:
        Human-readable name of the dependency structure the schedule was
        computed on (``"etree"``, ``"SP(L row)"``, ...).
    """

    n: int
    order: np.ndarray
    level_ptr: np.ndarray
    graph: str = ""

    # ------------------------------------------------------------------ #
    @property
    def n_levels(self) -> int:
        """Number of wavefronts (the critical-path length in columns)."""
        return int(self.level_ptr.size - 1)

    @property
    def n_scheduled(self) -> int:
        """Number of vertices the schedule covers."""
        return int(self.order.size)

    @property
    def widths(self) -> np.ndarray:
        """Vertices per level."""
        return np.diff(self.level_ptr)

    @property
    def max_width(self) -> int:
        """Widest wavefront (peak exploitable parallelism)."""
        return int(self.widths.max()) if self.n_levels else 0

    @property
    def average_width(self) -> float:
        """Mean wavefront width (average exploitable parallelism)."""
        return self.n_scheduled / self.n_levels if self.n_levels else 0.0

    def level(self, l: int) -> np.ndarray:
        """The vertices of level ``l``."""
        if not (0 <= l < self.n_levels):
            raise IndexError(f"level {l} out of range [0, {self.n_levels})")
        return self.order[self.level_ptr[l] : self.level_ptr[l + 1]]

    def levels(self) -> List[np.ndarray]:
        """Every level as a list of index arrays."""
        return [self.level(l) for l in range(self.n_levels)]

    def as_order(self) -> np.ndarray:
        """The concatenated levels — a valid sequential execution order."""
        return self.order

    def level_of(self) -> np.ndarray:
        """Per-vertex level (``-1`` for vertices outside the schedule)."""
        level = np.full(self.n, -1, dtype=np.int64)
        for l in range(self.n_levels):
            level[self.level(l)] = l
        return level

    # ------------------------------------------------------------------ #
    def validate_against(self, graph: DependencyGraph) -> bool:
        """True when the schedule is a legal wavefront partition of ``graph``.

        Checks the two defining properties: every level is an antichain of
        the dependency graph (no edge between two members of one level), and
        the concatenation of the levels is a valid topological order.
        """
        level = self.level_of()
        for j in self.order:
            for i in graph.out_neighbors(int(j)):
                i = int(i)
                if level[i] >= 0 and level[i] == level[j]:
                    return False  # intra-level edge: not an antichain
        return graph.is_valid_topological_order(self.order)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"ExecutionSchedule(n={self.n}, levels={self.n_levels}, "
            f"avg_width={self.average_width:.1f}, graph={self.graph!r})"
        )


# --------------------------------------------------------------------------- #
# Constructors
# --------------------------------------------------------------------------- #
def schedule_from_level_array(
    level: np.ndarray, *, graph: str = "", active: Optional[np.ndarray] = None
) -> ExecutionSchedule:
    """Bucket a per-vertex level assignment into an :class:`ExecutionSchedule`.

    ``level[j]`` is vertex ``j``'s wavefront; ``active`` optionally restricts
    the schedule to a subset of vertices — inactive vertices appear in no
    level.  Empty levels (possible after
    restriction) are squeezed out, and vertices inside a level are sorted, so
    equal inputs always produce the identical schedule.
    """
    level = np.asarray(level, dtype=np.int64)
    n = int(level.size)
    if active is None:
        vertices = np.arange(n, dtype=np.int64)
    else:
        vertices = np.unique(np.asarray(active, dtype=np.int64))
    lv = level[vertices]
    # Stable sort by (level, vertex): levels stay contiguous, members sorted.
    perm = np.lexsort((vertices, lv))
    order = vertices[perm]
    if order.size == 0:
        # No scheduled vertices means no levels (not one empty level).
        return ExecutionSchedule(
            n=n, order=order, level_ptr=np.zeros(1, dtype=np.int64), graph=graph
        )
    sorted_levels = lv[perm]
    boundaries = np.nonzero(np.diff(sorted_levels))[0] + 1
    level_ptr = np.concatenate(
        ([0], boundaries, [order.size])
    ).astype(np.int64)
    return ExecutionSchedule(n=n, order=order, level_ptr=level_ptr, graph=graph)


def level_sets_from_parent(parent: np.ndarray, *, graph: str = "etree") -> ExecutionSchedule:
    """Wavefronts of an elimination tree (leaves first).

    ``level[j] = 1 + max(level of children of j)`` — a conservative schedule
    for the left-looking factorizations, valid because every update source
    ``k`` of column ``j`` (``L[j, k] != 0``) has ``j`` as a proper etree
    ancestor, hence a strictly smaller level.
    """
    with span("schedule", graph=graph):
        parent = np.asarray(parent, dtype=np.int64)
        lib = native.helper()
        level = parent_levels_reference(parent) if lib is None else lib.levels_from_parent(parent)
        return schedule_from_level_array(level, graph=graph)


def parent_levels_reference(parent: np.ndarray) -> np.ndarray:
    """Per-node level of an elimination tree, in Python."""
    level = np.zeros(parent.size, dtype=np.int64)
    for j in range(parent.size):  # parent[j] > j, so children are processed first
        p = parent[j]
        if p >= 0:
            level[p] = max(level[p], level[j] + 1)
    return level


def level_sets_from_csr_deps(
    dep_ptr: np.ndarray, dep_idx: np.ndarray, *, graph: str = "column-deps"
) -> ExecutionSchedule:
    """Wavefronts from exact per-column dependency lists, in CSR form.

    Column ``j`` depends on ``dep_idx[dep_ptr[j]:dep_ptr[j + 1]]``, the
    columns ``k < j`` whose values it consumes — the Cholesky/LDLᵀ row
    patterns (``L[j, k] != 0``) or the LU above-diagonal ``U`` patterns
    (``U[k, j] != 0``), the form the inspectors hold their prune-sets in.
    Exact lists give the tightest (shallowest) schedule the kernel admits.
    """
    with span("schedule", graph=graph):
        lib = native.helper()
        if lib is None:
            level = deps_levels_reference(dep_ptr, dep_idx)
        else:
            level = lib.levels_from_deps(dep_ptr, dep_idx)
        return schedule_from_level_array(level, graph=graph)


def deps_levels_reference(dep_ptr: np.ndarray, dep_idx: np.ndarray) -> np.ndarray:
    """Per-column level from CSR-form dependency lists, in Python."""
    n = len(dep_ptr) - 1
    level = np.zeros(n, dtype=np.int64)
    for j in range(n):
        if dep_ptr[j] < dep_ptr[j + 1]:
            level[j] = int(level[dep_idx[dep_ptr[j] : dep_ptr[j + 1]]].max()) + 1
    return level


def dependency_graph_from_column_deps(
    n: int, deps: Sequence[np.ndarray]
) -> DependencyGraph:
    """The :class:`DependencyGraph` with an edge ``k → j`` per ``k ∈ deps[j]``.

    Lets a schedule built from exact dependency lists be validated with the
    same antichain/topological-order machinery as DG_L (used by the
    test-suite for the LU schedule, whose dependency structure is the ``U``
    pattern rather than the ``L`` pattern).
    """
    out_lists: List[List[int]] = [[] for _ in range(n)]
    for j in range(n):
        for k in deps[j]:
            out_lists[int(k)].append(j)
    indptr = np.zeros(n + 1, dtype=np.int64)
    chunks: List[np.ndarray] = []
    for k in range(n):
        targets = np.asarray(sorted(out_lists[k]), dtype=np.int64)
        chunks.append(targets)
        indptr[k + 1] = indptr[k] + targets.size
    indices = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)
    return DependencyGraph(n, indptr, indices)
