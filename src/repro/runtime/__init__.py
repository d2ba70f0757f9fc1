"""The batched/parallel numeric runtime.

Turns one compiled artifact into many concurrent numeric executions:

* :mod:`repro.runtime.levels` — level-set (wavefront) schedules computed by
  the symbolic inspectors at compile time and cached with the artifact
  (:class:`ExecutionSchedule`).
* :mod:`repro.runtime.engine` — :class:`BatchExecutor`, mapping
  ``factorize_arrays``/``solve_arrays`` over a batch of value sets: a thread
  pool for the C backend (the generated ``.so`` releases the GIL and its work
  buffers are thread-local), a plain per-item loop everywhere else — always
  with per-item error isolation and deterministic result ordering.
* :mod:`repro.runtime.facade` — :class:`BatchedSolver`, the user-facing
  wrapper over :class:`~repro.solvers.linear_solver.SparseLinearSolver` with
  ``factorize_batch`` / ``solve_many``.

``levels`` is a leaf module (the symbolic inspectors import it); the engine
and facade sit on top of the compiler and solver layers, so this package
re-exports them *lazily* — importing ``repro.runtime.levels`` from the
symbolic layer never drags the execution engine (and hence the compiler) in.
"""

from __future__ import annotations

from repro.runtime.levels import (
    ExecutionSchedule,
    dependency_graph_from_column_deps,
    level_sets_from_column_deps,
    level_sets_from_dependency_graph,
    level_sets_from_parent,
    schedule_from_level_array,
)

__all__ = [
    "ExecutionSchedule",
    "schedule_from_level_array",
    "level_sets_from_parent",
    "level_sets_from_dependency_graph",
    "level_sets_from_column_deps",
    "dependency_graph_from_column_deps",
    "BatchExecutor",
    "BatchResult",
    "BatchItemError",
    "resolve_num_threads",
    "BatchedSolver",
    "FactorHandle",
]

_LAZY = {
    "BatchExecutor": "repro.runtime.engine",
    "BatchResult": "repro.runtime.engine",
    "BatchItemError": "repro.runtime.engine",
    "resolve_num_threads": "repro.runtime.engine",
    "BatchedSolver": "repro.runtime.facade",
    "FactorHandle": "repro.runtime.facade",
}


def __getattr__(name: str):
    """PEP 562 lazy re-export of the engine/facade layers."""
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value
    return value
