"""Symbolic-analysis substrate.

Symbolic analysis (a term from the numerical-computing community, §1 of the
paper) covers every computation that depends only on the *nonzero pattern* of
the inputs and not on their values: reachability in the dependence graph,
elimination trees, fill-in prediction, row/column counts and supernode
detection.  Sympiler runs these routines at compile time — the "symbolic
inspector" — and bakes their results into generated code.

This package implements those graph algorithms plus the inspector framework
(:mod:`repro.symbolic.inspector`) that packages their results into
*inspection sets* consumed by the inspector-guided transformations planned in
:mod:`repro.compiler.plan`.
"""

from repro.symbolic.colcount import column_counts_of_factor, row_counts_of_factor
from repro.symbolic.dependency_graph import DependencyGraph
from repro.symbolic.etree import (
    EliminationTree,
    elimination_tree,
    first_children,
    postorder,
    tree_depths,
)
from repro.symbolic.fill_pattern import (
    cholesky_pattern,
    ereach,
    lu_pattern,
)
from repro.symbolic.inspector import (
    CholeskyInspectionResult,
    CholeskyInspector,
    LUInspectionResult,
    LUInspector,
    SymbolicInspector,
    TriangularInspectionResult,
    TriangularSolveInspector,
)
from repro.symbolic.reach import reach_set, reach_set_sorted
from repro.symbolic.supernodes import (
    SupernodePartition,
    cholesky_supernodes,
    triangular_supernodes,
)

__all__ = [
    "DependencyGraph",
    "reach_set",
    "reach_set_sorted",
    "EliminationTree",
    "elimination_tree",
    "postorder",
    "first_children",
    "tree_depths",
    "ereach",
    "cholesky_pattern",
    "lu_pattern",
    "column_counts_of_factor",
    "row_counts_of_factor",
    "SupernodePartition",
    "cholesky_supernodes",
    "triangular_supernodes",
    "SymbolicInspector",
    "TriangularSolveInspector",
    "CholeskyInspector",
    "LUInspector",
    "TriangularInspectionResult",
    "LUInspectionResult",
    "CholeskyInspectionResult",
]
