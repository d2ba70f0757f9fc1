"""Symbolic-analysis substrate.

Symbolic analysis (a term from the numerical-computing community, §1 of the
paper) covers every computation that depends only on the *nonzero pattern* of
the inputs and not on their values: reachability in the dependence graph,
elimination trees, fill-in prediction, column counts and supernode
detection.  Sympiler runs these routines at compile time — the "symbolic
inspector" — and bakes their results into generated code.  The dependence
graph DG_L (Fig. 1 of the paper) is never built as an object: it is ``L``'s
own CSC column structure, which the reach walks in place
(:mod:`repro.symbolic.reach`).

This package implements those graph algorithms plus the inspector framework
(:mod:`repro.symbolic.inspector`) that packages their results into
*inspection sets* consumed by the inspector-guided transformations planned in
:mod:`repro.compiler.plan`.
"""

from repro.symbolic.colcount import column_counts_of_factor
from repro.symbolic.etree import elimination_tree, postorder
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
    "reach_set",
    "reach_set_sorted",
    "elimination_tree",
    "postorder",
    "ereach",
    "cholesky_pattern",
    "lu_pattern",
    "column_counts_of_factor",
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
