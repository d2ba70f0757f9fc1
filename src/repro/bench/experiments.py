"""The paper's experiments as one table: what is compiled, against what,
and which columns follow from the timings.

An entry names its *variants* (a legend of the paper → the kernel it
compiles and the :class:`~repro.compiler.options.SympilerOptions` overrides
that legend stands for), the *baselines* it is set against, and the families
of *derived* columns its rows carry.  :mod:`repro.bench.runner` is the only
code that acts on the table.

Every variant is generated C and every baseline native scipy on the same
pre-ordered matrix (``runner.KERNELS``), so no column compares generated C
with interpreted Python.

Derived column families (``<t>`` is any timed variant or baseline, ``<v>`` a
variant, ``<b>`` a baseline; every ``<t>`` always gets ``<t>_seconds``):

``listing``     Table 2's descriptive columns.
``gflops``      ``<t>_gflops`` from the kernel's FLOP model.
``speedup``     ``<v>_speedup_vs_<b>`` = baseline seconds / variant seconds.
``relative``    ``<v>_over_<first variant>`` for every later variant.
``normalized``  Figs. 8/9: ``<t>_numeric_normalized`` and
                ``<t>_total_normalized`` (symbolic + numeric), both divided by
                the first baseline's symbolic + numeric time.
``overheads``   §4.3: ``<v>_symbolic_over_numeric`` (inspection +
                transformation) and ``<v>_codegen_over_numeric`` (code
                generation + ``cc``) against one numeric execution.

Every ratio column is averaged into a final ``geomean`` row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple

__all__ = ["Experiment", "EXPERIMENTS"]

# The paper's legends as option overrides (the default options are the full
# pipeline: VS-Block and VI-Prune).  Within an experiment no two legends
# compile the same program.
FULL: Mapping[str, object] = {}
VS_BLOCK_ONLY = {"enable_vi_prune": False}
VI_PRUNE_ONLY = {"enable_vs_block": False}

TRISOLVE = "triangular-solve"
CHOLESKY = "cholesky"


@dataclass(frozen=True)
class Experiment:
    """One table/figure of the evaluation."""

    title: str
    #: legend -> (kernel, SympilerOptions overrides), in column order.
    variants: Mapping[str, Tuple[str, Mapping[str, object]]] = field(default_factory=dict)
    #: Baselines of the first variant's kernel, in column order.
    baselines: Tuple[str, ...] = ()
    derived: Tuple[str, ...] = ()


EXPERIMENTS: Dict[str, Experiment] = {
    "table2": Experiment("Table 2: matrix suite", derived=("listing",)),
    "fig6": Experiment(
        "Figure 6: triangular solve GFLOP/s",
        variants={
            "sympiler_vs_block": (TRISOLVE, VS_BLOCK_ONLY),
            "sympiler_full": (TRISOLVE, FULL),
        },
        baselines=("scipy",),
        derived=("gflops", "speedup"),
    ),
    "fig7": Experiment(
        "Figure 7: Cholesky GFLOP/s",
        variants={
            "sympiler_vi_prune": (CHOLESKY, VI_PRUNE_ONLY),
            "sympiler_full": (CHOLESKY, FULL),
        },
        baselines=("splu",),
        derived=("gflops", "speedup", "relative"),
    ),
    "fig8": Experiment(
        "Figure 8: triangular solve symbolic+numeric (normalized)",
        variants={"sympiler": (TRISOLVE, FULL)},
        baselines=("scipy",),
        derived=("normalized", "overheads"),
    ),
    "fig9": Experiment(
        "Figure 9: Cholesky symbolic+numeric (normalized)",
        variants={"sympiler": (CHOLESKY, FULL)},
        baselines=("splu",),
        derived=("normalized", "overheads"),
    ),
    "overheads": Experiment(
        "Section 4.3: compile-time overheads",
        variants={"tri": (TRISOLVE, FULL), "chol": (CHOLESKY, FULL)},
        derived=("overheads",),
    ),
    "ldlt": Experiment(
        "LDL^T vs. Cholesky (kernel-registry extension)",
        variants={"cholesky": (CHOLESKY, FULL), "ldlt": ("ldlt", FULL)},
        derived=("gflops", "relative"),
    ),
    "lu": Experiment(
        "LU on unsymmetric diagonally dominant matrices (registry extension)",
        variants={"lu": ("lu", FULL)},
        baselines=("splu",),
        derived=("speedup",),
    ),
    "pcg": Experiment(
        "IC(0)-preconditioned CG through the compiled ic0 kernel",
        variants={"pcg": ("ic0", FULL)},
        baselines=("scipy_cg",),
        derived=("speedup",),
    ),
}
