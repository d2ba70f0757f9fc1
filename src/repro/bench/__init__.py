"""The paper-figure reproducer (Section 4 of the paper).

This package answers one question: does the generated C beat a native
library's numeric phase and amortise its symbolic phase (Table 2, Figs. 6-9,
§4.3, plus the ``ldlt``/``lu``/``pcg`` registry extensions)?  The product and
its layers are measured elsewhere, by ``benchmarks/e2e``.

* :mod:`repro.bench.experiments` — the experiments as one declarative table.
* :mod:`repro.bench.runner`      — the one runner that acts on it.
* :mod:`repro.bench.suite`       — the synthetic stand-ins for Table 2's
  SuiteSparse matrices.
* :mod:`repro.bench.metrics`     — the timing policy and FLOP rates.
* :mod:`repro.bench.reporting`   — ASCII/CSV rendering of result rows.
* ``python -m repro.bench <experiment>`` — command-line entry point.
"""

from repro.bench.experiments import EXPERIMENTS
from repro.bench.metrics import gflops_rate, time_callable
from repro.bench.reporting import render_csv, render_table
from repro.bench.runner import run_experiments
from repro.bench.suite import SuiteEntry, build_suite, load_suite_matrix, small_suite

__all__ = [
    "EXPERIMENTS",
    "run_experiments",
    "SuiteEntry",
    "build_suite",
    "small_suite",
    "load_suite_matrix",
    "time_callable",
    "gflops_rate",
    "render_table",
    "render_csv",
]
