"""The scipy-native, lazy-specializing front end of the stack.

* :mod:`repro.frontend.ingest` — accept ``scipy.sparse`` / COO triplets /
  dense arrays / :class:`~repro.sparse.csc.CSCMatrix` anywhere a pattern
  enters the system, converting once and fingerprinting the structure.
* :mod:`repro.frontend.probes` — cheap structural probes (pattern/value
  symmetry, SPD heuristic) that auto-select the kernel route.
* :mod:`repro.frontend.specialized` — :class:`SpecializedSolver`,
  the module-level :func:`solve` and the :func:`sympiled` decorator:
  specialize on first call keyed on the argument configuration, pure
  numeric execution afterwards.

The heavy names are PEP 562 lazy so that the ingest helpers stay importable
from the solver layer itself without an import cycle (``ingest`` imports
only the sparse containers; ``specialized`` imports the solvers).
"""

from repro.frontend.ingest import IngestedMatrix, as_csc, ingest, structure_fingerprint
from repro.frontend.probes import (
    AUTO_METHODS,
    ProbeReport,
    probe_structure,
)

__all__ = [
    "IngestedMatrix",
    "ingest",
    "as_csc",
    "structure_fingerprint",
    "AUTO_METHODS",
    "ProbeReport",
    "probe_structure",
    "SpecializedSolver",
    "FrontendStats",
    "solve",
    "sympiled",
    "default_frontend",
]

#: Names resolved lazily from :mod:`repro.frontend.specialized`, which pulls
#: in the solver stack — deferred so ``repro.solvers`` can import the ingest
#: helpers from this package while it is itself still initializing.
_LAZY_SPECIALIZED = (
    "SpecializedSolver",
    "FrontendStats",
    "solve",
    "sympiled",
    "default_frontend",
)


def __getattr__(name: str):
    if name in _LAZY_SPECIALIZED:
        import importlib

        value = getattr(
            importlib.import_module("repro.frontend.specialized"), name
        )
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
