"""Independent correctness oracles.

:mod:`repro.baselines.scipy_reference` answers with NumPy/SciPy dense
routines and none of this repository's sparse code, so the test-suite can
use it as ground truth.  The timed baselines of ``repro.bench`` are native
scipy (``splu``, ``spsolve_triangular``, ``cg``), called by the bench runner
itself.
"""

from repro.baselines.scipy_reference import reference_cholesky, reference_trisolve

__all__ = ["reference_cholesky", "reference_trisolve"]
