"""The product carries no test oracle: ``repro.kernels`` is the FLOP model alone, and a solve never loads it.

Each kernel has one Python implementation, the python backend's
``compiler/codegen/reference.py``; the dense oracles the tests check it
against live in ``tests/oracles.py``.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_import_and_solve_load_no_module_of_repro_kernels():
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import repro\n"
        "A = repro.laplacian_2d(8)\n"
        "x = repro.solve(A, np.ones(A.n))\n"
        "assert np.allclose(A.matvec(x), 1.0)\n"
        "print([m for m in sys.modules if m == 'repro.kernels' or m.startswith('repro.kernels.')])\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_repro_kernels_holds_the_flop_model_alone():
    kernels = os.path.join(SRC, "repro", "kernels")
    assert sorted(name for name in os.listdir(kernels) if name != "__pycache__") == ["__init__.py", "flops.py"]
