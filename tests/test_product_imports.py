"""The product carries no test oracle: ``repro.kernels`` is the FLOP model alone, and a solve never loads it.

Each kernel has one Python implementation, the python backend's
``compiler/codegen/reference.py``; the dense oracles the tests check it
against live in ``tests/oracles.py``.  Every name the packages export has a
caller in the product, the examples or the end-to-end benchmark.
"""

import ast
import glob
import importlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


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


#: Exported names that no code outside their own module names, each with the reason it stays.
_EXPORTED_WITHOUT_A_CALLER = {
    "natural_ordering": "reached by name through ordering_by_name",
    "reverse_cuthill_mckee": "reached by name through ordering_by_name",
    "ereach": "a Python reference the native helper's results are tested against",
    "cholesky_pattern": "a Python reference the native helper's results are tested against",
    "column_counts_of_factor": "the per-column factor counts the planned FLOP models read (ROADMAP items 6, 12, 15)",
    "PatternHandle": "the type SolverService.register_pattern returns; callers hold it without naming it",
    "SolverEndpoint": "the protocol the three serving classes implement; callers type against it",
    "SymbolicInspector": "the base class of every inspector, reached through its subclasses",
}


def _names_in_code(path):
    """Every name, attribute and imported name in ``path``'s code (docstrings and comments excluded)."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def _exported_without_a_caller():
    """``{name: package}`` of the exports with no reference outside their own module and the ``__init__`` files."""
    callers = glob.glob(os.path.join(SRC, "repro", "**", "*.py"), recursive=True)
    callers = [path for path in callers if os.path.basename(path) != "__init__.py"]
    callers += glob.glob(os.path.join(ROOT, "examples", "*.py"))
    callers += glob.glob(os.path.join(ROOT, "benchmarks", "e2e", "**", "*.py"), recursive=True)
    names_in = {os.path.realpath(path): _names_in_code(path) for path in callers}
    missing = {}
    for package in ("repro", "repro.sparse", "repro.symbolic"):
        module = importlib.import_module(package)
        for name in module.__all__:
            home = getattr(getattr(module, name), "__module__", None)
            own = os.path.realpath(sys.modules[home].__file__) if home else None
            if not any(name in names for path, names in names_in.items() if path != own):
                missing[name] = package
    return missing


def test_every_exported_name_has_a_caller():
    missing = _exported_without_a_caller()
    unexplained = sorted(set(missing) - set(_EXPORTED_WITHOUT_A_CALLER))
    assert not unexplained, f"exported, but only tests call them: {unexplained}"
    # The exceptions are still exported, and still without a caller.
    assert sorted(_EXPORTED_WITHOUT_A_CALLER) == sorted(missing)

