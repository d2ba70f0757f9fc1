"""Smoke tests: every example script and every docstring example runs successfully."""

import doctest
import glob
import importlib
import os
import subprocess
import sys

import pytest

_EXAMPLES_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "examples")
_SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _run(script: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, os.path.join(_EXAMPLES_DIR, script)],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )


#: Every example script and a line of what it prints when it ran to the end.
_EXAMPLES = [
    ("quickstart.py", "triangular solve"),
    ("power_grid_newton.py", "converged: True"),
    ("preconditioned_cg.py", "IC(0)-preconditioned"),
    ("fem_refactorization.py", "per-step numeric speedup"),
    ("inspect_codegen.py", "Python backend: one fixed kernel"),
    ("solver_service.py", "service stopped cleanly"),
    ("scipy_drop_in.py", "scipy drop-in front end OK"),
    ("fleet_pipelining.py", "all 32 post-crash requests completed"),
]


def test_every_example_script_is_run():
    scripts = sorted(os.path.basename(path) for path in glob.glob(os.path.join(_EXAMPLES_DIR, "*.py")))
    assert sorted(script for script, _ in _EXAMPLES) == scripts


@pytest.mark.parametrize("script, expected", _EXAMPLES)
def test_example_runs(script, expected):
    result = _run(script)
    assert result.returncode == 0, result.stderr
    assert expected in result.stdout


def _modules_with_docstring_examples():
    """Dotted names of the ``repro`` modules whose source holds a ``>>>`` example."""
    names = []
    for dirpath, _, files in os.walk(os.path.join(_SRC_DIR, "repro")):
        for name in files:
            path = os.path.join(dirpath, name)
            if name.endswith(".py"):
                with open(path, encoding="utf-8") as fh:
                    if ">>>" in fh.read():
                        dotted = os.path.relpath(path, _SRC_DIR)[: -len(".py")].replace(os.sep, ".")
                        names.append(dotted.removesuffix(".__init__"))
    return sorted(names)


@pytest.mark.parametrize("module", _modules_with_docstring_examples())
def test_docstring_examples_run(module):
    result = doctest.testmod(importlib.import_module(module))
    assert result.attempted > 0 and result.failed == 0, result
