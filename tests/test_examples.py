"""Smoke tests: every example script runs successfully end-to-end."""

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


@pytest.mark.parametrize(
    "script, expected",
    [
        ("quickstart.py", "triangular solve"),
        ("power_grid_newton.py", "converged: True"),
        ("preconditioned_cg.py", "IC(0)-preconditioned"),
        ("fem_refactorization.py", "per-step numeric speedup"),
        ("inspect_codegen.py", "Python backend: one fixed kernel"),
        ("solver_service.py", "service stopped cleanly"),
        ("scipy_drop_in.py", "scipy drop-in front end OK"),
    ],
)
def test_example_runs(script, expected):
    result = _run(script)
    assert result.returncode == 0, result.stderr
    assert expected in result.stdout
