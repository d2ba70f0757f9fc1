"""Packaging: ``pip install .`` installs the ``repro`` package from ``src/``.

A plain ``setup.py`` (no ``pyproject.toml``) so that installs work on
offline machines whose pip cannot fetch PEP 517 build dependencies.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_VERSION = re.search(
    r'__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "_version.py").read_text(),
).group(1)

setup(
    name="repro",
    version=_VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    # The native symbolic helper is built from source at first use, so the
    # source has to be installed with the package.
    package_data={"repro.symbolic": ["native.c"]},
    install_requires=["numpy"],
)
