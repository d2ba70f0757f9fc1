"""The python backend: fixed NumPy reference kernels bound to the table block.

Nothing is generated.  :meth:`PythonBackend.generate` takes the domain loop
the plan chose (:mod:`repro.compiler.plan`) and the contract it carries
(computed by :mod:`repro.compiler.codegen.tables`: the C emitters bind the same
names in the same order) and picks the kernel of
:mod:`repro.compiler.codegen.reference` that walks them; ``compile()`` returns
the binder of that function and the block, shaped as the C backend's, and
sets the ``solve_entry`` of a direct factorization or IC(0) to the binder of
:func:`~repro.compiler.codegen.reference.factor_solve`.
``source`` is the text of the function that runs, the same for every pattern,
and ``constants`` the block, key for key what a C module of the same kernel
holds.  This is the oracle of the bitwise tests: same operations in the same
order as the C kernels, same exception as the C binder.  Like every compile,
a python-backend compile needs the toolchain, whose native helper runs the
symbolic phase.
"""

from __future__ import annotations

import inspect
import os
import time
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, Optional

import numpy as np

from repro.compiler.cache import build_file_once
from repro.compiler.codegen import reference, tables
from repro.compiler.codegen.c_backend import CMethodSpec, atomic_write_text, disk_cache_stats
from repro.compiler.codegen.runtime import generated_code_dir, pattern_fingerprint
from repro.observe.trace import span as observe_span

if TYPE_CHECKING:  # plan.py imports codegen.tables, so this package loads first
    from repro.compiler.plan import DomainLoop
    from repro.compiler.registry import KernelSpec

__all__ = ["PythonBackend", "GeneratedModule"]


#: The reference kernel of every domain loop, by role (``"untransformed"``: no
#: domain loop), as the C backend prints them from ``_LOOPS``: each takes the
#: table block and then the kernel's numeric arrays.
_REFERENCE: Dict[str, Callable] = {
    "untransformed": reference.triangular_solve,
    "trisolve-segments": reference.triangular_solve,
    "simplicial-cholesky": reference.simplicial_cholesky,
    "supernodal-cholesky": reference.supernodal_cholesky,
    "simplicial-lu": reference.simplicial_lu,
    "incomplete-cholesky": reference.ic0,
}


@dataclass
class GeneratedModule:
    """A reference kernel and the table block of one pattern."""

    function: Callable = field(repr=False)
    entry_name: str
    constants: Dict[str, np.ndarray]
    method: str
    #: The kernel's entry ABI (:attr:`KernelSpec.abi <repro.compiler.registry.KernelSpec.abi>`).
    abi: CMethodSpec
    codegen_seconds: float
    compile_seconds: float = 0.0
    #: :func:`reference.factor_solve` of the module's factor kind, for a direct factorization or IC(0).
    solve_function: Optional[Callable] = field(default=None, repr=False)
    #: The solve entry's binder, shaped as the kernel's; set by :meth:`compile`.
    solve_entry: Optional[Callable] = field(default=None, repr=False)
    _callable: Optional[Callable] = field(default=None, repr=False)

    @property
    def source(self) -> str:
        """The text of the function that runs (the same for every pattern)."""
        return inspect.getsource(getattr(self.function, "func", self.function))

    def compile(self) -> Callable:
        """The kernel's binder, as the C backend's (:meth:`CMethodSpec.wrap`).

        ``bind(inputs, outputs)`` returns ``run()``, which runs the reference
        kernel on the tables and ``inputs`` and copies its result into
        ``outputs``; a bad pivot raises the C entry's ``ValueError``.
        """
        if self._callable is not None:
            return self._callable
        start = time.perf_counter()
        with observe_span("py-compile", entry=self.entry_name, method=self.method):
            source = self.source
            stem = pattern_fingerprint(np.frombuffer(source.encode(), dtype=np.uint8))
            path = os.path.join(generated_code_dir(), f"{self.entry_name}_py_{stem}.py")
            # Written once per text and never read back: benchmarks/e2e (frozen) sizes the python
            # smoke's cache directory and reads py_writes for "did this start generate anything".
            if build_file_once(path, lambda: atomic_write_text(path, source)) == "built":
                disk_cache_stats().bump("py_writes")
        failure = self.abi.failure or "breakdown at column {column}"

        def bind(inputs, outputs):
            def run():
                try:
                    result = self.function(self.constants, *inputs)
                except reference.Breakdown as exc:
                    raise ValueError(failure.format(column=int(exc.args[0]))) from None
                for out, value in zip(outputs, result if isinstance(result, tuple) else (result,)):
                    out[...] = value

            return run

        if self.solve_function is not None:
            solve = self.solve_function
            self.solve_entry = lambda inputs, outputs: lambda: solve(self.constants, *inputs, *outputs)
        self.compile_seconds = time.perf_counter() - start
        self._callable = bind
        return bind


class PythonBackend:
    """Bind the reference kernel of a planned domain loop to its tables."""

    name = "python"

    def generate(self, domain: Optional[DomainLoop], spec: KernelSpec, entry: str, context) -> GeneratedModule:
        """The :class:`GeneratedModule` of kernel ``spec`` running ``domain`` (``context``: the matrix order)."""
        start = time.perf_counter()
        function = _REFERENCE["untransformed" if domain is None else domain.role]
        kind = None if domain is None else domain.factor_kind
        if kind == "ldlt":
            function = partial(function, ldlt=True)
        return GeneratedModule(
            function=function,
            entry_name=entry,
            # None: the untransformed loop over every column, no table.
            constants=tables.block(context.inspection.n, ({}, {}) if domain is None else domain.contract),
            method=spec.name,
            abi=spec.abi,
            codegen_seconds=time.perf_counter() - start,
            solve_function=partial(reference.factor_solve, kind=kind) if spec.abi.solve else None,
        )
