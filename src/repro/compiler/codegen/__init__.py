"""Code-generation backends.

* :mod:`repro.compiler.codegen.tables` — the table contract: the name, dtype
  and position of every inspection set and pattern-dependent size a kernel
  reads, one function per domain loop.
* :mod:`repro.compiler.codegen.c_backend` — emits C that names those tables,
  compiles it with the system compiler and loads it through ``ctypes``.
* :mod:`repro.compiler.codegen.python_backend` — binds the same tables to the
  fixed NumPy reference kernels of :mod:`repro.compiler.codegen.reference`
  (no code generation; the oracle of the bitwise tests).
* :mod:`repro.compiler.codegen.runtime` — pattern fingerprints and the
  on-disk cache directory.
"""

from repro.compiler.codegen.c_backend import CBackend, CCompilationError, c_compiler_available
from repro.compiler.codegen.python_backend import PythonBackend

__all__ = [
    "PythonBackend",
    "CBackend",
    "CCompilationError",
    "c_compiler_available",
]
