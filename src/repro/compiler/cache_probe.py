"""Deterministic cache probe: prove cold-vs-warm compile behaviour.

``python -m repro.compiler.cache_probe`` compiles a fixed workload — every
kernel of the kernel table (:func:`~repro.compiler.registry.registered_kernels`)
on fixed generator matrices — through a fresh
:class:`~repro.compiler.sympiler.Sympiler` and reports the on-disk
shared-object cache counters (:func:`~repro.compiler.codegen.c_backend.disk_cache_stats`)
as JSON, with the names of the kernels it compiled under ``kernels``.  The
probe exits nonzero when those are not exactly the table's, so a kernel added
to the table cannot escape the warm-cache check until the probe compiles it.
Because the workload is deterministic, a second run in a *new
process* against the same ``REPRO_SYMPILER_CACHE`` directory must reuse every
``.so`` it produced; ``--assert-warm`` turns that expectation into a nonzero
exit code, which is how CI asserts "warm cache ⇒ zero C recompiles" with
counters instead of hoping a pytest re-run exercised the path.

The python backend participates in the same protocol: the text of each
reference kernel that ran is written to the cache directory once (nothing is
read back), so a warm run must also *write* nothing — ``--assert-warm`` checks
``py_writes == 0`` alongside ``so_compiles == 0``.  ``--json`` appends the
unified observability registry snapshot (:func:`repro.observe.snapshot`) to
the report, so CI can assert the warm-cache counters *and* the registry's
view of them from one JSON document.  On ``--backend python`` the python
counters carry the warm-cache assertion on their own.  Without a C toolchain
the probe compiles nothing: the first compile raises ``CCompilationError``.

The report also sizes what the run left in the cache directory
(``source_bytes`` of generated ``.c``/``.py`` files, ``so_bytes`` in
``so_files`` shared objects): generated code is a constant of the code shape,
not of the pattern, and tier-1 holds the probe workload's total under 256 KB
(it measures 125,691 bytes in 6 ``.so`` and their sources with gcc 12.2
``-O3 -march=native -fno-tree-vectorize``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from typing import Dict

import numpy as np

from repro.compiler.cache import ArtifactCache
from repro.compiler.codegen.c_backend import disk_cache_stats, reset_disk_cache_stats
from repro.compiler.codegen.runtime import generated_code_dir
from repro.compiler.options import SympilerOptions
from repro.compiler.registry import registered_kernels
from repro.compiler.sympiler import Sympiler
from repro.sparse.generators import (
    fem_stencil_2d,
    laplacian_2d,
    saddle_point_indefinite,
    sparse_rhs,
    unsymmetric_diag_dominant,
)

__all__ = ["run_probe", "main"]


def run_probe(backend: str = SympilerOptions.backend) -> Dict[str, object]:
    """Compile the fixed probe workload and return the cache counters.

    The report's ``backend`` is the one that ran.  The driver uses a fresh
    in-memory artifact cache so the on-disk counters reflect disk state, not
    in-process memoization.
    """
    options = SympilerOptions(backend=backend)
    reset_disk_cache_stats()
    sym = Sympiler(options, cache=ArtifactCache())

    spd = laplacian_2d(12, shift=0.1)
    fem = fem_stencil_2d(9, shift=0.25)
    kkt = saddle_point_indefinite(24, 10, seed=5)
    jac = unsymmetric_diag_dominant(48, seed=5)
    rhs = sparse_rhs(spd.n, nnz=3, seed=5)

    results = {}
    chol = sym.compile("cholesky", spd)
    L = chol.factorize(spd)
    results["cholesky_ok"] = bool(L.nnz > 0)
    tri = sym.compile("triangular-solve", L, rhs_pattern=np.nonzero(rhs)[0])
    results["trisolve_ok"] = bool(np.isfinite(tri.solve(L, rhs)).all())
    ldlt = sym.compile("ldlt", kkt)
    results["ldlt_ok"] = bool(np.isfinite(ldlt.factorize(kkt).d).all())
    chol_fem = sym.compile("cholesky", fem)
    results["cholesky_fem_ok"] = bool(chol_fem.factorize(fem).nnz > 0)
    lu = sym.compile("lu", jac)
    fac = lu.factorize(jac)
    results["lu_ok"] = bool(
        np.allclose(fac.reconstruct_dense(), jac.to_dense(), atol=1e-8)
    )
    # The incomplete kernel joins the warm-cache contract: a second probe run
    # must reuse its generated code too (zero recompiles, zero py_writes).
    ic0 = sym.compile("ic0", spd)
    L_inc = ic0.factorize(spd)
    # Its solve entry too: z = (L Lᵀ)⁻¹ r with the identity permutation.
    r = np.cos(np.arange(spd.n, dtype=np.float64))
    z = np.empty(spd.n)
    identity = np.arange(spd.n, dtype=np.int64)
    ic0.bind_solve((identity, L_inc.data, r), (np.empty(spd.n), z))()
    applied = L_inc.matvec(L_inc.rmatvec(z))
    results["ic0_ok"] = bool(
        L_inc.nnz == ic0.factor_nnz
        and np.isfinite(L_inc.data).all()
        and np.linalg.norm(applied - r) <= 1e-10 * np.linalg.norm(r)
    )
    # The front end joins the warm-cache contract: repro.solve's mindeg-
    # ordered compiles (a pattern distinct from the natural-order compiles
    # above) must persist to disk and reload on the warm run, and its second
    # same-structure call must be served from the specialization cache.  The
    # front end compiles through the process-wide shared artifact cache,
    # which would make a second in-process probe run skip the disk — swap in
    # a fresh one for the probe's duration so the counters stay
    # deterministic, exactly like the fresh ArtifactCache drivers above.
    import repro.compiler.sympiler as _sympiler_module
    from repro.frontend.specialized import SpecializedSolver

    shared_before = _sympiler_module._SHARED_CACHE
    _sympiler_module._SHARED_CACHE = ArtifactCache()
    try:
        front = SpecializedSolver(options=options)
        x1 = front.solve(spd, np.cos(np.arange(spd.n, dtype=np.float64)))
        x2 = front.solve(spd, np.ones(spd.n, dtype=np.float64))
    finally:
        _sympiler_module._SHARED_CACHE = shared_before
    results["frontend_ok"] = bool(
        np.isfinite(x1).all()
        and np.isfinite(x2).all()
        and front.stats.specializations == 1
        and front.stats.structure_hits == 1
    )

    disk = disk_cache_stats()
    sizes = {".c": 0, ".py": 0, ".so": 0}
    so_files = 0
    with os.scandir(generated_code_dir()) as entries:
        for entry in entries:
            suffix = os.path.splitext(entry.name)[1]
            if suffix in sizes and entry.is_file():
                sizes[suffix] += entry.stat().st_size
                so_files += suffix == ".so"
    return {
        "backend": chol.backend,
        "workload": results,
        "kernels": sorted({a.module.method for a in (chol, tri, ldlt, chol_fem, lu, ic0)}),
        "so_compiles": disk.compiles,
        "so_reuses": disk.reuses,
        "py_writes": disk.py_writes,
        "source_bytes": sizes[".c"] + sizes[".py"],
        "so_bytes": sizes[".so"],
        "so_files": so_files,
        "artifact_cache": sym.cache.stats.as_dict(),
    }


def main(argv=None) -> int:
    """CLI entry point; see the module docstring."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.compiler.cache_probe", description=__doc__
    )
    parser.add_argument(
        "--backend",
        choices=["python", "c"],
        default=SympilerOptions.backend,
        help="code-generation backend (either needs a C toolchain)",
    )
    parser.add_argument(
        "--assert-warm",
        action="store_true",
        help="exit nonzero unless every shared object was reused from disk "
        "(zero C recompiles)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="include the unified observability registry snapshot "
        "(repro.observe) in the report under an 'observe' key, so CI can "
        "assert cache counters and registry state from one document",
    )
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        report = run_probe(backend=args.backend)
    report["asserted_warm"] = bool(args.assert_warm)
    if args.json:
        from repro.observe import snapshot as observe_snapshot

        report["observe"] = observe_snapshot()
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    if not all(report["workload"].values()):
        sys.stderr.write("cache probe workload produced wrong results\n")
        return 2
    if tuple(report["kernels"]) != registered_kernels():
        sys.stderr.write(
            f"cache probe compiled the kernels {report['kernels']}, but the "
            f"kernel table holds {list(registered_kernels())}\n"
        )
        return 2
    if args.assert_warm and report["so_compiles"] != 0:
        sys.stderr.write(
            f"warm-cache assertion failed: {report['so_compiles']} shared "
            "object(s) were recompiled (expected 0)\n"
        )
        return 1
    if args.assert_warm and report["py_writes"] != 0:
        sys.stderr.write(
            f"warm-cache assertion failed: {report['py_writes']} python kernel "
            "text(s) were written (expected 0)\n"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
