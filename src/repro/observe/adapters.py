"""Thin adapters pulling the per-object counters into the registry.

The counts live on the objects that make them; the registry only reads them:

* ``repro.compiler.codegen.c_backend.disk_cache_stats()`` (DiskCacheStats)
  → pull collector ``disk_cache``
* ``repro.compiler.sympiler._SHARED_CACHE.stats`` (ArtifactCache / CacheStats)
  → pull collector ``artifact_cache``
* ``repro.frontend.specialized.default_frontend().stats`` (FrontendStats)
  → pull collector ``frontend``
* each ``repro.service.session.SolverService`` registers its *own*
  ``service`` collector on construction and drops it in ``close()``,
  because services are per-instance, not process-wide.

Adapters are *pull-mode*: nothing is pushed on the hot path; the registry
calls these functions only when a snapshot/export is taken, so the counter
surfaces pay zero extra cost per operation.  Imports happen inside the
collector bodies so ``repro.observe`` never participates in import cycles
with the compiler/frontend packages.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.observe.registry import get_registry

__all__ = ["install_default_collectors"]


def _collect_disk_cache() -> Dict[str, Any]:
    from repro.compiler.codegen.c_backend import disk_cache_stats

    return disk_cache_stats().as_dict()


def _collect_artifact_cache() -> Dict[str, Any]:
    import repro.compiler.sympiler as sympiler_module

    return sympiler_module._SHARED_CACHE.stats.as_dict()


def _collect_frontend() -> Dict[str, Any]:
    import repro.frontend.specialized as specialized_module

    front = specialized_module._default_frontend
    if front is None:
        # No default front end has been materialised yet — report a zeroed
        # snapshot so the document shape stays stable across runs.
        return specialized_module.FrontendStats().as_dict()
    return front.stats.as_dict()


def install_default_collectors() -> None:
    """Register the process-wide pull collectors (idempotent: each name is replaced)."""
    registry = get_registry()
    registry.register_collector("disk_cache", _collect_disk_cache, replace=True)
    registry.register_collector("artifact_cache", _collect_artifact_cache, replace=True)
    registry.register_collector("frontend", _collect_frontend, replace=True)
