"""Thread-safety of the compiler caches: single-flight and counters."""

from __future__ import annotations

import gc
import threading
import time
import weakref

import numpy as np
import pytest

from repro.compiler.cache import ArtifactCache
from repro.compiler.codegen.c_backend import (
    DiskCacheStats,
    disk_cache_stats,
    reset_disk_cache_stats,
)
from repro.compiler.options import SympilerOptions
from repro.compiler.sympiler import Sympiler
from repro.sparse.generators import laplacian_2d


class TestSingleFlight:
    def test_concurrent_builds_collapse_to_one(self):
        cache = ArtifactCache()
        builds = []
        barrier = threading.Barrier(6)
        results = [None] * 6

        def builder():
            builds.append(threading.get_ident())
            time.sleep(0.05)  # widen the race window
            return object()

        def worker(i):
            barrier.wait(timeout=10)
            results[i] = cache.get_or_build("key", builder)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert len(builds) == 1
        assert all(r is results[0] and r is not None for r in results)
        assert cache.stats.coalesced >= 1

    def test_sequential_behaviour_unchanged(self):
        cache = ArtifactCache()
        first = cache.get_or_build("k", lambda: "built")
        second = cache.get_or_build("k", lambda: "rebuilt")
        assert first == second == "built"
        assert cache.stats.misses == 1 and cache.stats.hits == 1
        assert cache.stats.coalesced == 0

    def test_failed_leader_lets_a_waiter_take_over(self):
        cache = ArtifactCache()
        attempts = []
        release = threading.Event()

        def failing_builder():
            attempts.append("fail")
            release.wait(timeout=5)
            raise RuntimeError("leader build failed")

        def good_builder():
            attempts.append("good")
            return "artifact"

        outcome = {}

        def leader():
            try:
                cache.get_or_build("k", failing_builder)
            except RuntimeError as exc:
                outcome["leader"] = exc

        def waiter():
            outcome["waiter"] = cache.get_or_build("k", good_builder)

        leader_thread = threading.Thread(target=leader)
        leader_thread.start()
        while not attempts:  # the leader is inside its builder
            time.sleep(0.001)
        waiter_thread = threading.Thread(target=waiter)
        waiter_thread.start()
        time.sleep(0.02)  # let the waiter park on the in-flight event
        release.set()
        leader_thread.join(timeout=10)
        waiter_thread.join(timeout=10)
        # The leader saw its own failure; the waiter rebuilt successfully.
        assert isinstance(outcome["leader"], RuntimeError)
        assert outcome["waiter"] == "artifact"
        assert attempts == ["fail", "good"]

    def test_concurrent_compiles_share_one_artifact(self, monkeypatch, tmp_path):
        """End to end: racing Sympiler.compile calls produce one artifact."""
        monkeypatch.setenv("REPRO_SYMPILER_CACHE", str(tmp_path))
        reset_disk_cache_stats()
        A = laplacian_2d(7, shift=0.1)
        sym = Sympiler(SympilerOptions(backend="python"), cache=ArtifactCache())
        barrier = threading.Barrier(4)
        artifacts = [None] * 4
        errors = []

        def compile_one(i):
            try:
                barrier.wait(timeout=10)
                artifacts[i] = sym.compile("cholesky", A)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=compile_one, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        assert all(a is artifacts[0] and a is not None for a in artifacts)
        # Exactly one code generation hit the disk (python backend): the
        # double-compile would have written once per loser as well.
        assert disk_cache_stats().as_dict()["py_writes"] == 1
        L = artifacts[0].factorize(A)
        assert np.isfinite(L.data).all()


class _Artifact:
    """A weak-referenceable stand-in for a compiled artifact."""


class TestMemoOwnsNothing:
    def test_put_of_a_resident_key_replaces_it_without_eviction(self):
        cache = ArtifactCache(maxsize=2)
        cache.put("a", "A")
        cache.put("b", "B")
        cache.put("a", "A2")  # replaces a and makes it the most recent
        assert len(cache) == 2 and cache.stats.evictions == 0
        cache.put("c", "C")  # so b is the one to go
        assert cache.get("a") == "A2" and "b" not in cache

    def test_a_get_or_build_hit_refreshes_recency(self):
        cache = ArtifactCache(maxsize=2)
        cache.get_or_build("a", lambda: "A")
        cache.get_or_build("b", lambda: "B")
        assert cache.get_or_build("a", lambda: "rebuilt") == "A"
        cache.get_or_build("c", lambda: "C")  # evicts b, not a
        assert "a" in cache and "b" not in cache and "c" in cache
        assert cache.stats.evictions == 1

    def test_an_evicted_artifact_is_not_kept_alive_by_the_memo(self):
        cache = ArtifactCache(maxsize=1)
        cache.put("a", _Artifact())
        ref = weakref.ref(cache.get("a"))
        cache.put("b", _Artifact())
        gc.collect()
        assert ref() is None

    def test_a_holder_keeps_an_evicted_artifact_alive(self):
        cache = ArtifactCache(maxsize=1)
        held = cache.get_or_build("a", _Artifact)
        cache.put("b", _Artifact())
        assert "a" not in cache
        ref = weakref.ref(held)
        gc.collect()
        assert ref() is held
        del held
        gc.collect()
        assert ref() is None

    def test_an_evicted_key_is_rebuilt_on_the_next_lookup(self):
        cache = ArtifactCache(maxsize=1)
        first = cache.get_or_build("a", _Artifact)
        cache.put("b", _Artifact())
        second = cache.get_or_build("a", _Artifact)
        assert second is not first
        assert cache.stats.misses == 2 and cache.stats.evictions == 2

    def test_clear_drops_entries_but_keeps_counters(self):
        cache = ArtifactCache()
        cache.get_or_build("a", lambda: "A")
        cache.get("a")
        cache.clear()
        assert len(cache) == 0 and "a" not in cache
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_a_failed_build_caches_nothing(self):
        cache = ArtifactCache()

        def failing():
            raise RuntimeError("build failed")

        with pytest.raises(RuntimeError, match="build failed"):
            cache.get_or_build("k", failing)
        assert "k" not in cache and len(cache) == 0
        assert cache.get_or_build("k", lambda: "built") == "built"


class TestDiskCacheStatsThreadSafety:
    def test_bump_is_atomic_under_contention(self):
        stats = DiskCacheStats()

        def bump():
            for _ in range(2000):
                stats.bump("py_writes")

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert stats.as_dict()["py_writes"] == 16000

    def test_reset_zeroes_all_counters(self):
        stats = DiskCacheStats()
        for name in ("compiles", "reuses", "py_writes", "lock_waits"):
            stats.bump(name, 3)
        stats.reset()
        assert all(v == 0 for v in stats.as_dict().values())

    def test_global_reset_helper(self):
        disk_cache_stats().bump("reuses")
        reset_disk_cache_stats()
        assert disk_cache_stats().as_dict()["reuses"] == 0


class TestCacheStatsSurface:
    def test_as_dict_carries_new_counters(self):
        cache = ArtifactCache()
        payload = cache.stats.as_dict()
        for key in ("hits", "misses", "evictions", "coalesced", "hit_rate"):
            assert key in payload

    def test_invalid_percentilelike_inputs_rejected(self):
        with pytest.raises(ValueError):
            ArtifactCache(maxsize=0)
