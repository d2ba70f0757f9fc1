"""Thread-safety of the compiler caches: single-flight, pinning, counters."""

from __future__ import annotations

import threading
import time

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
        sym = Sympiler(SympilerOptions(), cache=ArtifactCache())
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


class TestPinningAndRemoval:
    def test_pinned_entries_survive_lru_pressure(self):
        cache = ArtifactCache(maxsize=2)
        cache.put("a", "A")
        cache.pin("a")
        cache.put("b", "B")
        cache.put("c", "C")  # evicts b (a is pinned despite being LRU)
        assert cache.get("a") == "A"
        assert cache.get("b") is None
        assert cache.get("c") == "C"
        assert cache.stats.evictions == 1

    def test_all_pinned_overflows_instead_of_dropping(self):
        cache = ArtifactCache(maxsize=1)
        cache.put("a", "A")
        cache.pin("a")
        cache.put("b", "B")
        cache.pin("b")
        assert len(cache) == 2  # over budget, but nothing pinned was dropped
        cache.unpin("a")
        cache.put("c", "C")  # now a can go
        assert cache.get("a") is None

    def test_remove_unpins_and_counts(self):
        cache = ArtifactCache()
        cache.put("a", "A")
        cache.pin("a")
        assert cache.remove("a") == "A"
        assert cache.remove("a") is None  # idempotent
        assert cache.stats.removals == 1
        assert cache.pinned_count == 0

    def test_artifact_level_pin_and_remove(self):
        cache = ArtifactCache()
        artifact = object()
        cache.put("k1", artifact)
        cache.put("k2", artifact)
        assert set(cache.pin_artifact(artifact)) == {"k1", "k2"}
        assert cache.pinned_count == 2
        assert set(cache.remove_artifact(artifact)) == {"k1", "k2"}
        assert len(cache) == 0

    def test_pins_are_refcounted_across_holders(self):
        """Two holders pin the same artifact; one releasing keeps it pinned."""
        cache = ArtifactCache(maxsize=1)
        artifact = object()
        cache.put("k", artifact)
        cache.pin_artifact(artifact)  # holder 1
        cache.pin_artifact(artifact)  # holder 2
        assert cache.release_artifact(artifact) == []  # holder 1 lets go
        cache.put("other", "X")  # LRU pressure: k must survive (still pinned)
        assert cache.get("k") is artifact
        assert cache.release_artifact(artifact) == ["k"]  # last holder: gone
        assert cache.get("k") is None

    def test_unpin_artifact_releases_without_removing(self):
        cache = ArtifactCache()
        artifact = object()
        cache.put("k", artifact)
        cache.pin_artifact(artifact)
        assert cache.unpin_artifact(artifact) == ["k"]
        assert cache.pinned_count == 0
        assert cache.get("k") is artifact  # resident, just evictable again

    def test_eviction_listener_sees_both_reasons(self):
        seen = []
        cache = ArtifactCache(maxsize=1)
        cache.add_eviction_listener(lambda key, artifact, reason: seen.append((key, reason)))
        cache.put("a", "A")
        cache.put("b", "B")  # LRU-evicts a
        cache.remove("b")
        assert seen == [("a", "lru"), ("b", "removed")]


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
        for key in ("hits", "misses", "evictions", "coalesced", "removals", "hit_rate"):
            assert key in payload

    def test_invalid_percentilelike_inputs_rejected(self):
        with pytest.raises(ValueError):
            ArtifactCache(maxsize=0)
