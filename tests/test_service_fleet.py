"""Fleet tests: consistent-hash routing, shard failover, warm re-registration."""

from __future__ import annotations

import collections

import numpy as np
import pytest

from repro.service.errors import PatternEvictedError, ShardUnavailableError
from repro.service.router import ConsistentHashRing
from repro.solvers.linear_solver import SparseLinearSolver
from repro.sparse.generators import fem_stencil_2d, laplacian_2d


class TestConsistentHashRing:
    def test_routes_are_deterministic(self):
        ring = ConsistentHashRing([0, 1, 2])
        again = ConsistentHashRing([0, 1, 2])
        keys = [f"pattern-{i}" for i in range(200)]
        assert [ring.route(k) for k in keys] == [again.route(k) for k in keys]

    def test_all_slots_get_load(self):
        ring = ConsistentHashRing([0, 1, 2, 3])
        counts = collections.Counter(ring.route(f"key-{i}") for i in range(2000))
        assert set(counts) == {0, 1, 2, 3}
        # Virtual nodes keep the spread sane: no shard more than ~3x another.
        assert max(counts.values()) < 3 * min(counts.values())

    def test_removal_moves_only_the_dead_shards_keys(self):
        ring = ConsistentHashRing([0, 1, 2, 3])
        keys = [f"key-{i}" for i in range(1000)]
        before = {k: ring.route(k) for k in keys}
        ring.remove(2)
        moved = sum(
            1 for k in keys if before[k] != ring.route(k) and before[k] != 2
        )
        # Consistent hashing: keys on surviving shards keep their placement.
        assert moved == 0
        assert all(ring.route(k) != 2 for k in keys)

    def test_add_and_remove_are_idempotent(self):
        ring = ConsistentHashRing([0, 1])
        ring.add(1)
        assert ring.slots() == [0, 1]
        ring.remove(1)
        ring.remove(1)
        assert ring.slots() == [0]

    def test_empty_ring_raises(self):
        ring = ConsistentHashRing()
        with pytest.raises(LookupError, match="empty"):
            ring.route("anything")

    def test_membership_protocol(self):
        ring = ConsistentHashRing([0, 2])
        assert len(ring) == 2
        assert 0 in ring and 2 in ring and 1 not in ring


@pytest.fixture(scope="module")
def fleet_cache(tmp_path_factory):
    """A module-shared compiled-kernel cache so spawns stay cheap."""
    return tmp_path_factory.mktemp("fleet-cache")


@pytest.fixture()
def fleet(fleet_cache):
    from repro.service.fleet import ShardFleet

    fleet = ShardFleet(2, cache_dir=fleet_cache)
    yield fleet
    fleet.close()


class TestShardFleet:
    def _matrices(self):
        return {
            "lap_small": laplacian_2d(10, shift=0.1),
            "fem": fem_stencil_2d(8, shift=0.2),
            "lap_large": laplacian_2d(13, shift=0.3),
        }

    def test_register_solve_and_submit_roundtrip(self, fleet):
        mats = self._matrices()
        handles = {k: fleet.register_pattern(A) for k, A in mats.items()}
        refs = {k: SparseLinearSolver(A, ordering="natural") for k, A in mats.items()}
        # Sync solves match the local reference bitwise-comparable tolerance.
        for k, A in mats.items():
            rhs = np.linspace(0.5, 1.5, A.n)
            assert np.allclose(
                fleet.solve(handles[k], A.data, rhs), refs[k].solve(rhs), atol=1e-8
            )
        # Pipelined submits across all patterns complete and verify.
        futures = []
        for k, A in mats.items():
            for i in range(4):
                rhs = np.sin(np.arange(A.n, dtype=np.float64) + i)
                futures.append((k, rhs, fleet.submit(handles[k], A.data, rhs)))
        for k, rhs, future in futures:
            x = fleet.result(future, timeout=60)
            assert np.allclose(x, refs[k].solve(rhs), atol=1e-8)

    def test_same_pattern_routes_to_same_shard(self, fleet):
        A = laplacian_2d(10, shift=0.1)
        h1 = fleet.register_pattern(A)
        h2 = fleet.register_pattern(A)
        assert h1.handle_id == h2.handle_id
        stats = fleet.stats()
        # The pattern is registered on exactly one shard.
        owners = [
            slot
            for slot, s in stats["per_shard"].items()
            if h1.handle_id in s.get("patterns", {})
        ]
        assert len(owners) == 1

    def test_shard_death_recovers_warm_with_zero_recompiles(self, fleet):
        """The failover guarantee: kill a shard mid-service, all patterns
        keep solving, and the replacement re-registers WARM from the shared
        disk cache — zero recompiles, counter-asserted."""
        mats = self._matrices()
        handles = {k: fleet.register_pattern(A) for k, A in mats.items()}
        refs = {k: SparseLinearSolver(A, ordering="natural") for k, A in mats.items()}
        owned = {
            slot: s.get("registered_patterns", 0)
            for slot, s in fleet.stats()["per_shard"].items()
        }
        victim = int(next(slot for slot, n in owned.items() if n > 0))
        fleet.kill_shard(victim)
        for k, A in mats.items():
            rhs = np.cos(np.arange(A.n, dtype=np.float64))
            x = fleet.solve(handles[k], A.data, rhs)
            assert np.allclose(x, refs[k].solve(rhs), atol=1e-8)
        counters = fleet.counters
        assert counters["shard_deaths"] == 1
        assert counters["respawns"] == 1
        assert counters["reregisters"] == owned[str(victim)]
        assert counters["warm_reregisters"] == counters["reregisters"]
        assert counters["cold_reregisters"] == 0
        # The fleet is back to full strength.
        assert fleet.stats()["shards"] == 2

    def test_pipelined_submits_survive_shard_death(self, fleet):
        """Futures in flight on the dying shard resubmit after recovery."""
        mats = self._matrices()
        handles = {k: fleet.register_pattern(A) for k, A in mats.items()}
        refs = {k: SparseLinearSolver(A, ordering="natural") for k, A in mats.items()}
        owned = {
            slot: s.get("registered_patterns", 0)
            for slot, s in fleet.stats()["per_shard"].items()
        }
        victim = int(next(slot for slot, n in owned.items() if n > 0))
        fleet.kill_shard(victim)
        # Submit *after* the kill but before any recovery ran: the dead
        # connection surfaces ShardUnavailableError and the fleet retries.
        futures = []
        for k, A in mats.items():
            for i in range(3):
                rhs = np.sin(np.arange(A.n, dtype=np.float64) * (i + 1))
                futures.append((k, rhs, fleet.submit(handles[k], A.data, rhs)))
        for k, rhs, future in futures:
            x = fleet.result(future, timeout=120)
            assert np.allclose(x, refs[k].solve(rhs), atol=1e-8)
        assert fleet.counters["shard_deaths"] == 1
        assert fleet.counters["cold_reregisters"] == 0

    def test_no_respawn_rebalances_to_survivors(self, fleet_cache):
        from repro.service.fleet import ShardFleet

        mats = self._matrices()
        with ShardFleet(2, cache_dir=fleet_cache, respawn=False) as fleet:
            handles = {k: fleet.register_pattern(A) for k, A in mats.items()}
            owned = {
                slot: s.get("registered_patterns", 0)
                for slot, s in fleet.stats()["per_shard"].items()
            }
            victim = int(next(slot for slot, n in owned.items() if n > 0))
            fleet.kill_shard(victim)
            for k, A in mats.items():
                x = fleet.solve(handles[k], A.data, np.ones(A.n))
                assert np.isfinite(x).all()
            stats = fleet.stats()
            assert stats["shards"] == 1
            assert stats["counters"]["rebalances"] == 1
            assert stats["counters"]["cold_reregisters"] == 0
            # Kill the last survivor: the fleet is empty and says so.
            survivor = int(next(iter(stats["per_shard"])))
            fleet.kill_shard(survivor)
            some = next(iter(handles.values()))
            A = mats[next(iter(mats))]
            with pytest.raises(ShardUnavailableError):
                fleet.solve(some, A.data, np.ones(A.n))

    def test_unknown_handle_maps_to_evicted(self, fleet):
        with pytest.raises(PatternEvictedError):
            fleet.solve("deadbeefdeadbeef", np.ones(3), np.ones(3))

    def test_evict_removes_from_fleet_and_shard(self, fleet):
        A = laplacian_2d(9, shift=0.15)
        handle = fleet.register_pattern(A)
        assert fleet.evict(handle)
        assert not fleet.evict(handle)
        with pytest.raises(PatternEvictedError):
            fleet.solve(handle, A.data, np.ones(A.n))

    def test_merged_metrics_have_per_shard_labels(self, fleet):
        A = laplacian_2d(8, shift=0.1)
        handle = fleet.register_pattern(A)
        fleet.solve(handle, A.data, np.ones(A.n))
        text = fleet.metrics_text()
        assert 'shard="0"' in text and 'shard="1"' in text
        assert "repro_fleet_shards 2" in text
        assert "repro_fleet_shard_deaths 0" in text
        # Well-formed exposition: every sample line is `name{labels} value`.
        for line in text.splitlines():
            if line and not line.startswith("#"):
                key, value = line.rsplit(" ", 1)
                float(value)
                assert 'shard="' in key or key.startswith("repro_fleet_")

    def test_endpoint_protocol_conformance(self, fleet):
        from repro.service import ServiceClient, SolverEndpoint, SolverService

        assert isinstance(fleet, SolverEndpoint)
        service = SolverService()
        try:
            assert isinstance(service, SolverEndpoint)
        finally:
            service.close()
        assert issubclass(ServiceClient, SolverEndpoint) or all(
            hasattr(ServiceClient, m)
            for m in (
                "register_pattern",
                "submit",
                "solve",
                "evict",
                "stats",
                "metrics_text",
                "close",
            )
        )

    def test_close_is_idempotent_and_kills_workers(self, fleet_cache):
        from repro.service.fleet import ShardFleet

        fleet = ShardFleet(2, cache_dir=fleet_cache)
        procs = [s.process for s in fleet._shards.values()]
        fleet.close()
        fleet.close()
        assert all(p.poll() is not None for p in procs)
        with pytest.raises(RuntimeError, match="closed"):
            fleet.register_pattern(laplacian_2d(6, shift=0.1))
