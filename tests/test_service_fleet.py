"""Fleet tests: fingerprint routing, shard failover, warm re-registration."""

from __future__ import annotations

import collections
import hashlib
import os
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.compiler.codegen.runtime import pattern_fingerprint
from repro.service.errors import PatternEvictedError
from repro.service.fleet import shard_for
from repro.solvers.linear_solver import SparseLinearSolver
from repro.sparse.generators import fem_stencil_2d, laplacian_2d

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _fingerprint(key: str) -> str:
    return hashlib.sha256(key.encode()).hexdigest()[:16]


class TestShardFor:
    def test_routes_are_deterministic(self):
        keys = [_fingerprint(f"pattern-{i}") for i in range(200)]
        slots = [shard_for(k, 3) for k in keys]
        assert slots == [shard_for(k, 3) for k in keys]
        assert set(slots) <= {0, 1, 2}

    def test_all_slots_get_load(self):
        counts = collections.Counter(shard_for(_fingerprint(f"key-{i}"), 4) for i in range(2000))
        assert set(counts) == {0, 1, 2, 3}
        # The fingerprint is a hash: no shard gets more than ~3x another.
        assert max(counts.values()) < 3 * min(counts.values())

    def test_the_slot_is_the_fingerprint_modulo_the_shards(self):
        assert shard_for("000000000000000b", 4) == 3
        assert shard_for("ffffffffffffffff", 3) == 0xFFFFFFFFFFFFFFFF % 3
        # A one-shard fleet sends every pattern to slot 0.
        assert {shard_for(_fingerprint(f"k-{i}"), 1) for i in range(50)} == {0}


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
        # The pattern is registered on exactly one shard: the slot its
        # fingerprint routes to.
        owners = [
            slot
            for slot, s in stats["per_shard"].items()
            if h1.handle_id in s.get("patterns", {})
        ]
        fingerprint = pattern_fingerprint(A.indptr, A.indices, extra=f"n={A.n}")
        assert owners == [str(shard_for(fingerprint, 2))]

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

    def test_a_dead_shard_respawns_in_its_own_slot(self, fleet):
        """The slots never change, so no pattern changes owner on a failover."""
        A = laplacian_2d(10, shift=0.1)
        handle = fleet.register_pattern(A)
        fingerprint = pattern_fingerprint(A.indptr, A.indices, extra=f"n={A.n}")
        slot = shard_for(fingerprint, 2)
        old_pid = fleet._shards[slot].process.pid
        fleet.kill_shard(slot)
        x = fleet.solve(handle, A.data, np.ones(A.n))
        assert np.isfinite(x).all()
        assert fleet._shards[slot].process.pid != old_pid
        per_shard = fleet.stats()["per_shard"]
        assert sorted(per_shard) == ["0", "1"]
        assert handle.handle_id in per_shard[str(slot)].get("patterns", {})
        assert fleet.counters["respawns"] == 1

    def test_solve_fails_over_through_submit(self, fleet, monkeypatch):
        """A synchronous solve on a killed owner recovers on submit's one failover path."""
        A = laplacian_2d(10, shift=0.15)
        handle = fleet.register_pattern(A)
        rhs = np.cos(np.arange(A.n, dtype=np.float64))
        before = fleet.solve(handle, A.data, rhs)
        submits = []
        submit = fleet.submit
        monkeypatch.setattr(fleet, "submit", lambda *args: submits.append(args) or submit(*args))
        fleet.kill_shard(shard_for(handle.fingerprint, 2))
        after = fleet.solve(handle, A.data, rhs)
        assert np.array_equal(after, before)
        assert len(submits) == 1
        assert fleet.counters["failovers"] == 1
        assert fleet.counters["shard_deaths"] == 1

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

    def test_complex_input_is_refused_naming_its_dtype(self, fleet):
        A = laplacian_2d(8, shift=0.1)
        rhs = np.ones(A.n)
        handle = fleet.register_pattern(A)

        def submitted(*args):  # a pipelined solve carries its error in the future
            return fleet.result(fleet.submit(*args), timeout=60)

        for call in (fleet.solve, submitted):
            with pytest.raises(ValueError, match="values has complex dtype complex128"):
                call(handle, A.data * (1 + 1j), rhs)
            with pytest.raises(ValueError, match="rhs has complex dtype complex128"):
                call(handle, A.data, rhs + 1j)
        assert np.isfinite(fleet.solve(handle, A.data, rhs)).all()

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

    def test_a_close_during_recovery_retires_the_replacement(self, fleet_cache):
        """close() racing a failover must not leave the new worker running."""
        from repro.service.fleet import ShardFleet

        fleet = ShardFleet(1, cache_dir=fleet_cache)
        spawn, spawned = fleet._spawn, []

        def spawn_then_close(slot, generation):
            spawned.append(spawn(slot, generation))
            fleet.close()
            return spawned[-1]

        fleet._spawn = spawn_then_close
        dead = fleet._shards[0]
        fleet.kill_shard(0)
        try:
            fleet._recover(0, dead.generation)
            assert spawned and spawned[0].process.poll() is not None
        finally:
            for shard in spawned:
                shard.process.kill()
                shard.process.wait(timeout=10)
            fleet.close()

    def test_workers_exit_with_their_owner(self, fleet_cache, tmp_path, assert_pids_gone):
        """An owner that ends without close() takes its workers with it: their stdin reaches EOF."""
        pids = tmp_path / "pids"
        owner = textwrap.dedent(
            """
            import sys
            from repro.service.fleet import ShardFleet

            fleet = ShardFleet(1, cache_dir=sys.argv[1])
            with open(sys.argv[2], "w") as fh:
                fh.write(str(fleet._shards[0].process.pid))
            # Exits with the fleet open.
            """
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-c", owner, str(fleet_cache), str(pids)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        try:
            assert_pids_gone(pids, seconds=10.0)
        finally:
            for pid in pids.read_text(encoding="utf-8").split():
                try:
                    os.kill(int(pid), signal.SIGKILL)
                except ProcessLookupError:
                    pass

    def test_close_is_idempotent_and_kills_workers(self, fleet_cache):
        from repro.service.fleet import ShardFleet

        fleet = ShardFleet(2, cache_dir=fleet_cache)
        procs = [s.process for s in fleet._shards]
        fleet.close()
        fleet.close()
        assert all(p.poll() is not None for p in procs)
        with pytest.raises(RuntimeError, match="closed"):
            fleet.register_pattern(laplacian_2d(6, shift=0.1))
