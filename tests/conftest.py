"""Shared fixtures for the test-suite."""

from __future__ import annotations

import contextlib
import os
import threading
import time
import types
import weakref

import numpy as np
import pytest

from repro.sparse.generators import (
    banded_spd,
    block_tridiagonal_spd,
    circuit_like_spd,
    fem_stencil_2d,
    laplacian_2d,
    laplacian_3d,
    power_grid_spd,
    random_spd,
)
from repro.sparse.generators import arrow_spd

from oracles import cholesky_factor


def _spd_matrices():
    return {
        "laplacian_2d": laplacian_2d(7),
        "laplacian_3d": laplacian_3d(4),
        "fem": fem_stencil_2d(6),
        "banded": banded_spd(35, 4, seed=1),
        "block": block_tridiagonal_spd(5, 5, seed=2),
        "circuit": circuit_like_spd(48, seed=3),
        "random": random_spd(40, 0.06, seed=4),
        "grid": power_grid_spd(42, seed=5),
        "arrow": arrow_spd(30, 2, seed=6),
    }


@pytest.fixture(scope="session")
def spd_matrices():
    """A dictionary of small SPD matrices covering every generator class."""
    return _spd_matrices()


@pytest.fixture(scope="session", params=sorted(_spd_matrices().keys()))
def spd_matrix(request, spd_matrices):
    """Parametrized fixture yielding each small SPD matrix in turn."""
    return spd_matrices[request.param]


@pytest.fixture(scope="session")
def lower_factors(spd_matrices):
    """Cholesky factors (NumPy's, on the predicted pattern with fill) of the small SPD matrices."""
    return {name: cholesky_factor(A) for name, A in spd_matrices.items()}


@pytest.fixture()
def rng():
    """A seeded random generator for reproducible randomized tests."""
    return np.random.default_rng(12345)


def _park_next_step(solver, entered, released) -> None:
    """Make the next :meth:`step` of ``solver`` wait, holding its lock, for ``released``.

    A step is one native call (``_warm``) where the solver has one and the
    inputs allow it, else the composed step, whose solve runs through
    ``_solve_current``; both run under the solver's lock, and both park.
    """
    for name in ("_warm", "_solve_current"):
        call = getattr(solver, name)
        if call is None:
            continue

        def parked(*args, call=call):
            # Called under the solver's lock, so only one caller ever parks.
            if not entered.is_set():
                entered.set()
                released.wait()
            return call(*args)

        parked.__wrapped__ = call
        setattr(solver, name, parked)


def _unpark(solver) -> None:
    """Undo :func:`_park_next_step`: the instance's own ``_warm``, the class's ``_solve_current``."""
    solver.__dict__.pop("_solve_current")
    if solver._warm is not None:
        solver._warm = solver._warm.__wrapped__


@pytest.fixture()
def park_solve():
    """Park one service solve inside its solver's ``step``.

    ``with park_solve(service, handle) as parked:`` makes the next solve of
    ``handle``'s pattern wait inside ``step``, holding the solver's lock and
    its admission slot, until the block exits; ``parked.entered`` is set once
    a thread — a wire handler's, say — is parked there.  With
    ``values``/``rhs`` the fixture submits that solve itself, from a helper
    thread, and enters the block once it is parked; its future is
    ``parked.future`` after the block.  Only a weak reference to the solver is
    kept here, so an evicted pattern's solver lives on through the parked
    solve alone.
    """

    @contextlib.contextmanager
    def park(service, handle, values=None, rhs=None):
        entered, released = threading.Event(), threading.Event()
        parked = types.SimpleNamespace(entered=entered, future=None)
        solver = service._entries[service._resolve_key(handle.handle_id)].solver
        _park_next_step(solver, entered, released)
        solver_ref, solver = weakref.ref(solver), None
        helper = None
        if values is not None:

            def submit():
                parked.future = service.submit(handle, values, rhs)

            helper = threading.Thread(target=submit)
            helper.start()
            assert entered.wait(timeout=10)
        try:
            yield parked
        finally:
            released.set()
            if helper is not None:
                helper.join(timeout=30)
            solver = solver_ref()
            if solver is not None:
                _unpark(solver)

    return park


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(k)``: the process may run on ``k`` CPUs, as far as the build can tell."""

    def set_cpus(count: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)

    return set_cpus


def _running(pid: int) -> bool:
    """Whether ``pid`` is a process that still runs (a zombie does not)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except FileNotFoundError:
        return False


@pytest.fixture
def assert_pids_gone():
    """``assert_pids_gone(path)``: every pid listed in ``path`` has exited (within 5 s)."""

    def check(pid_file) -> None:
        if not os.path.isdir("/proc"):
            pytest.skip("needs procfs to see processes")
        pids = [int(line) for line in pid_file.read_text(encoding="utf-8").split()]
        assert pids, "the stand-in compiler never ran"
        deadline = time.monotonic() + 5.0
        while any(_running(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert [pid for pid in pids if _running(pid)] == []

    return check
