"""Shared fixtures for the test-suite."""

from __future__ import annotations

import contextlib
import threading

import numpy as np
import pytest

from repro.kernels.cholesky import cholesky_left_looking
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
from repro.symbolic.inspector import CholeskyInspector


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
    """Cholesky factors (exact, with fill) of the small SPD matrices."""
    factors = {}
    for name, A in spd_matrices.items():
        inspection = CholeskyInspector().inspect(A)
        factors[name] = cholesky_left_looking(A, inspection)
    return factors


@pytest.fixture()
def rng():
    """A seeded random generator for reproducible randomized tests."""
    return np.random.default_rng(12345)


@pytest.fixture()
def hold_dispatcher():
    """Park requests in a coalescer's queues: ``with hold_dispatcher(coalescer): ...``.

    Offers one request of its own and enters the block once the dispatcher
    thread is blocked inside it, so everything offered in the block stays
    queued until the block exits.  The held request never reaches the
    coalescer's own dispatch callable: no batch, admission slot or metric is
    spent on it.
    """

    @contextlib.contextmanager
    def hold(coalescer):
        entered, released = threading.Event(), threading.Event()
        dispatch, held = coalescer._dispatch, object()

        def dispatch_or_block(entry, batch):
            if entry is not held:
                return dispatch(entry, batch)
            entered.set()
            released.wait()
            return lambda: None

        coalescer._dispatch = dispatch_or_block
        coalescer.offer(held, held, held)
        assert entered.wait(timeout=10)
        try:
            yield
        finally:
            released.set()

    return hold
