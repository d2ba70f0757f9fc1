"""The four workloads: fixed patterns, seeded values and right-hand sides.

Pattern sizes and generator seeds are fixed here, so set-up work and the size
of the generated code are the same for every benchmark seed; the benchmark
seed only drives the values and right-hand sides of :class:`InputStream`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np
import scipy.sparse as sp

from repro.sparse import generators as g
from repro.sparse.csc import CSCMatrix


@dataclass(frozen=True)
class Pattern:
    name: str
    build: Callable[[], CSCMatrix]
    #: The route the front end's probes must pick (and the kernel the service
    #: workload registers explicitly).
    route: str


@dataclass(frozen=True)
class Workload:
    name: str
    patterns: Tuple[Pattern, ...]
    #: Step kinds of one closed-loop cycle, run on every pattern in turn:
    #: ``"refactor"`` = new values and new rhs, ``"rhs"`` = unchanged values
    #: and a new rhs.
    cycle: Tuple[str, ...]
    #: ``"front"`` drives ``SpecializedSolver.solve``; ``"serve"`` drives a
    #: ``SolverService`` over the wire and never touches the front end.
    entry: str = "front"


def _zoo(smoke: bool) -> Tuple[Pattern, ...]:
    if smoke:
        return (
            Pattern("laplacian_2d", lambda: g.laplacian_2d(12), "cholesky"),
            Pattern("saddle_point", lambda: g.saddle_point_indefinite(120, 40, seed=11), "ldlt"),
            Pattern("unsymmetric", lambda: g.unsymmetric_diag_dominant(150, seed=12), "lu"),
            Pattern("banded", lambda: g.banded_spd(160, 4, seed=3), "cholesky"),
        )
    # The first three cover the three direct routes; the per-layer ladder runs
    # on them.  Sizes are what twelve cold `cc` runs allow inside one
    # benchmark run (see README: the 9-point FEM stencil and the LU pattern
    # are the expensive ones to compile).
    return (
        Pattern("laplacian_2d", lambda: g.laplacian_2d(26), "cholesky"),
        Pattern("saddle_point", lambda: g.saddle_point_indefinite(900, 300, seed=11), "ldlt"),
        Pattern("unsymmetric", lambda: g.unsymmetric_diag_dominant(650, seed=12), "lu"),
        Pattern("laplacian_3d", lambda: g.laplacian_3d(9), "cholesky"),
        Pattern("fem_stencil_2d", lambda: g.fem_stencil_2d(18), "cholesky"),
        Pattern("banded", lambda: g.banded_spd(1500, 6, seed=3), "cholesky"),
        Pattern("block_tridiagonal", lambda: g.block_tridiagonal_spd(120, 8, seed=4), "cholesky"),
        Pattern("circuit_like", lambda: g.circuit_like_spd(1500, seed=5), "cholesky"),
        Pattern("power_grid", lambda: g.power_grid_spd(2000, seed=6), "cholesky"),
        Pattern("random", lambda: g.random_spd(800, 0.004, seed=7), "cholesky"),
        Pattern("arrow", lambda: g.arrow_spd(2000, 4, seed=8), "cholesky"),
        Pattern("random_sparse", lambda: g.random_spd(1200, 0.002, seed=9), "cholesky"),
    )


def _serve_patterns(smoke: bool) -> Tuple[Pattern, ...]:
    if smoke:
        return _zoo(True)[:3]
    return (
        Pattern("laplacian_2d", lambda: g.laplacian_2d(36), "cholesky"),
        Pattern("saddle_point", lambda: g.saddle_point_indefinite(900, 300, seed=11), "ldlt"),
        Pattern("unsymmetric", lambda: g.unsymmetric_diag_dominant(800, seed=12), "lu"),
    )


NAMES = ("newton_2d", "multirhs_3d", "cold_zoo", "serve_mixed")


def get(name: str, smoke: bool = False) -> Workload:
    """The workload called ``name`` (tiny python-backend sizes with ``smoke``)."""
    if name == "newton_2d":
        nx = 14 if smoke else 60
        pattern = Pattern("laplacian_2d", lambda: g.laplacian_2d(nx), "cholesky")
        # A full Newton step, then a chord step that reuses the factor.
        return Workload(name, (pattern,), ("refactor", "rhs"))
    if name == "multirhs_3d":
        nx = 6 if smoke else 15
        pattern = Pattern("laplacian_3d", lambda: g.laplacian_3d(nx), "cholesky")
        return Workload(name, (pattern,), ("refactor",) + ("rhs",) * 6)
    if name == "cold_zoo":
        return Workload(name, _zoo(smoke), ("refactor", "rhs"))
    if name == "serve_mixed":
        return Workload(name, _serve_patterns(smoke), ("refactor", "rhs"), entry="serve")
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")


class InputStream:
    """Seeded values and right-hand sides on one fixed pattern.

    The k-th matrix and the k-th rhs depend only on ``(seed, key)``, never on
    how long a run lasted.  Values are ``D A D`` with a random positive
    diagonal ``D``: a congruence, so symmetry, definiteness and the inertia of
    the saddle-point pattern are kept, and the pattern never changes.
    """

    def __init__(self, base: CSCMatrix, seed: int, key: Tuple[int, ...]) -> None:
        self.base = base
        self.n = base.n
        self.shape = base.shape
        self._values_rng = np.random.default_rng([seed, *key, 0])
        self._rhs_rng = np.random.default_rng([seed, *key, 1])
        # scipy stores int32 indices; convert once instead of on every step.
        self._indices = base.indices.astype(np.int32)
        self._indptr = base.indptr.astype(np.int32)
        self._cols = np.repeat(np.arange(self.n), np.diff(base.indptr))

    def values(self) -> np.ndarray:
        d = 1.0 + 0.2 * self._values_rng.random(self.n)
        return self.base.data * (d[self.base.indices] * d[self._cols])

    def as_scipy(self, values: np.ndarray) -> sp.csc_matrix:
        return sp.csc_matrix((values, self._indices, self._indptr), shape=self.shape)

    def matrix(self) -> sp.csc_matrix:
        return self.as_scipy(self.values())

    def rhs(self) -> np.ndarray:
        return self._rhs_rng.standard_normal(self.n)


def streams(workload: Workload, seed: int, lane: int = 0, bases=None):
    """One ``(pattern, base matrix, InputStream)`` triple per pattern.

    ``lane`` selects an independent stream on the same patterns (one per
    pipelined connection); ``bases`` reuses already built pattern matrices.
    """
    index = NAMES.index(workload.name)
    out = []
    for k, pattern in enumerate(workload.patterns):
        base = bases[k] if bases else pattern.build()
        out.append((pattern, base, InputStream(base, seed, (index, k, lane))))
    return out


def input_digest(name: str, seed: int, smoke: bool = False, steps: int = 3) -> str:
    """SHA-256 over the first ``steps`` generated inputs of every pattern."""
    h = hashlib.sha256()
    for _, base, stream in streams(get(name, smoke), seed):
        h.update(base.indptr.tobytes())
        h.update(base.indices.tobytes())
        for _ in range(steps):
            h.update(stream.values().tobytes())
            h.update(stream.rhs().tobytes())
    return h.hexdigest()
