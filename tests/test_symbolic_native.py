"""The native symbolic helper against the Python twins in ``oracles.py``.

``native.c`` is the symbolic phase: every entry point returns what its
Python twin returns — ties, orders and dtypes included.  These tests hold
that invariant (one test per twin over the SPD zoo of ``conftest.py`` and
the unsymmetric patterns of ``test_lu.py``, and every entry point over a set
of edge-case patterns), the binding's argument checks, the error without a
helper (no compiler, a failing, hanging or useless one), the
one-build-per-toolchain build, the same library from the whole file and from
its two halves, and that the helper never shows up where generated code is
counted.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import textwrap

import numpy as np
import pytest

from repro import SparseLinearSolver, SympilerOptions
from repro.compiler import cache as cache_module
from repro.compiler.codegen.c_backend import CCompilationError
from repro.sparse.csc import CSCMatrix
from repro.sparse.generators import (
    arrow_spd,
    laplacian_2d,
    laplacian_3d,
    saddle_point_indefinite,
    unsymmetric_diag_dominant,
)
from repro.sparse.ordering import minimum_degree_ordering
from repro.sparse.utils import symmetrize_pattern
from repro.symbolic import native
from repro.symbolic.colcount import column_counts_of_factor
from repro.symbolic.etree import elimination_tree, postorder
from repro.symbolic.fill_pattern import factor_structure, lu_pattern
from repro.symbolic.inspector import inspect_cholesky
from repro.symbolic.reach import reach_set_from_arrays

from oracles import (
    elimination_tree_reference,
    factor_structure_reference,
    lower_triangle,
    lu_pattern_reference,
    minimum_degree_reference,
    postorder_reference,
    reach_set_reference,
    spd_zoo,
)
from test_lu import JACOBIANS

SRC_ROOT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

def _helper_builds() -> bool:
    try:
        native.helper()
    except CCompilationError:
        return False
    return True


needs_helper = pytest.mark.skipif(not _helper_builds(), reason="the native symbolic helper could not be built here")


# --------------------------------------------------------------------------- #
# Patterns
# --------------------------------------------------------------------------- #
def _from_mask(mask: np.ndarray) -> CSCMatrix:
    return CSCMatrix.from_dense(mask.astype(np.float64))


def _random_mask(n: int, density: float, seed: int, symmetric: bool) -> np.ndarray:
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < density
    if symmetric:
        mask |= mask.T
    # Every other pattern keeps its diagonal; the rest leave holes in it.
    if seed % 2 == 0:
        mask |= np.eye(n, dtype=bool)
    return mask


def _small_patterns() -> dict:
    two_grids = np.zeros((25, 25), dtype=bool)
    two_grids[:9, :9] = laplacian_2d(3).to_dense() != 0
    two_grids[9:, 9:] = laplacian_2d(4).to_dense() != 0
    patterns = {
        "saddle_point": saddle_point_indefinite(40, 15, seed=7),
        "unsymmetric": unsymmetric_diag_dominant(60, seed=8),
        "arrow": arrow_spd(35, 3, seed=9),
        "disconnected": _from_mask(two_grids),
        "no_entries": CSCMatrix.empty(6, 6),
        "zero_by_zero": CSCMatrix.empty(0, 0),
        "one_by_one": CSCMatrix.identity(1),
        "diagonal": CSCMatrix.identity(9),
        # One mid-size case per family.
        "mid_laplacian_3d": laplacian_3d(9),
        "mid_laplacian_2d": laplacian_2d(26),
        "mid_unsymmetric": unsymmetric_diag_dominant(300, seed=12),
    }
    for seed in range(20):
        n = 12 + 3 * seed
        patterns[f"random_symmetric_{seed}"] = _from_mask(_random_mask(n, 0.08, seed, True))
        patterns[f"random_unsymmetric_{seed}"] = _from_mask(_random_mask(n, 0.08, 100 + seed, False))
    return patterns


_PATTERNS = _small_patterns()


def _same(got: np.ndarray, expected: np.ndarray, what: str) -> None:
    assert got.dtype == np.int64, what
    assert got.shape == np.asarray(expected).shape, what
    assert np.array_equal(got, expected), what


def _check_every_entry_point(lib: native.NativeSymbolic, A: CSCMatrix) -> None:
    """Native against reference, entry point by entry point, on one pattern."""
    n = A.n
    S = symmetrize_pattern(A)
    if n:
        _same(
            lib.minimum_degree(n, S.indptr, S.indices),
            minimum_degree_reference(A).perm,
            "minimum degree",
        )

    parent = elimination_tree_reference(S)
    _same(lib.etree(n, S.indptr, S.indices), parent, "etree")
    _same(lib.postorder(parent), postorder_reference(parent), "postorder")

    expected = factor_structure_reference(S, parent)
    got = lib.factor_pattern(n, S.indptr, S.indices, parent)
    for name, g, e in zip(("row_ptr", "row_idx", "l_indptr", "l_indices"), got, expected):
        _same(g, e, f"factor pattern: {name}")
    row_ptr, row_idx, l_indptr, l_indices = expected
    for g, e in zip(lib.factor_counts(n, S.indptr, S.indices, parent), (row_ptr, l_indptr)):
        _same(g, e, "factor counts")

    for name, g, e in zip(
        ("l_indptr", "l_indices", "u_indptr", "u_indices"),
        lib.lu_pattern(n, A.indptr, A.indices),
        lu_pattern_reference(A),
    ):
        _same(g, e, f"lu pattern: {name}")

    # Reaches in DG_L of the factor just predicted.
    rng = np.random.default_rng(n)
    everything = np.arange(n, dtype=np.int64)
    some = np.sort(rng.choice(n, size=max(n // 5, 1), replace=False)) if n else everything
    for sources in (everything, everything[::-1].copy(), some, rng.permutation(some)):
        reach = reach_set_reference(n, l_indptr, l_indices, sources)
        _same(lib.reach(n, l_indptr, l_indices, sources), reach, "reach")


@pytest.fixture(
    params=[f"spd:{name}" for name in sorted(spd_zoo())]
    + [f"jacobian:{n}-{avg}-{seed}" for n, avg, seed in JACOBIANS]
)
def zoo(request, spd_matrices):
    """Each matrix of the SPD zoo, then each unsymmetric Jacobian of ``test_lu.py``."""
    kind, name = request.param.split(":")
    if kind == "spd":
        return spd_matrices[name]
    n, avg, seed = name.split("-")
    return unsymmetric_diag_dominant(int(n), avg_nnz_per_col=float(avg), seed=int(seed))


@needs_helper
class TestEachTwin:
    """The public symbolic functions (the helper) array-equal to their Python twins, one test per twin."""

    def test_elimination_tree(self, zoo):
        S = symmetrize_pattern(zoo)
        _same(elimination_tree(S), elimination_tree_reference(S), "etree")

    def test_postorder(self, zoo):
        parent = elimination_tree_reference(symmetrize_pattern(zoo))
        _same(postorder(parent), postorder_reference(parent), "postorder")

    def test_factor_structure(self, zoo):
        S = symmetrize_pattern(zoo)
        parent = elimination_tree_reference(S)
        expected = factor_structure_reference(S, parent)
        for name, got, e in zip(("row_ptr", "row_idx", "l_indptr", "l_indices"), factor_structure(S, parent), expected):
            _same(got, e, f"factor structure: {name}")
        _same(column_counts_of_factor(S, parent), np.diff(expected[2]), "column counts")

    def test_lu_pattern(self, zoo):
        for name, got, e in zip(
            ("l_indptr", "l_indices", "u_indptr", "u_indices"), lu_pattern(zoo), lu_pattern_reference(zoo)
        ):
            _same(got, e, f"lu pattern: {name}")

    def test_reach_order(self, zoo):
        l_indptr, l_indices = lu_pattern_reference(zoo)[:2]
        n = zoo.n
        rng = np.random.default_rng(n)
        some = np.sort(rng.choice(n, size=max(n // 5, 1), replace=False))
        for sources in (np.arange(n), np.arange(n)[::-1].copy(), some, rng.permutation(some)):
            got = reach_set_from_arrays(n, l_indptr, l_indices, sources)
            _same(got, reach_set_reference(n, l_indptr, l_indices, sources), "reach")

    def test_minimum_degree(self, zoo):
        _same(minimum_degree_ordering(zoo).perm, minimum_degree_reference(zoo).perm, "minimum degree")


@needs_helper
class TestNativeMatchesReference:
    @pytest.mark.parametrize("name", sorted(_PATTERNS))
    def test_on(self, name):
        _check_every_entry_point(native.helper(), _PATTERNS[name])

    def test_lower_only_storage_gives_the_same_tree_and_factor(self, spd_matrix):
        
        lower = lower_triangle(spd_matrix)
        assert np.array_equal(elimination_tree(lower), elimination_tree(spd_matrix))
        for got, expected in zip(factor_structure(lower)[2:], factor_structure(spd_matrix)[2:]):
            assert np.array_equal(got, expected)

    def test_a_cycle_is_not_a_forest(self):
        with pytest.raises(ValueError, match="cycle"):
            native.helper().postorder(np.array([1, 0]))


# --------------------------------------------------------------------------- #
# Argument validation: nothing malformed reaches C
# --------------------------------------------------------------------------- #
@needs_helper
class TestBindingValidation:
    GOOD = (4, np.array([0, 1, 2, 3, 4]), np.array([0, 1, 2, 3]))

    @pytest.mark.parametrize(
        "indptr, indices",
        [
            (np.array([0, 1, 2, 3, 4]), np.array([0, 1, 2, 4])),  # row 4 of 4
            (np.array([0, 1, 2, 3, 4]), np.array([0, -1, 2, 3])),  # negative row
            (np.array([0, 2, 1, 3, 4]), np.array([0, 1, 2, 3])),  # pointer steps back
            (np.array([1, 1, 2, 3, 4]), np.array([0, 1, 2, 3])),  # does not start at 0
            (np.array([0, 1, 2, 3, 9]), np.array([0, 1, 2, 3])),  # runs past the indices
            (np.array([0, 1, 2, 4]), np.array([0, 1, 2, 3])),  # wrong length
        ],
    )
    def test_malformed_patterns_are_rejected(self, indptr, indices):
        lib = native.helper()
        n = 4
        parent = np.full(n, -1, dtype=np.int64)
        calls = [
            lambda: lib.minimum_degree(n, indptr, indices),
            lambda: lib.etree(n, indptr, indices),
            lambda: lib.factor_pattern(n, indptr, indices, parent),
            lambda: lib.factor_counts(n, indptr, indices, parent),
            lambda: lib.lu_pattern(n, indptr, indices),
            lambda: lib.reach(n, indptr, indices, np.array([0])),
        ]
        for call in calls:
            with pytest.raises(ValueError):
                call()

    @pytest.mark.parametrize("parent", [np.array([1, 2, 3, 4]), np.array([-2, -1, -1, -1])])
    def test_out_of_range_parents_are_rejected(self, parent):
        lib = native.helper()
        n, indptr, indices = self.GOOD
        for call in (
            lambda: lib.postorder(parent),
            lambda: lib.factor_pattern(n, indptr, indices, parent),
        ):
            with pytest.raises(ValueError):
                call()
        with pytest.raises(ValueError, match="one entry per column"):
            lib.factor_pattern(n, indptr, indices, np.array([-1, -1]))

    def test_out_of_range_sources_are_rejected(self):
        lib = native.helper()
        n, indptr, indices = self.GOOD
        for bad in (np.array([4]), np.array([-1])):
            with pytest.raises(ValueError):
                lib.reach(n, indptr, indices, bad)
        # The public wrappers keep the errors they always raised.
        with pytest.raises(IndexError):
            reach_set_from_arrays(n, indptr, indices, [4])

    def test_an_unsymmetric_pattern_is_refused_not_followed(self):
        # 0 reaches 1 but 1 does not reach 0: absorbing 0 would outgrow 1's slot.
        with pytest.raises(ValueError, match="symmetric"):
            native.helper().minimum_degree(3, np.array([0, 1, 2, 3]), np.array([1, 2, 1]))


# --------------------------------------------------------------------------- #
# Without the helper: an error naming the compiler and the reason, one event
# --------------------------------------------------------------------------- #
#: Every public symbolic function, each on a pattern it accepts.
_PUBLIC_CALLS = {
    "minimum_degree_ordering": lambda: minimum_degree_ordering(laplacian_2d(5)),
    "elimination_tree": lambda: elimination_tree(laplacian_2d(5)),
    "postorder": lambda: postorder(np.array([2, 2, -1])),
    "factor_structure": lambda: factor_structure(CSCMatrix.identity(3), np.full(3, -1)),
    "column_counts_of_factor": lambda: column_counts_of_factor(CSCMatrix.identity(3), np.full(3, -1)),
    "lu_pattern": lambda: lu_pattern(unsymmetric_diag_dominant(20, seed=3)),
    "reach_set_from_arrays": lambda: reach_set_from_arrays(3, np.arange(4), np.arange(3), [0]),
    "inspect_cholesky": lambda: inspect_cholesky(laplacian_2d(5)),
}


def _fake_compiler(tmp_path, body: str) -> str:
    path = tmp_path / "fake-cc"
    path.write_text(f"#!/bin/sh\n{body}\n", encoding="utf-8")
    path.chmod(0o755)
    return str(path)


@pytest.fixture()
def build_attempts(monkeypatch) -> list:
    """One entry per attempt this process makes to build and load the helper."""
    attempts = []
    load = native._load_library

    def counted():
        attempts.append(1)
        return load()

    monkeypatch.setattr(native, "_load_library", counted)
    return attempts


class TestWithoutTheHelper:
    def test_without_a_compiler_every_public_function_raises_and_one_build_is_tried(
        self, fresh_loader, build_attempts
    ):
        fresh_loader("/nonexistent/native-test-cc")
        for name, call in _PUBLIC_CALLS.items():
            with pytest.raises(CCompilationError, match="/nonexistent/native-test-cc") as caught:
                call()
            assert "no compiler" in str(caught.value) and "REPRO_CC" in str(caught.value), name
        # Once per process: not per call, not per entry point.
        assert len(build_attempts) == 1

    @pytest.mark.parametrize(
        "body, reason",
        [
            ("echo 'native.c:1: error: no' >&2; exit 1", "compile error"),
            ("exec sleep 30", "timeout"),
            # "Succeeds", but what it writes to -o is not a shared object.
            ('while [ "$1" != "-o" ]; do shift; done; head -c 100 /dev/zero > "$2"', "unloadable"),
        ],
    )
    def test_a_useless_compiler_is_tried_once_and_every_error_names_the_reason(
        self, fresh_loader, build_attempts, monkeypatch, tmp_path, body, reason
    ):
        monkeypatch.setattr(native, "_CC_TIMEOUT_SECONDS", 0.3)
        compiler = _fake_compiler(tmp_path, body)
        fresh_loader(compiler)
        for _ in range(2):
            with pytest.raises(CCompilationError, match=f"unavailable \\({reason}\\)") as caught:
                native.helper()
            # Every reason names the compiler; an unloadable build, the object too.
            assert compiler in str(caught.value)
            assert reason != "unloadable" or ".so" in str(caught.value)
        with pytest.raises(CCompilationError, match=reason):
            minimum_degree_ordering(laplacian_2d(5))
        assert len(build_attempts) == 1
        # Nothing half-made is left for the next process to trip over.
        leftovers = [
            name
            for _, _, names in os.walk(tmp_path)
            for name in names
            if name != "fake-cc"
        ]
        assert leftovers == []

    @pytest.mark.parametrize("backend", ["c", "python"])
    def test_a_solver_raises_before_it_orders(self, fresh_loader, backend):
        fresh_loader("/nonexistent/native-test-cc")
        for ordering in ("mindeg", "natural"):
            with pytest.raises(CCompilationError, match="/nonexistent/native-test-cc"):
                SparseLinearSolver(laplacian_2d(6), ordering=ordering, options=SympilerOptions(backend=backend))


# --------------------------------------------------------------------------- #
# The build: once per toolchain, repaired once, invisible to the artifact cache
# --------------------------------------------------------------------------- #
def _subprocess_env(tmp_path, **extra) -> dict:
    tmp = tmp_path / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp), **extra)
    env["PYTHONPATH"] = SRC_ROOT + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _helper_objects(tmp_path) -> list:
    directory = tmp_path / "tmp" / f"repro-native-{os.getuid()}"
    return sorted(directory.iterdir()) if directory.exists() else []


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
class TestHelperBuild:
    def test_a_truncated_helper_is_rebuilt_once(self, monkeypatch, tmp_path):
        env = _subprocess_env(tmp_path, REPRO_CC="cc")
        populate = "from repro.symbolic import native; assert native.helper() is not None"
        subprocess.run([sys.executable, "-c", populate], check=True, env=env, timeout=300)
        (so_path,) = _helper_objects(tmp_path)
        os.truncate(so_path, 100)

        outcomes = []
        build_file_once = cache_module.build_file_once

        def recorded(*args, **kwargs):
            outcomes.append(build_file_once(*args, **kwargs))
            return outcomes[-1]

        monkeypatch.setattr(cache_module, "build_file_once", recorded)
        monkeypatch.setenv("REPRO_CC", "cc")
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
        monkeypatch.setattr(native, "_LOADER", native._Loader())
        lib = native.helper()
        assert lib is not None
        assert np.array_equal(lib.postorder(np.array([2, 2, -1])), [0, 1, 2])
        # The truncated file answered "hit", failed to load and was built once again.
        assert outcomes == ["hit", "built"]
        assert os.path.getsize(so_path) > 100

    def test_two_cold_processes_run_one_cc_between_them(self, tmp_path):
        real_cc = shutil.which("cc")
        shim_dir = tmp_path / "shim"
        shim_dir.mkdir()
        cc_log = tmp_path / "cc.log"
        shim = shim_dir / "cc"
        shim.write_text(
            f'#!/bin/sh\necho "$@" >> "{cc_log}"\nsleep 0.2\nexec "{real_cc}" "$@"\n',
            encoding="utf-8",
        )
        shim.chmod(0o755)
        worker = textwrap.dedent(
            """
            import os, sys, time
            import numpy as np
            from repro.sparse.generators import laplacian_2d
            from repro.sparse.ordering import minimum_degree_ordering
            from repro.symbolic import native

            # Hold both workers at one start line so the cold builds overlap.
            deadline = time.time() + 60
            while not os.path.exists(sys.argv[1]):
                if time.time() > deadline:
                    sys.exit(3)
                time.sleep(0.005)
            perm = minimum_degree_ordering(laplacian_2d(10)).perm
            print("RESULT", native.helper() is not None, int((perm * np.arange(perm.size)).sum()))
            """
        )
        go_file = tmp_path / "go"
        env = _subprocess_env(tmp_path, REPRO_CC="cc")
        env["PATH"] = f"{shim_dir}{os.pathsep}{env.get('PATH', '')}"
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", worker, str(go_file)],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env=env,
                text=True,
            )
            for _ in range(2)
        ]
        go_file.write_text("go", encoding="utf-8")
        results = []
        for proc in procs:
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, f"worker failed (rc={proc.returncode}): {err}"
            results += [line for line in out.splitlines() if line.startswith("RESULT")]
        assert len(results) == 2 and results[0] == results[1]
        assert results[0].split()[1] == "True"
        # One build between the two: on one CPU the whole file in one
        # command, on two each REPRO_PART half compiled once and one link.
        invocations = [line.split() for line in cc_log.read_text(encoding="utf-8").splitlines() if line]
        compiled = sorted(os.path.basename(args[-1]) for args in invocations if "-c" in args)
        links = [args for args in invocations if "-c" not in args]
        assert len(links) == 1
        if len(os.sched_getaffinity(0)) == 1:
            assert compiled == [] and links[0][-1].endswith("native.c")
        else:
            stem = os.path.basename(links[0][links[0].index("-o") + 1]).split(".so")[0]
            assert compiled == [f"{stem}.part0.c", f"{stem}.part1.c"]
        assert len(_helper_objects(tmp_path)) == 1  # no lock, no temp file left

    def test_the_artifact_cache_reads_as_it_did_without_the_helper(self, tmp_path):
        """Names and counters after one cold C-backend solver build, pinned.

        These are what the same build leaves without the helper: the helper
        writes nothing under ``REPRO_SYMPILER_CACHE`` and bumps no
        ``disk_cache_stats()`` counter.  (A change to the generated C changes
        the fingerprint; the helper must not.)
        """
        cache = tmp_path / "cache"
        cache.mkdir()
        script = textwrap.dedent(
            """
            import json, os
            from repro import SparseLinearSolver, SympilerOptions, laplacian_2d
            from repro.compiler.codegen.c_backend import disk_cache_stats
            from repro.symbolic import native

            options = SympilerOptions(
                backend="c", c_compiler="cc", c_flags=("-O2", "-fPIC", "-shared")
            )
            SparseLinearSolver(laplacian_2d(12), method="cholesky", ordering="mindeg", options=options)
            print(json.dumps({
                "native": native.helper() is not None,
                "files": sorted(os.listdir(os.environ["REPRO_SYMPILER_CACHE"])),
                "stats": disk_cache_stats().as_dict(),
            }))
            """
        )
        env = _subprocess_env(tmp_path, REPRO_CC="cc", REPRO_SYMPILER_CACHE=str(cache))
        env.pop("REPRO_CFLAGS", None)
        done = subprocess.run(
            [sys.executable, "-c", script],
            check=True,
            env=env,
            timeout=300,
            capture_output=True,
            text=True,
        )
        report = json.loads(done.stdout.splitlines()[-1])
        assert report["native"] is True
        assert report["files"] == [
            "cholesky_5202ccac9b53f571.c",
            "cholesky_5202ccac9b53f571.so",
        ]
        assert report["stats"] == {
            "compiles": 1,
            "reuses": 0,
            "py_writes": 0,
            "lock_waits": 0,
        }
        # The helper is toolchain: it lives beside the system's temp files.
        (so_path,) = _helper_objects(tmp_path)
        assert so_path.name.startswith("symbolic_") and so_path.suffix == ".so"

    def test_build_and_ordering_are_spans_of_the_set_up(self, fresh_loader):
        from repro import observe

        observe.enable()
        try:
            observe.get_tracer().clear()
            fresh_loader("cc")
            SparseLinearSolver(laplacian_2d(5), options=SympilerOptions(backend="python"))
            spans = {sp.name: sp for sp in observe.get_tracer().spans()}
        finally:
            observe.disable()
            observe.get_tracer().clear()
        ordering, build = spans["ordering"], spans["native-build"]
        assert ordering.attrs == {"name": "mindeg", "n": 25, "nnz": 105}
        assert build.parent_id == ordering.span_id  # the ordering needed it first
        assert build.attrs["compiler"] == "cc" and build.attrs["source_bytes"] > 0
        assert build.attrs["parts"] == min(2, len(os.sched_getaffinity(0)))
        assert len(build.attrs["part_s"]) == build.attrs["parts"]


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
class TestTwoPartBuild:
    """The helper built from its two ``REPRO_PART`` halves is the whole-file helper."""

    @staticmethod
    def _build(monkeypatch, directory):
        directory.mkdir()
        monkeypatch.setenv("REPRO_CC", "cc")
        monkeypatch.setattr(tempfile, "tempdir", str(directory))
        lib = native._load_library()
        return native.NativeSymbolic(lib), lib._name

    def test_the_same_symbols_and_the_same_arrays(self, monkeypatch, tmp_path, cpus):
        cpus(1)
        whole, whole_so = self._build(monkeypatch, tmp_path / "whole")
        cpus(2)
        parts, parts_so = self._build(monkeypatch, tmp_path / "parts")
        if shutil.which("nm"):

            def symbols(path):
                listing = subprocess.run(
                    ["nm", "-D", "--defined-only", path], capture_output=True, text=True, check=True
                ).stdout
                return sorted(line.split()[-2:] for line in listing.splitlines() if line.strip())

            assert symbols(parts_so) == symbols(whole_so)
            assert ["T", "repro_warm_step"] in symbols(parts_so)
        for A in _PATTERNS.values():
            for lib in (whole, parts):
                _check_every_entry_point(lib, A)

    @pytest.mark.parametrize("count", [1, 2])
    def test_a_timed_out_build_leaves_no_process_behind(
        self, fresh_loader, monkeypatch, tmp_path, cpus, assert_pids_gone, count
    ):
        monkeypatch.setattr(native, "_CC_TIMEOUT_SECONDS", 0.5)
        cpus(count)
        pids = tmp_path / "pids"
        compiler = _fake_compiler(tmp_path, f'sleep 30 > /dev/null 2>&1 &\necho $! >> "{pids}"\nwait')
        fresh_loader(compiler)
        with pytest.raises(CCompilationError, match=r"unavailable \(timeout\)") as caught:
            native.helper()
        assert compiler in str(caught.value)
        assert len(pids.read_text(encoding="utf-8").split()) == count
        assert_pids_gone(pids)

    def test_one_cpu_runs_one_cc(self, fresh_loader, tmp_path, cpus):
        cpus(1)
        log = tmp_path / "cc.log"
        fresh_loader(_fake_compiler(tmp_path, f'echo "$@" >> "{log}"\nexec cc "$@"'))
        assert native.helper() is not None
        (command,) = log.read_text(encoding="utf-8").splitlines()
        assert command.endswith("native.c") and "-c" not in command.split()
