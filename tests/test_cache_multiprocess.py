"""Cross-process single-flight compile tests for the shared disk cache.

The fleet's warm-failover guarantee rests on ``build_file_once``: when
several *processes* (shard workers, parallel CI jobs) cold-miss on the same
compiled artifact concurrently, exactly one runs the compiler and every
process ends up with a working artifact.  These tests drive the primitive
directly (threads standing in for processes exercise the same lockfile) and
then the real thing: two subprocesses cold-compiling the same pattern with
the C backend behind a ``cc`` shim that logs every compiler invocation.
The failure modes of ``build_and_load``, the ``cc`` runner built on it, are
driven with stand-in compiler commands.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.compiler.cache import build_and_load, build_file_once
from repro.observe.events import get_event_log

SRC_ROOT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _publish(path: str, payload: str = "artifact") -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(payload)
    os.replace(tmp, path)


class TestBuildFileOnce:
    def test_existing_target_is_a_hit(self, tmp_path):
        target = str(tmp_path / "artifact.so")
        _publish(target)
        calls = []
        assert build_file_once(target, lambda: calls.append(1)) == "hit"
        assert not calls

    def test_winner_builds_and_releases_the_lock(self, tmp_path):
        target = str(tmp_path / "artifact.so")
        outcome = build_file_once(target, lambda: _publish(target))
        assert outcome == "built"
        assert os.path.exists(target)
        assert not os.path.exists(target + ".lock")

    def test_concurrent_callers_run_exactly_one_builder(self, tmp_path):
        target = str(tmp_path / "artifact.so")
        builds = []
        build_lock = threading.Lock()
        start = threading.Barrier(8)
        outcomes = []

        def builder():
            with build_lock:
                builds.append(threading.get_ident())
            time.sleep(0.05)  # widen the race window
            _publish(target)

        def contend():
            start.wait()
            outcomes.append(build_file_once(target, builder))

        threads = [threading.Thread(target=contend) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert len(builds) == 1
        assert outcomes.count("built") == 1
        assert sorted(set(outcomes)) in (["built", "waited"], ["built"])
        with open(target, encoding="utf-8") as fh:
            assert fh.read() == "artifact"

    def test_winner_failure_lets_a_waiter_rebuild(self, tmp_path):
        target = str(tmp_path / "artifact.so")

        def failing():
            raise RuntimeError("compiler exploded")

        with pytest.raises(RuntimeError, match="exploded"):
            build_file_once(target, failing)
        # The lock was released with nothing published: the next caller
        # becomes the winner and surfaces a working artifact.
        assert not os.path.exists(target + ".lock")
        assert build_file_once(target, lambda: _publish(target)) == "built"
        assert os.path.exists(target)

    def test_stale_lock_from_a_dead_process_is_broken(self, tmp_path):
        target = str(tmp_path / "artifact.so")
        lock = target + ".lock"
        with open(lock, "w", encoding="utf-8") as fh:
            fh.write("999999\n")  # a pid that died without cleanup
        ancient = time.time() - 3600
        os.utime(lock, (ancient, ancient))
        outcome = build_file_once(
            target, lambda: _publish(target), stale_lock_seconds=1.0
        )
        assert outcome == "built"
        assert os.path.exists(target)
        assert not os.path.exists(lock)

    def test_timeout_builds_redundantly_instead_of_failing(self, tmp_path):
        target = str(tmp_path / "artifact.so")
        lock = target + ".lock"
        with open(lock, "w", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")  # a live-looking (fresh) lock
        outcome = build_file_once(
            target,
            lambda: _publish(target),
            timeout_seconds=0.2,
            stale_lock_seconds=3600.0,
        )
        assert outcome == "built"
        assert os.path.exists(target)
        os.unlink(lock)


class _BuildError(Exception):
    def __init__(self, reason: str, detail: str) -> None:
        super().__init__(f"{reason}: {detail}")
        self.reason = reason


class TestBuildAndLoad:
    """Each failure of the shared ``cc`` runner, with no compiler needed."""

    @pytest.mark.parametrize(
        "script, reason",
        [
            (None, "no compiler"),
            ("echo 'lib.c:1: error: no' >&2; exit 1", "compile error"),
            ("exec sleep 30", "timeout"),
            # "Succeeds", but what it writes is not a shared object.
            ('head -c 100 /dev/zero > "$0"', "unloadable"),
        ],
    )
    def test_a_failure_raises_the_callers_error_and_leaves_nothing(
        self, tmp_path, script, reason
    ):
        build_dir = tmp_path / "build"
        build_dir.mkdir()
        so_path = str(build_dir / "lib.so")
        missing = str(tmp_path / "missing-cc")
        compiles, outcomes = [], []
        seen = len(get_event_log().events("so_rebuilt"))

        def argv(out):
            return [missing, "-o", out] if script is None else ["sh", "-c", script, out]

        with pytest.raises(_BuildError) as info:
            build_and_load(
                so_path,
                argv,
                span_name="cc",
                span_attrs={},
                timeout_seconds=0.3,
                error=_BuildError,
                before_cc=lambda: compiles.append(1),
                on_outcome=outcomes.append,
            )
        assert info.value.reason == reason
        rebuilt = get_event_log().events("so_rebuilt")[seen:]
        if reason == "unloadable":
            # The bad file is deleted and built again, once.
            assert outcomes == ["built", "built"] and len(compiles) == 2
            assert [ev.attrs["path"] for ev in rebuilt] == [so_path]
        else:
            assert len(compiles) == 1 and rebuilt == []
        assert os.listdir(build_dir) == []


_WORKER = textwrap.dedent(
    """
    import os, sys, time
    import numpy as np

    # Hold every worker at the same start line so the cold compiles overlap.
    go = sys.argv[1]
    deadline = time.time() + 60
    while not os.path.exists(go):
        if time.time() > deadline:
            sys.exit(3)
        time.sleep(0.005)

    from repro.compiler.codegen.c_backend import disk_cache_stats
    from repro.compiler.options import SympilerOptions
    from repro.solvers.linear_solver import SparseLinearSolver
    from repro.sparse.generators import laplacian_2d

    A = laplacian_2d(12, shift=0.1)
    options = SympilerOptions(backend="c", enable_vs_block=False)
    solver = SparseLinearSolver(A, ordering="natural", options=options)
    x = solver.solve(np.ones(A.n))
    if not np.isfinite(x).all():
        sys.exit(4)
    stats = disk_cache_stats().as_dict()
    print("RESULT", repr(float(x.sum())), stats["compiles"], stats["lock_waits"])
    """
)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_two_processes_cold_compile_with_exactly_one_cc_per_artifact(tmp_path):
    """Satellite guarantee, end to end: two fresh processes race to cold-
    compile the same pattern over one shared disk cache; every distinct
    artifact is compiled by exactly one ``cc`` invocation between them, and
    both processes end up with working kernels (identical solutions)."""
    real_cc = shutil.which("cc")
    shim_dir = tmp_path / "shim"
    shim_dir.mkdir()
    cc_log = tmp_path / "cc.log"
    shim = shim_dir / "cc"
    shim.write_text(
        f'#!/bin/sh\necho "$@" >> "{cc_log}"\nexec "{real_cc}" "$@"\n',
        encoding="utf-8",
    )
    shim.chmod(0o755)

    worker_script = tmp_path / "worker.py"
    worker_script.write_text(_WORKER, encoding="utf-8")
    go_file = tmp_path / "go"

    env = dict(os.environ)
    env["PATH"] = f"{shim_dir}{os.pathsep}{env.get('PATH', '')}"
    env["REPRO_SYMPILER_CACHE"] = str(tmp_path / "cache")
    env["PYTHONPATH"] = SRC_ROOT + os.pathsep + env.get("PYTHONPATH", "")

    procs = [
        subprocess.Popen(
            [sys.executable, str(worker_script), str(go_file)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        for _ in range(2)
    ]
    go_file.write_text("go", encoding="utf-8")  # drop the start barrier
    outputs = []
    for proc in procs:
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, f"worker failed (rc={proc.returncode}): {err}"
        outputs.append(out)

    # Both processes produced the same solution from working artifacts.
    checksums = [
        line.split()[1]
        for out in outputs
        for line in out.splitlines()
        if line.startswith("RESULT")
    ]
    assert len(checksums) == 2
    assert checksums[0] == checksums[1]

    # Exactly one cc invocation per distinct generated source file: the
    # second process either waited on the lock or reused the published .so —
    # never compiled the same artifact again.
    invocations = [
        line for line in cc_log.read_text(encoding="utf-8").splitlines() if line
    ]
    compiled_sources = [
        arg for line in invocations for arg in line.split() if arg.endswith(".c")
    ]
    assert invocations, "the shim saw no cc invocations (compile never happened?)"
    assert len(compiled_sources) == len(set(compiled_sources)), (
        f"duplicate cc invocation for the same source: {compiled_sources}"
    )
