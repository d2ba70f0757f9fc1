"""Cross-process single-flight compile tests for the shared disk cache.

The fleet's warm-failover guarantee rests on ``build_file_once``: when
several *processes* (shard workers, parallel CI jobs) cold-miss on the same
compiled artifact concurrently, exactly one runs the compiler and every
process ends up with a working artifact.  These tests drive the primitive
directly (threads standing in for processes exercise the same lockfile) and
then the real thing: two subprocesses cold-compiling the same pattern with
the C backend behind a ``cc`` shim that logs every compiler invocation.
The failure modes of ``build_and_load``, the ``cc`` runner built on it, are
driven with stand-in compilers, as a one-command build and as two parts
compiled side by side.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import textwrap
import threading
import time

import pytest

from repro.compiler.cache import build_and_load, build_file_once

SRC_ROOT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")


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


def _fake_cc(tmp_path, body: str) -> str:
    path = tmp_path / "fake-cc"
    path.write_text(f"#!/bin/sh\n{body}\n", encoding="utf-8")
    path.chmod(0o755)
    return str(path)


#: The two translation units of a library exporting ``repro_one`` and ``repro_two``.
_PARTS = ["int repro_one(void) { return 1; }\n", "int repro_two(void) { return 2; }\n"]


class TestBuildAndLoad:
    """Each failure of the shared ``cc`` runner under stand-in compilers, then a real build."""

    @pytest.mark.parametrize("count", [1, 2])
    @pytest.mark.parametrize(
        "script, reason",
        [
            (None, "no compiler"),
            ("echo 'lib.c:1: error: no' >&2; exit 1", "compile error"),
            ("exec sleep 30", "timeout"),
            # "Succeeds", but what it writes to -o is not a shared object.
            ('while [ "$1" != "-o" ]; do shift; done; head -c 100 /dev/zero > "$2"', "unloadable"),
        ],
    )
    def test_a_failure_raises_the_callers_error_and_leaves_nothing(
        self, tmp_path, monkeypatch, cpus, script, reason, count
    ):
        build_dir, temp_dir = tmp_path / "build", tmp_path / "tmp"
        build_dir.mkdir()
        temp_dir.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(temp_dir))
        cpus(count)
        so_path = str(build_dir / "lib.so")
        compiler = str(tmp_path / "missing-cc") if script is None else _fake_cc(tmp_path, script)
        compiles, outcomes = [], []

        with pytest.raises(_BuildError) as info:
            build_and_load(
                so_path,
                [compiler],
                str(tmp_path / "lib.c"),
                parts=_PARTS,
                span_name="cc",
                span_attrs={},
                timeout_seconds=0.3,
                error=_BuildError,
                before_cc=lambda: compiles.append(1),
                on_outcome=outcomes.append,
            )
        assert info.value.reason == reason
        if reason == "unloadable":
            # The bad file is deleted and built again, once.
            assert outcomes == ["built", "built"] and len(compiles) == 2
        else:
            assert outcomes == [] and len(compiles) == 1
        assert os.listdir(build_dir) == []
        assert os.listdir(temp_dir) == []  # no part file, no object

    @pytest.mark.parametrize("count", [1, 2])
    def test_a_timeout_kills_what_the_compiler_forked(self, tmp_path, cpus, assert_pids_gone, count):
        cpus(count)
        pids = tmp_path / "pids"
        fake = _fake_cc(tmp_path, f'sleep 30 > /dev/null 2>&1 &\necho $! >> "{pids}"\nwait')
        with pytest.raises(_BuildError) as info:
            build_and_load(
                str(tmp_path / "lib.so"),
                [fake],
                str(tmp_path / "lib.c"),
                parts=_PARTS,
                span_name="cc",
                span_attrs={},
                timeout_seconds=0.5,
                error=_BuildError,
            )
        assert info.value.reason == "timeout"
        assert len(pids.read_text(encoding="utf-8").split()) == count
        assert_pids_gone(pids)

    def test_a_failing_part_is_a_compile_error_with_its_stderr(self, tmp_path, cpus):
        cpus(2)
        fake = _fake_cc(
            tmp_path,
            'case "$*" in *part1.c*) echo "part one: error: no" >&2; exit 1;; esac\n'
            'echo "part zero: all fine" >&2\n'
            'while [ "$1" != "-o" ]; do shift; done; : > "$2"',
        )
        with pytest.raises(_BuildError) as info:
            build_and_load(
                str(tmp_path / "lib.so"),
                [fake],
                str(tmp_path / "lib.c"),
                parts=_PARTS,
                span_name="cc",
                span_attrs={},
                timeout_seconds=30.0,
                error=_BuildError,
            )
        assert info.value.reason == "compile error"
        message = str(info.value)
        assert "part one: error: no" in message and "lib.part1.c" in message
        assert "part zero" not in message

    @needs_cc
    @pytest.mark.parametrize("count", [1, 2])
    def test_parts_or_whole_make_the_same_library(self, tmp_path, monkeypatch, cpus, count):
        from repro import observe

        cpus(count)
        log = tmp_path / "cc.log"
        shim = _fake_cc(tmp_path, f'echo "$@" >> "{log}"\nexec "{shutil.which("cc")}" "$@"')
        source = tmp_path / "lib.c"
        source.write_text("".join(_PARTS), encoding="utf-8")
        observe.enable()
        try:
            observe.get_tracer().clear()
            lib = build_and_load(
                str(tmp_path / "lib.so"),
                [shim, "-O2", "-fPIC", "-shared"],
                str(source),
                parts=_PARTS,
                span_name="cc",
                span_attrs={},
                timeout_seconds=60.0,
                error=_BuildError,
            )
            (sp,) = [sp for sp in observe.get_tracer().spans() if sp.name == "cc"]
        finally:
            observe.disable()
            observe.get_tracer().clear()
        assert (lib.repro_one(), lib.repro_two()) == (1, 2)
        commands = log.read_text(encoding="utf-8").splitlines()
        if count == 1:
            assert len(commands) == 1 and commands[0].endswith(str(source))
        else:
            # Each part compiled once, side by side, then one link.
            compiled = sorted(os.path.basename(line.split()[-1]) for line in commands[:2])
            assert compiled == ["lib.part0.c", "lib.part1.c"]
            assert len(commands) == 3 and " -c " not in commands[2]
        assert sp.attrs["parts"] == count and len(sp.attrs["part_s"]) == count
        assert all(0 < seconds <= sp.duration for seconds in sp.attrs["part_s"])


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
    # By file name: the part files of a two-part build live in a private
    # temp directory of each build, named after the shared object.
    compiled_sources = [
        os.path.basename(arg) for line in invocations for arg in line.split() if arg.endswith(".c")
    ]
    assert invocations, "the shim saw no cc invocations (compile never happened?)"
    assert len(compiled_sources) == len(set(compiled_sources)), (
        f"duplicate cc invocation for the same source: {compiled_sources}"
    )
