"""Pattern-keyed compiled-artifact cache.

The paper's premise is that sparsity patterns are fixed while numeric values
change, so the symbolic + codegen cost amortizes over many numeric runs.
This module makes the amortization explicit: compiled artifacts are cached
under ``(kernel name, pattern fingerprint, options fingerprint)`` so a second
``Sympiler.compile`` for an already-seen pattern is a dictionary lookup — no
inspection, no transformation, no code generation, no compilation.

The cache is a bounded thread-safe single-flight LRU memo (the SEJITS
``LazySpecializedFunction`` idiom of caching specialized code by argument
configuration).  It is in-memory and per-process, and it owns nothing: the
holders of an artifact keep it alive by reference.  The on-disk ``.so``
files, which survive process restarts and are shared between processes, are
built and loaded by :func:`build_and_load`, for the generated kernels (see
:mod:`repro.compiler.codegen.c_backend`) and the native symbolic helper.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import shutil
import signal
import subprocess
import tempfile
import threading
import time
import uuid
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.compiler.options import SympilerOptions
from repro.observe.trace import span

__all__ = [
    "ArtifactCache",
    "CacheStats",
    "options_fingerprint",
    "cache_key",
    "build_file_once",
    "build_and_load",
    "tmp_path_for",
]

#: Default maximum number of cached artifacts per cache instance.
DEFAULT_MAXSIZE = 128


def options_fingerprint(options: SympilerOptions) -> str:
    """A short stable fingerprint of a :class:`SympilerOptions` bundle.

    Any field change (backend, transformation toggles, parallel mode,
    compiler and flags) changes the fingerprint, so cached artifacts are
    never reused across differing configurations.
    """
    payload = repr(sorted(asdict(options).items()))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def cache_key(kernel: str, pattern_fp: str, options: SympilerOptions) -> Tuple[str, str, str]:
    """The cache key of one compiled artifact: kernel name, pattern and options fingerprints."""
    return (kernel, pattern_fp, options_fingerprint(options))


def build_file_once(
    target_path: str,
    builder: Callable[[], None],
    *,
    timeout_seconds: float = 300.0,
    poll_seconds: float = 0.005,
    stale_lock_seconds: float = 60.0,
) -> str:
    """Cross-process single-flight build of one on-disk cache file.

    :meth:`ArtifactCache.get_or_build` generalized across *processes*: when
    several processes (fleet shard workers, parallel CI jobs) miss on the
    same on-disk target concurrently, exactly one runs ``builder`` while the
    others wait for the published file — the PyOP2/Firedrake
    disk-cache-under-parallelism discipline (atomic ``O_EXCL``
    compare-and-swap on a lockfile next to the target).

    ``builder`` must *atomically publish* ``target_path`` before returning
    (write to a temp name, then ``os.replace`` — the protocol
    :func:`build_and_load` and the C backend's ``atomic_write_text`` follow),
    so waiters never observe a half-written artifact.

    Returns one of:

    * ``"hit"`` — the target already existed (no coordination needed),
    * ``"built"`` — this process won the lock and ran ``builder``,
    * ``"waited"`` — another process built the target while we held back.

    Failure semantics: if the winner's ``builder`` raises, the lock is
    released with no target published; each waiter then retries the
    acquisition and (re-)runs ``builder`` itself, so every caller observes
    either a working artifact or the real build error — never a silent miss.
    Locks abandoned by a killed process are broken after
    ``stale_lock_seconds``; if the wait exceeds ``timeout_seconds`` the
    caller builds anyway (duplicate work, still correct: publication is
    atomic).
    """
    if os.path.exists(target_path):
        return "hit"
    lock_path = target_path + ".lock"
    deadline = time.monotonic() + float(timeout_seconds)
    waited = False
    while True:
        if os.path.exists(target_path):
            return "waited" if waited else "hit"
        try:
            fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            waited = True
            if time.monotonic() >= deadline:
                # The winner is wedged (or glacial): build redundantly rather
                # than fail — atomic publication keeps the result correct.
                builder()
                return "built"
            try:
                # Wall clock on both sides: getmtime is epoch-based, so the
                # age must be too (monotonic has an arbitrary zero).
                lock_age = time.time() - os.path.getmtime(lock_path)
            except OSError:
                continue  # lock vanished between exists() and getmtime(): retry
            if lock_age > stale_lock_seconds:
                # The lock holder died without cleaning up; break the lock.
                # Several waiters may race this unlink — suppress the losers.
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(lock_path)
                continue
            time.sleep(poll_seconds)
            continue
        try:
            os.write(fd, f"{os.getpid()}\n".encode())
        finally:
            os.close(fd)
        try:
            # Re-check under the lock: the previous holder may have published
            # between our exists() check and the O_EXCL acquisition.
            if os.path.exists(target_path):
                return "waited" if waited else "hit"
            builder()
            return "built"
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(lock_path)


def tmp_path_for(path: str) -> str:
    """A collision-free temp name next to ``path``.

    The uuid component keeps concurrent *threads* of one process (same pid)
    from sharing a temp file, not just concurrent processes.
    """
    return f"{path}.tmp-{os.getpid()}-{uuid.uuid4().hex[:8]}"


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity API (macOS)
        return os.cpu_count() or 1


def _run_at_once(commands: Sequence[List[str]], deadline: float) -> List[Optional[Tuple[int, str, float]]]:
    """Run ``commands`` side by side, each in a session of its own, until ``deadline``.

    Returns ``(returncode, stderr, wall seconds)`` per command, ``None`` for
    one still running at the deadline.  Such a command's whole process group
    (the ``cc`` driver, its ``cc1`` and ``as``, whatever a compiler wrapper
    forked) is killed, so nothing outlives the build; every command is reaped
    before this returns or raises.  ``OSError`` propagates when one cannot
    be started.
    """
    procs: List[subprocess.Popen] = []
    results: List[Optional[Tuple[int, str, float]]] = [None] * len(commands)
    start = time.perf_counter()

    def wait(k: int) -> None:
        try:
            _, err = procs[k].communicate(timeout=max(0.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            return
        results[k] = (procs[k].returncode, err, time.perf_counter() - start)

    try:
        for cmd in commands:
            procs.append(
                subprocess.Popen(
                    cmd,
                    stdin=subprocess.DEVNULL,
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.PIPE,
                    text=True,
                    start_new_session=True,
                )
            )
        others = [threading.Thread(target=wait, args=(k,)) for k in range(1, len(procs))]
        for thread in others:
            thread.start()
        wait(0)
        for thread in others:
            thread.join()
        return results
    finally:
        for proc in procs:
            if proc.returncode is None:
                # Not yet reaped, so its pid still names its group.
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
            # Not communicate(): a process that left the group may hold the pipe.
            proc.stderr.close()


def build_and_load(
    so_path: str,
    cc: Sequence[str],
    source: str,
    *,
    parts: Sequence[str] = (),
    libs: Sequence[str] = (),
    span_name: str,
    span_attrs: Dict[str, object],
    timeout_seconds: float,
    error: Callable[[str, str], Exception],
    before_cc: Callable[[], None] = lambda: None,
    on_outcome: Callable[[str], None] = lambda outcome: None,
) -> ctypes.CDLL:
    """Build the shared object ``so_path`` from the C file ``source`` once, then load it.

    ``cc`` is the compiler and its flags.  ``parts`` are the texts of
    translation units that together define what ``source`` does.  When
    there are two or more and this process may run on two or more CPUs,
    each part is written to a private temp directory and compiled to an
    object there, all at once, and the objects are linked; otherwise the
    build is the one command ``cc -o <so> source libs``.  Neither part
    files nor objects ever appear next to ``so_path``.  The whole build is
    bounded by ``timeout_seconds``, each command runs in a session of its own
    and is killed with its process group when time runs out.  It is traced
    as ``span_name`` with ``parts`` (commands run side by side) and
    ``part_s`` (the wall seconds of each), and its output is published with
    ``os.replace`` through :func:`build_file_once`, so concurrent processes
    run one build.  ``before_cc`` runs first, only when this process
    compiles; ``on_outcome`` hears each :func:`build_file_once` answer.

    A file under the right name that ``ctypes`` cannot load (a crashed copy,
    a full disk) would answer "hit" on every later start, so it is deleted
    and rebuilt once.  Failures raise
    ``error(reason, detail)`` with ``reason`` one of ``"timeout"``,
    ``"no compiler"``, ``"compile error"`` (with the failing command's
    stderr) and ``"unloadable"``.
    """

    def run(stage: List[List[str]], deadline: float) -> List[float]:
        try:
            results = _run_at_once(stage, deadline)
        except OSError as exc:
            raise error("no compiler", f"cannot run {' '.join(stage[0])}: {exc}") from exc
        for cmd, result in zip(stage, results):
            if result is None:
                raise error(
                    "timeout",
                    f"C compilation timed out after {timeout_seconds:g} s ({' '.join(cmd)})",
                )
        for cmd, (returncode, stderr, _) in zip(stage, results):
            if returncode != 0:
                raise error("compile error", f"C compilation failed ({' '.join(cmd)}):\n{stderr}")
        return [seconds for _, _, seconds in results]

    def invoke_cc() -> None:
        before_cc()
        tmp_so = tmp_path_for(so_path)
        work = tempfile.mkdtemp(prefix="repro-cc-") if len(parts) > 1 and _cpu_count() > 1 else None
        try:
            with span(span_name, **span_attrs) as sp:
                deadline = time.perf_counter() + timeout_seconds
                if work is None:
                    part_s = run([[*cc, "-o", tmp_so, source, *libs]], deadline)
                else:
                    stem = os.path.join(work, os.path.splitext(os.path.basename(so_path))[0])
                    for k, text in enumerate(parts):
                        with open(f"{stem}.part{k}.c", "w", encoding="utf-8") as fh:
                            fh.write(text)
                    objects = [f"{stem}.part{k}.o" for k in range(len(parts))]
                    part_s = run(
                        [[*cc, "-c", "-o", obj, obj[:-1] + "c"] for obj in objects],
                        deadline,
                    )
                    run([[*cc, "-o", tmp_so, *objects, *libs]], deadline)
                sp.set(parts=len(part_s), part_s=part_s)
            try:
                os.replace(tmp_so, so_path)
            except OSError as exc:
                raise error("compile error", f"cannot publish {so_path}: {exc}") from exc
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp_so)
            if work is not None:
                shutil.rmtree(work, ignore_errors=True)

    for rebuilt in (False, True):
        on_outcome(build_file_once(so_path, invoke_cc))
        try:
            return ctypes.CDLL(so_path)
        except OSError as exc:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(so_path)
            if rebuilt:
                raise error(
                    "unloadable",
                    f"shared object {so_path} built by {cc[0]} cannot be loaded even after a rebuild: {exc}",
                ) from exc
    raise AssertionError("unreachable")  # pragma: no cover


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of an :class:`ArtifactCache`.

    ``coalesced`` counts compile requests that piggybacked on another
    thread's in-flight build of the same key (single-flight collapsing).

    The process-wide shared cache's stats are also visible through the
    unified observability layer (:mod:`repro.observe`) as the
    ``artifact_cache`` pull collector — ``repro_artifact_cache_*`` gauges in
    the Prometheus export, same counters, zero extra hot-path cost.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    coalesced: int = 0

    @property
    def lookups(self) -> int:
        """Total number of ``get`` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view used by reporting."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "coalesced": self.coalesced,
            "hit_rate": self.hit_rate,
        }


class ArtifactCache:
    """A bounded, thread-safe, single-flight LRU memo of compiled artifacts.

    Keys are arbitrary hashables (the driver uses
    ``(kernel, pattern fingerprint, options fingerprint)`` tuples); values are
    the artifact objects themselves, returned by reference on a hit.

    Concurrent builds of the same key collapse to one: :meth:`get_or_build`
    is single-flight, so two service worker threads racing to compile the
    same (kernel, pattern, options) run one compile and share the artifact.

    The memo owns nothing.  Whoever uses an artifact holds it by reference
    (a :class:`~repro.solvers.linear_solver.SparseLinearSolver` holds its
    factorization), so an LRU eviction here only means the
    next compile of that key is rebuilt, disk-warm from the ``.so`` cache.
    """

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE) -> None:
        if maxsize < 1:
            raise ValueError("cache maxsize must be at least 1")
        self.maxsize = int(maxsize)
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.RLock()
        self._stats = CacheStats()
        self._building: Dict[Hashable, threading.Event] = {}

    def get(self, key: Hashable) -> Optional[object]:
        """Return the cached artifact for ``key`` (marking it recently used)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self._stats.hits += 1
            return entry

    def put(self, key: Hashable, artifact: object) -> None:
        """Insert ``artifact`` under ``key``, evicting the LRU entry if full."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = artifact
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self._stats.evictions += 1

    def get_or_build(self, key: Hashable, builder: Callable[[], object]) -> object:
        """Return the cached artifact for ``key``, building it once if absent.

        Single-flight: when several threads miss on the same key
        concurrently, exactly one runs ``builder`` while the others wait and
        then share the built artifact (counted in ``stats.coalesced``).  If
        the leading builder raises, one waiter takes over the build (the
        exception propagates to the leader alone).
        """
        cached = self.get(key)
        if cached is not None:
            return cached
        waited = False
        while True:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    if waited:
                        self._stats.coalesced += 1
                    return entry
                event = self._building.get(key)
                if event is None:
                    event = self._building[key] = threading.Event()
                    break  # this thread is the builder
            waited = True
            event.wait()
        try:
            artifact = builder()
            self.put(key, artifact)
            return artifact
        finally:
            with self._lock:
                self._building.pop(key, None)
            event.set()

    def clear(self) -> None:
        """Drop every cached artifact (counters are kept)."""
        with self._lock:
            self._entries.clear()

    @property
    def stats(self) -> CacheStats:
        """The live counter object (read-only use expected)."""
        return self._stats

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"ArtifactCache(size={len(self)}/{self.maxsize}, "
            f"hits={self._stats.hits}, misses={self._stats.misses})"
        )
