"""Pluggable executors for the parallel decision subsystem.

Two interchangeable executors run the picklable check tasks built by
:mod:`repro.parallel.tasks`:

* :class:`SerialExecutor` — runs tasks in order in the current process; the
  reference implementation the differential tests compare against.
* :class:`ProcessExecutor` — a ``multiprocessing`` pool with chunked
  dispatch, early exit on the first counterexample via a shared cancellation
  event, and a guard against nested pools (a worker that itself calls a
  parallel entry point degrades to serial execution).

Both executors return the full list of task outcomes; *merging* those
outcomes into a verdict is the caller's job and is deterministic: outcomes
carry global positions and the merge picks the minimum, so the verdict never
depends on worker scheduling, and every reported witness is valid.  Under
early exit the *set* of shards that get to report a witness can depend on
timing (a cancelled shard may not have reached its counterexample yet), so
the particular witness chosen may differ between runs — only runs without
cancellation (all equivalent pairs, and any run through SerialExecutor) are
bit-for-bit reproducible.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from typing import Callable, Iterable, Optional, Protocol, Sequence

from ..errors import WorkerCrashError
from ..obs import REGISTRY as _OBS
from ..obs import span as _span

#: Environment variable read by :func:`default_workers`; CI legs set it to
#: exercise the parallel paths across the whole test suite.
WORKERS_ENV = "REPRO_WORKERS"

#: How long the drain loop waits on the result iterator before checking the
#: pool's workers for deaths.  A lost task (its worker SIGKILLed mid-run)
#: never produces a result, so without the poll the drain would block
#: forever; with it, a crash surfaces within one poll interval.
_DRAIN_POLL_S = 0.25

#: Set in pool workers: nested parallel entry points degrade to serial.
_IN_WORKER = False

#: The shared cancellation event of the current pool (worker side).
_CANCEL_EVENT = None


def available_cores() -> int:
    """The number of cores this process may actually run on (scheduling
    affinity where the platform exposes it — containers often pin fewer cores
    than ``os.cpu_count`` reports)."""
    getter = getattr(os, "sched_getaffinity", None)
    if getter is not None:
        try:
            return max(1, len(getter(0)))
        except OSError:
            pass
    return max(1, os.cpu_count() or 1)


def default_workers() -> int:
    """The worker count used when callers pass ``workers=None``: the value of
    ``REPRO_WORKERS`` (default 1, i.e. serial).

    A malformed value (``REPRO_WORKERS=two``) falls back to serial, but not
    silently: a :class:`RuntimeWarning` names the bad value, so a typo in a
    CI matrix or a deployment manifest cannot quietly disable the parallel
    subsystem.
    """
    raw = os.environ.get(WORKERS_ENV)
    if raw is None:
        return 1
    try:
        return max(1, int(raw))
    except ValueError:
        import warnings

        warnings.warn(
            f"ignoring malformed {WORKERS_ENV}={raw!r} (expected an integer); "
            "falling back to serial execution",
            RuntimeWarning,
            stacklevel=2,
        )
        return 1


def in_worker() -> bool:
    """Whether the current process is a pool worker (nested parallelism is
    suppressed to avoid fork bombs)."""
    return _IN_WORKER


def cancellation_requested() -> bool:
    """Whether the pool's shared cancellation event is set (always ``False``
    in serial runs, where early exit happens in the dispatch loop)."""
    return _CANCEL_EVENT is not None and _CANCEL_EVENT.is_set()


def _initialize_worker(event) -> None:
    global _IN_WORKER, _CANCEL_EVENT
    _IN_WORKER = True
    _CANCEL_EVENT = event


class Executor(Protocol):
    """The executor interface: run ``worker`` over ``tasks``, optionally
    stopping early once ``stop`` accepts an outcome."""

    workers: int

    def run(
        self,
        worker: Callable,
        tasks: Sequence,
        stop: Optional[Callable[[object], bool]] = None,
    ) -> list: ...


class SerialExecutor:
    """Run every task in order in the current process."""

    workers = 1

    def run(
        self,
        worker: Callable,
        tasks: Sequence,
        stop: Optional[Callable[[object], bool]] = None,
    ) -> list:
        outcomes = []
        for task in tasks:
            outcome = worker(task)
            outcomes.append(outcome)
            if stop is not None and stop(outcome):
                break
        return outcomes


def _fork_pool(processes: int):
    """Fork a worker pool with the shared cancellation event wired into every
    child; returns ``(pool, event)``.  Shared by both process executors."""
    import gc

    # Forked workers inherit the parent heap copy-on-write; collecting
    # first trims garbage pages the children would otherwise fault in.
    gc.collect()
    _OBS.inc("parallel.pool.forks")
    context = _pool_context()
    event = context.Event()
    with _span("parallel.pool.fork", processes=max(1, processes)):
        pool = context.Pool(
            processes=max(1, processes),
            initializer=_initialize_worker,
            initargs=(event,),
        )
    return pool, event


def _live_worker_pids(pool) -> frozenset:
    """The pids of the pool's currently-live worker processes.

    ``multiprocessing.Pool`` keeps its worker ``Process`` handles in the
    private ``_pool`` list and exposes no liveness API; the crash watch reads
    the handles directly.  A worker the pool already *replaced* after a death
    shows up here with a fresh pid, so comparing against the fork-time set
    detects replacements as well as outright deaths."""
    return frozenset(
        process.pid for process in getattr(pool, "_pool", ()) if process.is_alive()
    )


def _check_pool_health(pool, expected_pids: frozenset) -> None:
    """Raise :class:`WorkerCrashError` when the pool's live workers no longer
    match the fork-time set (a worker died, or died and was silently replaced
    by the pool's maintenance thread)."""
    live = _live_worker_pids(pool)
    if live != expected_pids:
        lost = sorted(expected_pids - live)
        raise WorkerCrashError(
            f"pool worker(s) {lost or sorted(live - expected_pids)} died during a "
            "parallel run; the pool has been discarded and the next run will "
            "fork a fresh one"
        )


def _reap_crashed_pool(pool) -> None:
    """Tear down a pool that lost a worker.

    ``Pool.terminate`` assumes cooperative workers: an idle worker blocks
    inside ``inqueue.get()`` *holding* the queue's reader lock, so a worker
    killed there leaves the lock acquired forever and ``terminate`` deadlocks
    in ``_help_stuff_finish`` (likewise a worker killed mid-result-``put``
    and the out-queue's writer lock).  The crashed-pool teardown therefore
    (1) kills the remaining workers outright, (2) force-releases the queue
    locks — POSIX semaphores, so a parent-side release repairs a dead
    holder, and ``ValueError`` just means the lock was free — and (3) runs
    the normal teardown on a daemon thread, so even a teardown wedged by an
    unlucky interleaving can never block the serving process (the workers
    are already dead; only parent-side daemon threads remain)."""
    for process in list(getattr(pool, "_pool", ())):
        if process.is_alive():
            try:
                process.kill()
            except OSError:  # pragma: no cover - already reaped
                pass
    for queue in (pool._inqueue, pool._outqueue):
        for lock_name in ("_rlock", "_wlock"):
            orphan = getattr(queue, lock_name, None)
            if orphan is None:
                continue
            try:
                orphan.release()
            except ValueError:  # the lock was not held; nothing to repair
                pass

    def _teardown() -> None:
        try:
            pool.terminate()
            pool.join()
        except Exception:  # pragma: no cover - best-effort teardown
            pass

    threading.Thread(target=_teardown, name="repro-pool-reaper", daemon=True).start()


def _drain_pool(
    pool,
    event,
    worker: Callable,
    tasks: Sequence,
    stop: Optional[Callable[[object], bool]],
    chunksize: int,
    expected_pids: Optional[frozenset] = None,
) -> list:
    """The shared dispatch loop: ``imap_unordered`` with cooperative early
    exit — once ``stop`` accepts an outcome the cancellation event is set and
    the remaining tasks return immediately with their ``cancelled`` marker.
    The returned outcome list is complete, so the caller's deterministic
    merge sees every shard that did real work.

    The drain waits in :data:`_DRAIN_POLL_S` slices and checks worker
    liveness between slices (and once more after the last result): a worker
    SIGKILLed mid-run loses its in-flight task — the pool would simply never
    deliver that result — so the drain raises :class:`WorkerCrashError`
    instead of blocking forever, *before* any caller merges the partial
    outcome list into a verdict."""
    if expected_pids is None:
        expected_pids = _live_worker_pids(pool)
    outcomes = []
    iterator = pool.imap_unordered(worker, tasks, chunksize=chunksize)
    while True:
        try:
            outcome = iterator.next(timeout=_DRAIN_POLL_S)
        except StopIteration:
            break
        except multiprocessing.TimeoutError:
            _check_pool_health(pool, expected_pids)
            continue
        outcomes.append(outcome)
        if stop is not None and stop(outcome) and not event.is_set():
            event.set()
    _check_pool_health(pool, expected_pids)
    return outcomes


class ProcessExecutor:
    """A per-call multiprocessing pool with chunked dispatch and cooperative
    early exit (see :func:`_drain_pool`).

    ``workers`` is the sharding degree; the pool itself never spawns more
    processes than the machine has cores (oversubscribing a CPU-bound search
    only adds fork and scheduling overhead).  Task decomposition and the
    position-based merges are independent of the pool size, so results are
    identical whatever the core count.
    """

    def __init__(self, workers: int, chunksize: int = 1):
        self.workers = max(1, int(workers))
        self.chunksize = max(1, int(chunksize))

    def run(
        self,
        worker: Callable,
        tasks: Sequence,
        stop: Optional[Callable[[object], bool]] = None,
    ) -> list:
        tasks = list(tasks)
        if self.workers <= 1 or len(tasks) <= 1 or in_worker():
            return SerialExecutor().run(worker, tasks, stop)
        pool, event = _fork_pool(min(self.workers, len(tasks), available_cores()))
        try:
            outcomes = _drain_pool(pool, event, worker, tasks, stop, self.chunksize)
        except WorkerCrashError:
            # Normal teardown would deadlock on the dead worker's queue
            # locks; route through the crashed-pool reaper instead.
            _reap_crashed_pool(pool)
            raise
        except BaseException:
            pool.terminate()
            pool.join()
            raise
        pool.terminate()
        pool.join()
        return outcomes


class PersistentProcessExecutor:
    """A process pool that stays alive across ``run`` calls (session mode).

    :class:`ProcessExecutor` forks a fresh pool per invocation — the right
    trade for one-shot entry points, where the fork inherits the parent's
    freshly warmed caches copy-on-write and the pool's lifetime is the call.
    A long-lived session (:class:`repro.session.Workspace`) inverts the
    trade: the pool forks **once**, lazily, on the first run that has enough
    work to shard — after the parent's serial warm prefix, so the children
    still inherit the warm shared group-index cache — and every later
    call reuses the same workers, whose per-process setup memos and shared
    caches accumulate across calls instead of being re-derived per fork.

    The executor owns one shared cancellation event, cleared between runs
    (``multiprocessing.Event`` state propagates to the already-forked
    workers).  ``forks`` counts pool creations — the session benchmarks and
    tests assert it stays at one across repeated calls.  ``close()`` (or use
    as a context manager) terminates the pool; a closed executor degrades to
    serial execution rather than erroring, so a session wound down mid-flight
    still completes its work.

    **Crash semantics.**  A worker that dies mid-run (or between runs, while
    the pool sits idle) raises :class:`~repro.errors.WorkerCrashError` out of
    the observing ``run`` call — *after* the dead pool has been discarded, so
    ``alive`` is already ``False`` before any caller merges outcomes.  The
    next ``run`` forks a fresh pool (``parallel.pool.heals`` counts these
    recoveries): one crash costs one failed call, never a wedged session.
    """

    def __init__(self, workers: int, chunksize: int = 1):
        self.workers = max(1, int(workers))
        self.chunksize = max(1, int(chunksize))
        self.forks = 0
        self._pool = None
        self._event = None
        self._closed = False
        self._pids: frozenset = frozenset()
        self._crashed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def wants_warm_prefix(self) -> bool:
        """Whether the next sweep should run its serial warm prefix in the
        parent: true until the pool exists (the fork is still ahead, so the
        prefix's cache entries will be inherited copy-on-write)."""
        return self._pool is None and not self._closed and self.workers > 1

    @property
    def alive(self) -> bool:
        return self._pool is not None

    def close(self) -> None:
        """Terminate the pool.  Idempotent; later runs degrade to serial."""
        self._closed = True
        self._discard_pool()

    def _discard_pool(self) -> None:
        pool = self._pool
        self._pool = None
        self._event = None
        if pool is not None:
            if self._crashed:
                # A dead worker may still hold a queue lock; the graceful
                # terminate would deadlock on it (see _reap_crashed_pool).
                _reap_crashed_pool(pool)
            else:
                pool.terminate()
                pool.join()

    def __enter__(self) -> "PersistentProcessExecutor":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort cleanup; close() is the API
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _ensure_pool(self):
        if self._pool is None:
            # Unlike the one-shot executor, the pool size is not clamped by
            # the first call's task count: the same pool serves every later
            # (possibly much larger) run of the session.
            self._pool, self._event = _fork_pool(min(self.workers, available_cores()))
            self._pids = _live_worker_pids(self._pool)
            self.forks += 1
            if self._crashed:
                # This fork replaces a pool that died: the auto-heal the
                # service's 503-then-retry contract relies on.  Counted
                # separately from plain forks so recoveries stay visible.
                self._crashed = False
                _OBS.inc("parallel.pool.heals")
        return self._pool

    def run(
        self,
        worker: Callable,
        tasks: Sequence,
        stop: Optional[Callable[[object], bool]] = None,
    ) -> list:
        tasks = list(tasks)
        if self.workers <= 1 or len(tasks) <= 1 or in_worker() or self._closed:
            return SerialExecutor().run(worker, tasks, stop)
        if self._pool is not None:
            # A worker may have died since the previous run (the pool sat
            # idle).  Its warm per-process state is gone either way, so the
            # crash surfaces here — before any new tasks are dispatched —
            # and the *next* run forks fresh.
            try:
                _check_pool_health(self._pool, self._pids)
            except WorkerCrashError:
                self._crashed = True
                self._discard_pool()
                raise
        pool = self._ensure_pool()
        self._event.clear()
        try:
            return _drain_pool(
                pool, self._event, worker, tasks, stop, self.chunksize, self._pids
            )
        except BaseException:
            # A failed drain (a worker died, an exception propagated out of
            # imap) leaves the pool in an unknown state.  Discard it so the
            # next run forks a fresh one — one transient failure must not
            # wedge the long-lived session — and let the caller see the
            # error.  The discard happens before the exception reaches the
            # caller, so ``alive`` is already False by the time any merge
            # logic could run: a half-drained generation is never merged.
            self._crashed = True
            self._discard_pool()
            raise


def _pool_context():
    """Prefer ``fork`` (cheap, inherits warm caches); fall back to the
    platform default where fork is unavailable."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def resolve_executor(
    workers: Optional[int] = None, executor: Optional[Executor] = None
) -> Executor:
    """An executor for the requested worker count: an explicit executor wins,
    ``workers=None`` consults ``REPRO_WORKERS``, and 1 (or running inside a
    pool worker) means serial."""
    if executor is not None:
        return executor
    if workers is None:
        workers = 1 if in_worker() else default_workers()
    if workers <= 1 or in_worker():
        return SerialExecutor()
    return ProcessExecutor(workers)
