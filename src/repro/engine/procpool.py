"""Supervised multi-process shard pool: the process fault domain.

PR 6 made serving resilient *inside* one process (classified errors,
retries, breakers, fallback).  This module supplies the layer above it:
a pool of worker **processes** (shards) where worker death -- segfault,
OOM kill, wedged kernel -- is a first-class classified failure instead of
a hung batch.  ``Engine(executor="process")`` routes ``map`` /
``fit_many`` / ``hdbscan_many`` through a :class:`ShardPool`.

Supervision model
-----------------
One daemon supervisor thread owns all pool state.  Each worker has its
own duplex pipe carrying its jobs, heartbeats, results and classified
errors (see :mod:`repro.engine.worker` for the wire protocol).  The
supervisor blocks in :func:`multiprocessing.connection.wait` on every
worker's pipe, every worker's ``Process.sentinel`` and one wake-up pipe
written by :meth:`ShardPool.submit` and :meth:`ShardPool.shutdown`, with
a periodic tick for heartbeat and deadline checks.  A result, a death or
a submission therefore wakes it directly, and a worker that dies, even in
the middle of a write, can only close its own pipe:

* **Dead worker** -- ``Process.exitcode`` is set without a clean stop:
  counted as a crash (``CRASH_EXITCODE`` marks *injected* kills), the
  worker is respawned (bounded by ``respawn_budget``), and its in-flight
  job is re-dispatched to another shard with bounded attempts
  (``max_dispatch``).
* **Hung worker** -- heartbeats stop for longer than ``hang_after_s``
  (or bootstrap exceeds ``boot_timeout_s``): the worker is killed and
  handled exactly like a crash.  Heartbeats come from a dedicated thread
  in the worker, so a long-running kernel never looks hung.
* **Poisoned job** -- a job that kills ``poison_threshold`` *consecutive*
  workers is quarantined: it fails permanently with
  :class:`PoisonedJobError`, its content fingerprint is remembered, and
  resubmitting the same content is rejected at the front door.  One bad
  input can never grind the pool through its respawn budget.
* **Admission control** -- at most ``max_pending`` jobs may be queued or
  in flight; beyond that :meth:`ShardPool.submit` sheds load with
  :class:`RejectedError` (permanent -- the *caller* chooses whether to
  re-offer).  :meth:`ShardPool.drain` completes in-flight work while
  rejecting new submissions, then joins every worker.

When the respawn budget is exhausted and the last worker dies, the pool
marks itself unhealthy and fails outstanding jobs -- and any job
submitted afterwards -- as *lost* (transient); the
:class:`~repro.engine.engine.Engine` reacts by degrading those jobs -- and
subsequent batches -- to the in-process thread path, which is
legal because backends and processes are bit-identical on every input
(the cross-backend contract).

Retries of transient in-child failures reuse the job ticket (same job
id, bounded by the ticket's ``retry_budget``); unlike the thread path
they are immediate rather than backed off -- the shard that failed is
busy bootstrapping its successor, so there is no thundering herd to
decorrelate.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import os
import pickle
import threading
import time
import weakref
from collections import Counter, deque
from typing import Any

from ..obs.metrics import REGISTRY as _REGISTRY
from .cache import content_key
from .worker import (
    CRASH_EXITCODE,
    JOB_HEAD,
    JOB_KINDS,
    MSG_DONE,
    MSG_ERR,
    MSG_HB,
    MSG_READY,
    WorkerConfig,
    dumps,
    worker_main,
)

__all__ = [
    "ShardPool",
    "ShardJob",
    "RejectedError",
    "PoisonedJobError",
    "WorkerCrashError",
    "RemoteJobError",
]

# ---------------------------------------------------------------------------
# Observability mirrors (see docs/observability.md).  Counters mirror the
# pool's authoritative counts at the same call sites; gauges are published
# by the supervisor loop each time it wakes (with several pools in one
# process the gauges reflect the most recently scanned pool).
# ---------------------------------------------------------------------------
_M_POOL_EVENTS = _REGISTRY.counter(
    "repro_pool_events_total",
    "Shard-pool lifecycle events (mirrors ShardPool.stats() counters).",
    ("event",),
)
_M_POOL_JOBS = _REGISTRY.counter(
    "repro_pool_jobs_total",
    "Shard-pool jobs by terminal status.",
    ("status",),
)
_M_QUEUE_DEPTH = _REGISTRY.gauge(
    "repro_pool_queue_depth", "Jobs queued in the shard pool."
)
_M_INFLIGHT = _REGISTRY.gauge(
    "repro_pool_inflight", "Jobs currently executing on shard workers."
)
_M_WORKERS_ALIVE = _REGISTRY.gauge(
    "repro_pool_workers_alive", "Live shard-worker processes."
)
_M_HB_AGE = _REGISTRY.gauge(
    "repro_pool_heartbeat_age_seconds",
    "Age of the stalest worker heartbeat (ready workers only).",
)
_M_UNHEALTHY = _REGISTRY.gauge(
    "repro_pool_unhealthy", "1 while the shard pool cannot make progress."
)
_M_QUEUE_WAIT = _REGISTRY.histogram(
    "repro_queue_wait_seconds",
    "Time a serving job waited between submission and execution start.",
    ("executor",),
)
_OBS_QUEUE_WAIT_PROCESS = _M_QUEUE_WAIT.labels(executor="process")


class RejectedError(RuntimeError):
    """Submission shed by admission control (queue full / pool closing).

    Permanent by classification: the serving tier must not burn retry
    budget re-offering work to a saturated pool -- backpressure is the
    caller's decision.
    """

    transient = False
    site = "admission"


class PoisonedJobError(RuntimeError):
    """A job killed ``poison_threshold`` consecutive workers; quarantined.

    Permanent: the job's content fingerprint is blocked at submission, so
    it can never be retried into the pool again.
    """

    transient = False
    site = "shard"

    def __init__(self, message: str, kills: int = 0) -> None:
        super().__init__(message)
        self.kills = kills


class WorkerCrashError(RuntimeError):
    """A worker died (or hung) while running the job.

    Transient: the job itself is not known to be at fault (that is what
    the poison counter decides), so a retry on a fresh shard may absorb
    it.
    """

    transient = True
    site = "shard"


class RemoteJobError(RuntimeError):
    """Parent-side stand-in for a child exception that did not survive
    pickling (or whose payload failed to unpickle).

    Carries the child-side :func:`~repro.engine.resilience.classify`
    bucket so the duck-typed ``transient`` attribute keeps the taxonomy
    intact across the process boundary.
    """

    site = "shard"

    def __init__(self, exc_type: str, message: str,
                 kind: str = "permanent") -> None:
        super().__init__(f"{exc_type}: {message}")
        self.exc_type = exc_type
        self.kind = kind
        self.transient = kind == "transient"


class ShardJob:
    """Mutable ticket for one submitted job; returned by :meth:`submit`.

    ``status`` is ``None`` while queued or in flight, then one of
    ``"ok" | "failed" | "timeout" | "cancelled" | "lost"`` (``lost`` =
    the pool died under it; the engine degrades lost jobs to the thread
    path).  Wait on it with :meth:`ShardPool.result`.  ``frame`` is the
    pickled ``(kind, payload, trace)`` body every dispatch sends.
    """

    __slots__ = (
        "id", "kind", "frame", "fingerprint", "deadline_at",
        "retry_budget", "created_at", "attempts", "retries", "kills",
        "status", "value", "error", "error_kind", "worker", "latency_s",
        "event", "enqueued_at", "queue_wait_s", "remote_span",
        "created_unix",
    )

    def __init__(self, job_id: int, kind: str, frame: bytes | None,
                 fingerprint: tuple | None, deadline_at: float | None,
                 retry_budget: int, created_at: float) -> None:
        self.id = job_id
        self.kind = kind
        self.frame = frame
        self.fingerprint = fingerprint
        self.deadline_at = deadline_at
        self.retry_budget = retry_budget
        self.created_at = created_at
        self.attempts = 0
        self.retries = 0
        self.kills = 0
        self.status: str | None = None
        self.value: Any = None
        self.error: BaseException | None = None
        self.error_kind: str | None = None
        self.worker: int | None = None
        self.latency_s = 0.0
        self.event = threading.Event()
        # Observability: accumulated queue wait across (re-)dispatches, and
        # the worker-side span tree shipped back with the result.
        self.enqueued_at = created_at
        self.queue_wait_s = 0.0
        self.remote_span: dict | None = None
        self.created_unix = time.time()

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class _Worker:
    """Supervisor-side record of one shard process and its pipe end."""

    __slots__ = ("wid", "proc", "conn", "ready", "stopping",
                 "spawned_at", "last_hb", "current")

    def __init__(self, wid: int, proc, conn, now: float) -> None:
        self.wid = wid
        self.proc = proc
        self.conn = conn
        self.ready = False
        self.stopping = False
        self.spawned_at = now
        self.last_hb = now
        self.current: ShardJob | None = None


def _freeze(obj: Any) -> Any:
    """Make ``obj`` content-hashable for quarantine fingerprints."""
    if isinstance(obj, dict):
        return tuple((k, _freeze(v)) for k, v in sorted(obj.items()))
    if isinstance(obj, (tuple, list)):
        return tuple(_freeze(x) for x in obj)
    if callable(obj):
        return (
            f"{getattr(obj, '__module__', '?')}."
            f"{getattr(obj, '__qualname__', repr(obj))}"
        )
    return obj


def _reap(procs: list) -> None:
    """Finalizer / shutdown backstop: no shard outlives the pool."""
    for proc in procs:
        try:
            if proc.is_alive():
                proc.kill()
                proc.join(1.0)
        except Exception:
            pass


class ShardPool:
    """Supervised process-shard pool (see the module docstring).

    Parameters
    ----------
    shards:
        Worker-process count; ``None`` = one per core, capped at 8.
    backend:
        Backend registry name pinned inside every worker (``None`` lets
        workers resolve ``REPRO_BACKEND`` / the library default).  Workers
        run in a fresh context, so no other selection of the creating
        context -- a ``use_backend`` stack, a serving override, a fault
        plan -- reaches them.
    max_pending:
        Admission bound: queued + in-flight jobs beyond this shed with
        :class:`RejectedError`.
    heartbeat_s, hang_after_s:
        Worker heartbeat cadence, and how long heartbeats may be missing
        before the worker is declared hung (default ``20 * heartbeat_s``).
    boot_timeout_s:
        Bootstrap budget before an unready worker is declared hung
        (separate knob: cold JIT warmup legitimately dwarfs a heartbeat).
    respawn_budget:
        Total replacement workers the pool may ever spawn; exhausted +
        last worker dead = unhealthy (outstanding jobs fail as lost).
    poison_threshold:
        Consecutive worker kills by one job before it is quarantined.
    max_dispatch:
        Dispatch attempts per job (first try + crash re-dispatches).
    worker_faults:
        Optional :class:`~repro.engine.faults.WorkerFaults` schedule
        shipped to every worker (chaos testing).
    start_method:
        ``multiprocessing`` start method; default ``fork`` where
        available (numba's tbb/workqueue threading layers are fork-safe;
        kernel caches make ``spawn`` workers cheap elsewhere).
    """

    def __init__(
        self,
        shards: int | None = None,
        backend: str | None = None,
        *,
        max_pending: int = 256,
        heartbeat_s: float = 0.25,
        hang_after_s: float | None = None,
        boot_timeout_s: float = 120.0,
        respawn_budget: int = 8,
        poison_threshold: int = 2,
        max_dispatch: int = 4,
        worker_faults: Any = None,
        start_method: str | None = None,
    ) -> None:
        if shards is None:
            shards = max(1, min(8, os.cpu_count() or 1))
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if heartbeat_s <= 0 or boot_timeout_s <= 0:
            raise ValueError("heartbeat_s and boot_timeout_s must be positive")
        if poison_threshold < 1 or max_dispatch < 1:
            raise ValueError("poison_threshold and max_dispatch must be >= 1")
        if start_method is None:
            start_method = (
                "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            )
        self._shards = shards
        self._backend_name = backend
        self._max_pending = max_pending
        self._heartbeat_s = heartbeat_s
        self._hang_after_s = (
            20.0 * heartbeat_s if hang_after_s is None else hang_after_s
        )
        self._boot_timeout_s = boot_timeout_s
        self._respawn_budget = respawn_budget
        self._poison_threshold = poison_threshold
        self._max_dispatch = max_dispatch
        self._worker_faults = worker_faults
        self._start_method = start_method

        self._ctx = mp.get_context(start_method)
        self._tick = max(0.01, min(0.25, heartbeat_s / 2.0))
        # The supervisor's wake-up pipe (see _kick); it closes both ends
        # when it exits.
        wake_r, wake_w = os.pipe()
        os.set_blocking(wake_w, False)
        self._wake_r = open(wake_r, "rb", buffering=0)
        self._wake_w = open(wake_w, "wb", buffering=0)

        self._cond = threading.Condition()
        self._workers: list[_Worker] = []
        self._pending: deque[ShardJob] = deque()
        self._jobs: dict[int, ShardJob] = {}
        self._quarantine: set[tuple] = set()
        self._next_wid = 0
        self._next_job_id = 0
        self._closed = False
        self._draining = False
        self._unhealthy = False

        # Event counts by metric label (read under the lock via stats()).
        self._events: Counter[str] = Counter()

        self._all_procs: list = []
        self._finalizer = weakref.finalize(self, _reap, self._all_procs)

        now = time.monotonic()
        with self._cond:
            for _ in range(shards):
                self._spawn(now)
        self._supervisor = threading.Thread(
            target=self._supervise, name="shard-supervisor", daemon=True
        )
        self._supervisor.start()

    # -- front door --------------------------------------------------------
    def submit(
        self,
        kind: str,
        payload: Any,
        *,
        deadline_s: float | None = None,
        retry_budget: int = 0,
        trace: tuple[str, str] | None = None,
    ) -> ShardJob:
        """Enqueue one job; returns its ticket (wait via :meth:`result`).

        ``trace`` optionally carries the caller's ``(trace_id,
        parent_span_id)`` pair into the job envelope, so the worker's span
        subtree stitches under the caller's request span (see
        ``repro.obs``).  Raises :class:`RejectedError` when the pool is
        closing, draining, or at ``max_pending``; :class:`PoisonedJobError`
        when the job's content fingerprint is quarantined.  The job body is
        pickled here, in the caller's thread, and every dispatch reuses the
        bytes: a payload that does not pickle returns a ticket already
        finished ``failed`` (permanent).  On an unhealthy pool the returned
        ticket is already finished ``lost``.
        """
        if kind not in JOB_KINDS:
            raise ValueError(f"unknown job kind {kind!r}")
        try:
            fingerprint = content_key("shard-job", kind, _freeze(payload))
        except TypeError:
            fingerprint = None  # unhashable content: not quarantinable
        try:
            frame, error = dumps((kind, payload, trace)), None
        except Exception as exc:  # e.g. a lambda or a local function
            frame, error = None, exc
        now = time.monotonic()
        with self._cond:
            if self._closed or self._draining:
                self._count("shed")
                raise RejectedError("shard pool is not accepting submissions")
            if fingerprint is not None and fingerprint in self._quarantine:
                raise PoisonedJobError(
                    "job content is quarantined (previously killed "
                    f"{self._poison_threshold} consecutive workers)",
                    kills=self._poison_threshold,
                )
            if len(self._jobs) >= self._max_pending:
                self._count("shed")
                raise RejectedError(
                    f"admission queue full ({self._max_pending} jobs pending)"
                )
            job = ShardJob(
                self._next_job_id, kind, frame, fingerprint,
                None if deadline_s is None else now + deadline_s,
                retry_budget, now,
            )
            self._next_job_id += 1
            self._count("submitted")
            if frame is None:
                self._finish(job, "failed", error=error,
                             error_kind="permanent")
                return job
            if self._unhealthy:
                # No worker will ever run it: finish it lost right away,
                # like the jobs outstanding when the pool died.
                self._finish(job, "lost", error=WorkerCrashError(
                    "shard pool is unhealthy (respawn budget exhausted)",
                ), error_kind="transient")
                return job
            self._jobs[job.id] = job
            self._pending.append(job)
        self._kick()
        return job

    def result(self, job: ShardJob, timeout: float | None = None) -> ShardJob:
        """Block until ``job`` reaches a terminal status; returns it."""
        if not job.event.wait(timeout):
            raise TimeoutError(f"job {job.id} still running after {timeout}s")
        return job

    def cancel(self, job: ShardJob) -> bool:
        """Cancel ``job`` if it has not been dispatched yet."""
        with self._cond:
            if job.status is None and job in self._pending:
                self._pending.remove(job)
                self._finish(job, "cancelled")
                return True
            return False

    def drain(self, timeout: float | None = None) -> bool:
        """Stop admitting, finish all queued/in-flight jobs, then shut
        down (joining every worker).  Returns ``True`` iff everything
        completed within ``timeout``."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            self._draining = True
            while self._jobs:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    break
                self._cond.wait(
                    0.2 if remaining is None else min(0.2, remaining)
                )
            drained = not self._jobs
        self.shutdown()
        return drained

    def shutdown(self) -> None:
        """Cancel queued jobs, let in-flight ones finish (hang detection
        still applies), stop and join every worker.  Idempotent."""
        with self._cond:
            already = self._closed
            self._closed = True
            if not already:
                for job in list(self._pending):
                    self._finish(job, "cancelled")
                self._pending.clear()
            supervisor = self._supervisor
        self._kick()
        if supervisor is not None and supervisor is not threading.current_thread():
            supervisor.join(timeout=30.0)
            if supervisor.is_alive():
                _reap(self._all_procs)
                supervisor.join(timeout=5.0)
        _reap(self._all_procs)
        self._finalizer.detach()

    # -- introspection -----------------------------------------------------
    @property
    def healthy(self) -> bool:
        """Whether the pool can currently make progress (the engine
        degrades to the thread path when this is ``False``)."""
        with self._cond:
            return not self._unhealthy and not self._closed

    def stats(self) -> dict[str, Any]:
        """Counter snapshot (shape consumed by ``Engine.health()``)."""
        with self._cond:
            events = self._events
            return {
                "shards": self._shards,
                "workers_alive": sum(
                    1 for w in self._workers if w.proc.is_alive()
                ),
                "queue_depth": len(self._pending),
                "inflight": sum(
                    1 for w in self._workers if w.current is not None
                ),
                "submitted": events["submitted"],
                "completed": events["completed"],
                "shed": events["shed"],
                "respawns": events["respawn"],
                "crashes": events["crash"],
                "hangs": events["hang"],
                "injected_kills": events["injected_kill"],
                "quarantined": events["quarantined"],
                "retries": events["retry"],
                "unhealthy": self._unhealthy,
                "closed": self._closed,
                "backend": self._backend_name,
                "start_method": self._start_method,
                "respawn_budget": self._respawn_budget,
            }

    # -- supervisor --------------------------------------------------------
    def _count(self, event: str) -> None:
        """Count one pool event in ``stats()`` and its metric mirror."""
        self._events[event] += 1
        _M_POOL_EVENTS.inc(event=event)

    def _kick(self) -> None:
        """Wake the supervisor immediately (new work / state change)."""
        try:
            self._wake_w.write(b"\0")  # a full pipe: a wake-up is pending
        except (OSError, ValueError):
            pass  # closed: the supervisor has exited

    def _supervise(self) -> None:
        # Imported here: workloads that never start a pool skip its cost.
        from multiprocessing.connection import wait

        while True:
            with self._cond:
                pipes = {w.conn: w for w in self._workers if not w.conn.closed}
                sentinels = [w.proc.sentinel for w in self._workers]
            ready = wait([self._wake_r, *pipes, *sentinels], self._tick)
            if self._wake_r in ready:
                self._wake_r.read(4096)
            # Receive outside the lock, so submitters never wait on a large
            # result; only this thread touches the pipes and ``current``.
            inbox = [(pipes[c], self._receive(pipes[c]))
                     for c in ready if c in pipes]
            with self._cond:
                now = time.monotonic()
                for w, msg in inbox:
                    if msg is not None:
                        self._handle(w, msg, now)
                self._scan(now)
                self._dispatch(now)
                self._publish_gauges(now)
                if self._closed:
                    for w in self._workers:
                        if w.current is None and not w.stopping:
                            w.stopping = True
                            try:
                                w.conn.send_bytes(b"")  # stop
                            except OSError:
                                pass  # already dead: the scan reaps it
                    if not self._workers:
                        self._wake_r.close()
                        self._wake_w.close()
                        return

    @staticmethod
    def _receive(w: _Worker) -> tuple | None:
        """One message off ``w``'s pipe, or ``None`` once it reads EOF.

        A message that fails to unpickle becomes a permanent ``err`` for
        the job ``w`` is running.
        """
        try:
            frame = w.conn.recv_bytes()
        except (EOFError, OSError):
            # Drop the pipe from the wait set; the sentinel reports the death.
            w.conn.close()
            return None
        try:
            return pickle.loads(frame)
        except Exception as exc:
            job_id = None if w.current is None else w.current.id
            return (MSG_ERR, job_id, "permanent", RemoteJobError(
                type(exc).__name__,
                f"result of job {job_id} failed to unpickle: {exc}",
            ))

    def _handle(self, w: _Worker, msg: tuple, now: float) -> None:
        w.last_hb = now  # any message shows the worker alive
        tag = msg[0]
        if tag == MSG_READY:
            w.ready = True
        if tag in (MSG_READY, MSG_HB):
            return
        job, w.current = w.current, None
        if job is None:
            return
        if tag == MSG_DONE:
            job.remote_span = msg[3]
            self._finish(job, "ok", value=msg[2])
            return
        _tag, _job_id, kind, error = msg
        if (kind == "transient" and job.retries < job.retry_budget
                and not self._closed):
            job.retries += 1
            self._count("retry")
            job.kills = 0  # the worker survived: kills are not consecutive
            job.enqueued_at = now
            self._pending.appendleft(job)
            return
        if isinstance(error, tuple):  # (type name, message)
            error = RemoteJobError(*error, kind)
        self._finish(
            job, "timeout" if kind == "timeout" else "failed",
            error=error, error_kind=kind,
        )

    def _scan(self, now: float) -> None:
        for w in list(self._workers):
            exitcode = w.proc.exitcode
            if exitcode is not None:
                self._remove(w)
                if w.stopping and exitcode == 0:
                    continue
                self._on_death(
                    w, "crash", injected=exitcode == CRASH_EXITCODE, now=now
                )
            elif not w.ready:
                if now - w.spawned_at > self._boot_timeout_s:
                    self._kill(w)
                    self._remove(w)
                    self._on_death(w, "hang", injected=False, now=now)
            elif now - w.last_hb > self._hang_after_s:
                self._kill(w)
                self._remove(w)
                self._on_death(w, "hang", injected=False, now=now)

    def _remove(self, w: _Worker) -> None:
        self._workers.remove(w)
        w.conn.close()

    @staticmethod
    def _kill(w: _Worker) -> None:
        try:
            w.proc.kill()
            w.proc.join(1.0)
        except Exception:
            pass

    def _on_death(self, w: _Worker, reason: str, injected: bool,
                  now: float) -> None:
        self._count(reason)
        if injected:
            self._count("injected_kill")
        job = w.current
        w.current = None
        if job is not None and job.status is None:
            if self._closed:
                self._finish(job, "cancelled")
            else:
                job.kills += 1
                if job.kills >= self._poison_threshold:
                    if job.fingerprint is not None:
                        self._quarantine.add(job.fingerprint)
                    self._count("quarantined")
                    self._finish(job, "failed", error=PoisonedJobError(
                        f"job {job.id} killed {job.kills} consecutive "
                        "workers; quarantined", kills=job.kills,
                    ), error_kind="permanent")
                elif job.attempts >= self._max_dispatch:
                    self._finish(job, "failed", error=WorkerCrashError(
                        f"job {job.id} lost its worker ({reason}) on all "
                        f"{job.attempts} dispatch attempts",
                    ), error_kind="transient")
                else:
                    job.enqueued_at = now
                    self._count("redispatch")
                    self._pending.appendleft(job)
        if self._closed:
            return
        if self._events["respawn"] < self._respawn_budget:
            self._count("respawn")
            self._spawn(now)
        elif not self._workers:
            # Budget exhausted and nobody left: fail everything as lost
            # (transient) so the engine can degrade it to the thread path.
            self._unhealthy = True
            for j in list(self._jobs.values()):
                if j.status is None:
                    try:
                        self._pending.remove(j)
                    except ValueError:
                        pass
                    self._finish(j, "lost", error=WorkerCrashError(
                        "shard pool lost all workers "
                        "(respawn budget exhausted)",
                    ), error_kind="transient")

    def _dispatch(self, now: float) -> None:
        # Expire queued jobs whose deadline passed, idle workers or not.
        if self._pending:
            alive: deque[ShardJob] = deque()
            for job in self._pending:
                if job.deadline_at is not None and now >= job.deadline_at:
                    self._finish(job, "cancelled", error_kind="timeout")
                else:
                    alive.append(job)
            self._pending = alive
        if self._closed:
            return
        for w in self._workers:
            if not self._pending:
                break
            if not w.ready or w.current is not None or w.stopping:
                continue
            job = self._pending.popleft()
            remaining = (
                math.nan if job.deadline_at is None
                else max(0.001, job.deadline_at - now)
            )
            job.attempts += 1
            job.worker = w.wid
            w.current = job
            try:
                w.conn.send_bytes(JOB_HEAD.pack(job.id, remaining) + job.frame)
            except OSError:
                # Broken pipe to a dying worker: undo; the scan reaps it.
                w.current = None
                job.attempts -= 1
                self._pending.appendleft(job)
            else:
                wait = max(0.0, now - job.enqueued_at)
                job.queue_wait_s += wait
                _OBS_QUEUE_WAIT_PROCESS.observe(wait)

    def _publish_gauges(self, now: float) -> None:
        """Refresh the pool gauges (one supervisor tick's snapshot)."""
        _M_QUEUE_DEPTH.set(len(self._pending))
        _M_INFLIGHT.set(
            sum(1 for w in self._workers if w.current is not None)
        )
        _M_WORKERS_ALIVE.set(
            sum(1 for w in self._workers if w.proc.is_alive())
        )
        ages = [now - w.last_hb for w in self._workers if w.ready]
        _M_HB_AGE.set(max(ages) if ages else 0.0)
        _M_UNHEALTHY.set(1.0 if self._unhealthy else 0.0)

    def _spawn(self, now: float) -> None:
        wid = self._next_wid
        self._next_wid += 1
        conn, child_conn = self._ctx.Pipe()
        config = WorkerConfig(
            backend=self._backend_name,
            heartbeat_s=self._heartbeat_s,
            faults=self._worker_faults,
        )
        proc = self._ctx.Process(
            target=worker_main,
            args=(wid, child_conn, config),
            name=f"repro-shard-{wid}",
            daemon=True,
        )
        try:
            proc.start()
        except Exception:
            conn.close()
            self._unhealthy = True
            return
        finally:
            # The worker now holds the only copy of its end: its death
            # reads as EOF here.
            child_conn.close()
        self._workers.append(_Worker(wid, proc, conn, now))
        self._all_procs.append(proc)

    def _finish(self, job: ShardJob, status: str, value: Any = None,
                error: BaseException | None = None,
                error_kind: str | None = None) -> None:
        job.status = status
        job.value = value
        job.error = error
        job.error_kind = error_kind
        job.latency_s = time.monotonic() - job.created_at
        job.frame = None  # terminal: no dispatch will send it again
        self._jobs.pop(job.id, None)
        self._count("completed")
        _M_POOL_JOBS.inc(status=status)
        job.event.set()
        self._cond.notify_all()
