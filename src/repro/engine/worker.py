"""Shard-worker child process: spawn-safe bootstrap, job loop, heartbeats.

This module is the *inside* of the process fault domain: the function a
:class:`~repro.engine.procpool.ShardPool` runs in every worker process.
Everything here must be picklable-by-reference (module-level) so workers
start under any multiprocessing start method.

Spawn-safe re-initialization
----------------------------
Under the ``fork`` start method a child inherits the forking thread's
entire context: an armed :class:`~repro.engine.faults.FaultPlan`, a
``use_backend`` stack, cost-model tracking, workspace caps -- all of it.
None of that state was addressed to the child, and silently executing
under it would make worker behaviour depend on *where in the parent* the
fork happened.  :func:`reset_inherited_context` therefore runs first in
every worker, whatever the start method: it clears every context-local
selection the execution stack defines and pins exactly the backend the
pool was configured with.  The fault seam *hooks* are installed (importing
:mod:`repro.engine.faults` is how cooperative deadlines reach kernels),
but no plan is armed -- parent-side fault plans never leak into children;
the only faults a worker sees are the explicit
:class:`~repro.engine.faults.WorkerFaults` schedule in its config.

Protocol
--------
The worker receives ``("job", job_id, kind, payload, deadline_s, trace)``
/ ``("stop",)`` tuples on its private job queue (``trace`` is the
caller's ``(trace_id, parent_span_id)`` pair, or ``None``) and emits on
the shared result queue:

* ``("ready", worker_id, pid)`` -- bootstrap (including optional backend
  warmup and any injected slow start) finished; dispatch may begin.
* ``("hb", worker_id, seq)`` -- heartbeat, every ``heartbeat_s``, from a
  dedicated daemon thread so long-running kernels never look hung.
* ``("done", worker_id, job_id, blob)`` -- pickled ``(value, span)``
  pair; ``span`` is the worker-side trace-span tree as plain data
  (:meth:`repro.obs.Span.to_dict`), or ``None`` when observability is
  off.  The parent stitches it under the request span it created at
  submit time -- span ids cross the process boundary via the envelope.
* ``("err", worker_id, job_id, kind, enc)`` -- the job raised; ``kind`` is
  the :func:`~repro.engine.resilience.classify` bucket computed in-child
  and ``enc`` an exception encoding that survives unpicklable errors.

Values and errors are pre-pickled *in the worker* so a value that cannot
be pickled surfaces as a classified per-job error instead of dying inside
the queue's feeder thread (which would look like a lost worker).

Injected faults (the ``worker`` seam) act on reception, before execution:
a crash is ``os._exit(CRASH_EXITCODE)`` -- the distinctive exit code lets
the supervisor tell injected kills from real ones -- and a hang stops the
heartbeat thread and sleeps, which is exactly what a wedged worker looks
like from the parent.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from dataclasses import dataclass
from typing import Any

__all__ = [
    "CRASH_EXITCODE",
    "WorkerConfig",
    "reset_inherited_context",
    "worker_main",
]

#: Exit code of an injected worker crash (``WorkerFaults``): distinguishes
#: scheduled kills from real segfaults/OOM kills in the supervisor's books.
CRASH_EXITCODE = 173

#: How long an injected hang sleeps; the supervisor kills the worker long
#: before this expires (``hang_after_s``), it just must not return.
_HANG_SLEEP_S = 3600.0

MSG_READY = "ready"
MSG_HB = "hb"
MSG_DONE = "done"
MSG_ERR = "err"


@dataclass(frozen=True)
class WorkerConfig:
    """Picklable per-worker configuration shipped at spawn time.

    ``faults`` is an optional :class:`~repro.engine.faults.WorkerFaults`
    schedule (typed ``Any`` so importing this module never imports -- and
    therefore never arms -- the faults module in the parent).
    """

    backend: str | None = None
    heartbeat_s: float = 0.25
    warm: bool = False
    cache_entries: int = 32
    faults: Any = None


def reset_inherited_context(backend: str | None) -> None:
    """Drop every inherited context-local selection; pin ``backend``.

    Safe (and a no-op beyond the pin) under ``spawn``; load-bearing under
    ``fork``, where the child starts inside a copy of the forking thread's
    context -- see the module docstring.  Importing the faults module here
    is deliberate: it installs the seam hooks so cooperative job deadlines
    work in-child, while the plan/deadline ContextVars are cleared so no
    parent-side schedule survives.
    """
    from ..obs import metrics as _obs_metrics
    from ..obs import spans as _obs_spans
    from ..parallel import backend as _backend
    from ..parallel.machine import _ACTIVE, _DEBUG_CHECKS
    from ..parallel.workspace import _CAP, _CONFIG
    from . import faults as _faults

    _faults._PLAN.set(None)
    _faults._DEADLINE.set(None)
    _backend._STACK.set(())
    _backend._DEFAULT.set(None)
    _ACTIVE.set(())
    _DEBUG_CHECKS.set(None)
    _CAP.set(None)
    _CONFIG.set(None)
    _obs_spans._CURRENT.set(None)
    _obs_metrics._LABEL_CTX.set(())
    if backend is not None:
        _backend.set_default_backend(backend)


# ---------------------------------------------------------------------------
# Job kinds.  The pool ships (kind, payload) descriptors because the
# engine's thread-path closures do not pickle; each kind maps to a
# module-level runner over a per-process Engine whose artifact cache stays
# warm across the jobs this worker serves.
# ---------------------------------------------------------------------------

_ENGINE = None


def _worker_engine(cache_entries: int = 32):
    global _ENGINE
    if _ENGINE is None:
        from .engine import Engine

        _ENGINE = Engine(cache_entries=cache_entries)
    return _ENGINE


def _run_fit(payload: tuple) -> Any:
    u, v, w, n_vertices = payload
    return _worker_engine().fit(u, v, w, n_vertices)


def _run_hdbscan(payload: tuple) -> Any:
    points, mpts, kwargs = payload
    return _worker_engine().hdbscan(points, mpts=mpts, **dict(kwargs))


def _run_call(payload: tuple) -> Any:
    fn, item = payload
    return fn(item)


JOB_KINDS = {
    "fit": _run_fit,
    "hdbscan": _run_hdbscan,
    "call": _run_call,
}


def _encode_error(exc: BaseException) -> tuple:
    """Encode ``exc`` for the result queue, surviving unpicklable errors."""
    try:
        blob = pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL)
        pickle.loads(blob)  # some exceptions pickle but refuse to unpickle
        return ("pickle", blob)
    except Exception:
        return ("repr", (type(exc).__name__, str(exc)))


def worker_main(worker_id: int, job_q, result_q, config: WorkerConfig) -> None:
    """Entry point of one shard-worker process (see the module docstring)."""
    reset_inherited_context(config.backend)
    faults = config.faults
    if faults is not None and faults.slow_start_s > 0:
        time.sleep(faults.slow_start_s)

    from ..obs.spans import span as obs_span
    from ..parallel.backend import get_backend
    from .faults import deadline_scope
    from .resilience import classify

    _worker_engine(config.cache_entries)
    backend = get_backend()
    if config.warm and hasattr(backend, "warmup"):
        backend.warmup()

    stop_heartbeat = threading.Event()

    def _beat() -> None:
        seq = 0
        while not stop_heartbeat.wait(config.heartbeat_s):
            seq += 1
            try:
                result_q.put((MSG_HB, worker_id, seq))
            except Exception:  # queue torn down: parent is gone
                return

    result_q.put((MSG_READY, worker_id, os.getpid()))
    heartbeat = threading.Thread(
        target=_beat, name=f"shard-{worker_id}-hb", daemon=True
    )
    heartbeat.start()

    draw = 0
    try:
        while True:
            message = job_q.get()
            if message[0] == "stop":
                return
            _tag, job_id, kind, payload, deadline_s, trace = message
            if faults is not None:
                action = faults.decide(worker_id, draw)
                draw += 1
                if job_id in faults.poison_job_ids or action == "crash":
                    # Flush the result queue first: dying while its feeder
                    # thread holds the queue's cross-process write lock
                    # would block every other worker's sends for good.
                    stop_heartbeat.set()
                    heartbeat.join()
                    result_q.close()
                    result_q.join_thread()
                    os._exit(CRASH_EXITCODE)
                if action == "hang":
                    stop_heartbeat.set()
                    time.sleep(_HANG_SLEEP_S)
            deadline = (
                None if deadline_s is None
                else time.perf_counter() + deadline_s
            )
            try:
                with obs_span(
                    f"shard:{kind}", trace=trace, record=False,
                    worker=worker_id, pid=os.getpid(),
                ) as jsp:
                    with deadline_scope(deadline):
                        value = JOB_KINDS[kind](payload)
                blob = pickle.dumps(
                    (value, jsp.to_dict() if jsp else None),
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            except TimeoutError as exc:
                result_q.put(
                    (MSG_ERR, worker_id, job_id, "timeout", _encode_error(exc))
                )
            except BaseException as exc:  # noqa: BLE001 - full job isolation
                result_q.put(
                    (MSG_ERR, worker_id, job_id, classify(exc),
                     _encode_error(exc))
                )
            else:
                result_q.put((MSG_DONE, worker_id, job_id, blob))
    finally:
        stop_heartbeat.set()
