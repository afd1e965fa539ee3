"""The Engine facade: artifact-reusing, concurrency-safe query serving.

cuSLINK (Nolet et al.) packages single-linkage as a reusable end-to-end
system rather than a bare kernel; :class:`Engine` is that layer for this
reproduction.  It owns a content-keyed :class:`~repro.engine.cache.
ArtifactCache` and exposes batched query APIs on top of the phase-plan
pipeline:

* :meth:`Engine.fit` -- build (or fetch) a dendrogram for an MST, returned
  as a reusable :class:`DendrogramHandle` supporting single and batched
  multi-cut flat-clustering queries;
* :meth:`Engine.hdbscan` / :meth:`Engine.hdbscan_batch` -- HDBSCAN* over a
  point cloud; the batch form runs one kd-tree build + one kNN self-query
  for *all* ``mpts`` values (the per-``mpts`` mutual-reachability EMSTs
  slice the shared table to exactly the columns an unshared run would use,
  so results match the naive per-``mpts`` loop) and caches every kNN and
  EMST artifact for later queries (dendrograms are cached on the
  :meth:`Engine.fit` path; the HDBSCAN extraction stages always run);
* :meth:`Engine.map` / :meth:`Engine.fit_many` /
  :meth:`Engine.hdbscan_many` -- one serving loop
  (:meth:`Engine._serve`) over two executor adapters: a thread pool, or
  the supervised process-shard pool.  The loop keeps submission order and
  owns raise-first cancellation (no policy), the batch deadline and the
  result list; the adapters submit, wait and cancel.  On the thread
  executor each job runs in a **snapshot of the submitting context**
  (``contextvars.copy_context``), so backend selection, hot-path flags and
  the debug-checks setting propagate to workers, while anything a job sets
  stays local to that job.  Inherited cost-model tracking is suspended per
  job (``untracked``) because CostModel instances are not thread-safe; a
  job opens its own ``tracking`` block when it wants a trace.  The default
  worker count is keyed on the active backend's
  :attr:`~repro.parallel.backend.Backend.releases_gil` capability: a
  GIL-releasing backend (``numba-parallel``) gets one worker per core --
  kernels genuinely overlap -- while a GIL-holding backend gets a small
  pool that can only overlap NumPy-internal unlocked stretches.

Everything the engine returns obeys the library-wide determinism contract:
a handle's parent array is bit-identical to a direct ``pandora()`` call on
the same input, whichever backend or index-dtype regime is active.
"""

from __future__ import annotations

import contextvars
import functools
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from ..core.pandora import PandoraStats, pandora
from ..hdbscan.pipeline import HDBSCANResult, hdbscan, hdbscan_plan
from ..obs.metrics import REGISTRY as _REGISTRY
from ..obs.metrics import enabled as _obs_enabled
from ..obs.metrics import label_scope as _label_scope
from ..obs.spans import Span as _ObsSpan
from ..obs.spans import new_id as _new_id
from ..obs.spans import record_tree as _record_tree
from ..obs.spans import recent_spans as _recent_spans
from ..obs.spans import span as _obs_span
from ..parallel.backend import Backend, get_backend, use_backend
from ..parallel.connected import compress_labels, connected_components
from ..parallel.machine import CostModel, active_model, untracked
from ..parallel.workspace import index_dtype
from ..spatial.emst import EMSTResult, KNNArtifact, emst, knn_columns, knn_graph
from ..structures.dendrogram import Dendrogram
from ..structures.edgelist import as_edge_arrays
from .cache import ArtifactCache, content_key
from .plan import Phase, Plan
from .procpool import PoisonedJobError, RejectedError, ShardPool
from .resilience import (
    BreakerBoard,
    HealthCounters,
    JobResult,
    ServePolicy,
    run_job,
    serving_override,
)

__all__ = ["Engine", "DendrogramHandle"]

# Observability mirrors (see docs/observability.md).  The request-latency
# histogram is shared with ``resilience.run_job`` (get-or-create by name);
# the engine observes it for process-executor jobs, whose latency is
# accounted pool-side.
_M_CALLS = _REGISTRY.counter(
    "repro_engine_calls_total",
    "Engine API entry calls by method (serving-path jobs included).",
    ("method",),
)
_M_REQUEST = _REGISTRY.histogram(
    "repro_request_seconds",
    "End-to-end serving-request latency (retries and fallbacks included).",
    ("executor", "status"),
)


@dataclass(frozen=True)
class DendrogramHandle:
    """A reusable fitted dendrogram plus its run statistics.

    Handles are immutable and safe to share across threads; all query
    methods are read-only.
    """

    dendrogram: Dendrogram
    stats: PandoraStats

    @property
    def parent(self) -> np.ndarray:
        return self.dendrogram.parent

    @property
    def n_vertices(self) -> int:
        return self.dendrogram.n_vertices

    def cut(self, threshold: float) -> np.ndarray:
        """Flat clusters at one merge-height threshold (labels ``0..k-1``)."""
        return self.dendrogram.cut(threshold)

    def cut_many(self, thresholds: Sequence[float]) -> np.ndarray:
        """Flat clusterings at many thresholds in one incremental pass.

        Returns a ``(len(thresholds), n_vertices)`` label matrix; row ``i``
        equals ``cut(thresholds[i])`` exactly.  Thresholds are processed in
        ascending order and the connected-components state is carried
        between them, so each additional cut costs only the *newly* merged
        edges plus one relabeling -- the naive loop rescans every edge
        below each threshold.  A NaN threshold raises ``ValueError``, as
        :meth:`cut` does.
        """
        dend = self.dendrogram
        nv = dend.n_vertices
        thresholds = np.asarray(list(thresholds), dtype=np.float64)
        if np.isnan(thresholds).any():
            raise ValueError("cut thresholds must not be NaN")
        out = np.empty((thresholds.size, nv), dtype=np.int64)
        if thresholds.size == 0:
            return out
        # Canonical order is weight-descending; reverse for an ascending
        # sweep (ties within equal weights are order-independent: unions
        # commute and labels stay min-vertex-id representatives).
        w_asc = dend.edges.w[::-1]
        u_asc = dend.edges.u[::-1]
        v_asc = dend.edges.v[::-1]
        labels = np.arange(nv, dtype=np.int64)
        pos = 0
        for t in np.argsort(thresholds, kind="stable"):
            hi = int(np.searchsorted(w_asc, thresholds[t], side="right"))
            if hi > pos:
                eu = labels[u_asc[pos:hi]]
                ev = labels[v_asc[pos:hi]]
                merged = connected_components(nv, np.stack([eu, ev], axis=1))
                labels = merged[labels]
                pos = hi
            out[t] = compress_labels(labels)[0]
        return out


def _fit_problem(problem: Sequence[Any]) -> tuple:
    if len(problem) == 3:
        u, v, w = problem
        return u, v, w, None
    u, v, w, nv = problem
    return u, v, w, nv


def _stitch_process_span(
    trace: tuple[str, str] | None, job: Any, backend_name: str
) -> None:
    """Assemble and record one process-executor request span tree.

    The parent side owns the request root (ids minted at submit
    time): a synthesized ``queue`` child carries the accumulated
    queue wait, the worker's shipped subtree (if any) slots under the
    root via the envelope ids, and dispatch retries / worker kills
    become span events.  Also lands the end-to-end latency in
    ``repro_request_seconds{executor="process"}``.
    """
    if trace is None or not _obs_enabled():
        return
    status = job.status or "?"
    trace_id, span_id = trace
    root = _ObsSpan(
        "request", trace_id=trace_id, span_id=span_id,
        labels={
            "executor": "process", "backend": backend_name,
            "kind": job.kind, "status": status,
            "attempts": job.attempts, "retries": job.retries,
        },
        start_unix=job.created_unix, duration_s=job.latency_s,
    )
    root.status = status
    queue = _ObsSpan(
        "queue", start_unix=job.created_unix,
        duration_s=job.queue_wait_s,
    )
    root.add_child(queue)
    if job.remote_span is not None:
        try:
            root.add_child(_ObsSpan.from_dict(job.remote_span))
        except Exception:
            pass  # malformed remote span must never fail a result
    if job.retries:
        root.event("shard_retries", count=job.retries)
    if job.kills:
        root.event("worker_kills", count=job.kills)
    if job.worker is not None:
        root.annotate(worker=job.worker)
    _M_REQUEST.observe(job.latency_s, executor="process", status=status)
    _record_tree(root)


def _shielded(fn: Callable[..., Any], item: Any) -> Any:
    with untracked():
        return fn(item)


class _ThreadLane:
    """Thread executor adapter for :meth:`Engine._serve`.

    Each job runs in a ``copy_context`` snapshot of the submitting context
    with inherited cost-model tracking suspended (``_shielded``), and
    under :func:`~repro.engine.resilience.run_job` when a policy is set.
    :meth:`body` is also the degraded path of lost process jobs.
    """

    def __init__(self, engine: "Engine", fn: Callable[..., Any],
                 policy: ServePolicy | None, backend_name: str,
                 batch_deadline: float | None, workers: int) -> None:
        self.engine, self.fn, self.policy = engine, fn, policy
        self.backend_name, self.batch_deadline = backend_name, batch_deadline
        self.workers = workers

    @contextmanager
    def open(self) -> Iterator[None]:
        with _label_scope(executor="thread", backend=self.backend_name), \
                ThreadPoolExecutor(max_workers=self.workers) as self.pool:
            yield

    def body(self, index: int, item: Any,
             submitted_at: float | None = None) -> JobResult:
        if self.policy is None:
            return JobResult(index=index, status="ok",
                             value=_shielded(self.fn, item))
        return run_job(
            functools.partial(_shielded, self.fn, item), index, self.policy,
            self.engine.breakers, self.engine._health, self.backend_name,
            self.batch_deadline, submitted_at,
        )

    def submit(self, index: int, item: Any, job: tuple[str, Any]) -> Any:
        return self.pool.submit(contextvars.copy_context().run, self.body,
                                index, item, time.perf_counter())

    def result(self, future: Any, timeout: float | None = None) -> JobResult:
        return future.result(timeout)

    def cancel(self, future: Any) -> bool:
        return future.cancel()


class _ProcessLane:
    """Process executor adapter for :meth:`Engine._serve` over a healthy
    :class:`~repro.engine.procpool.ShardPool`.

    Folds the deadlines into each job at submit, mints the request's trace
    ids, records health under a policy, stitches the request span, and
    re-runs ``lost`` jobs through the thread body.  A ticket is
    ``(index, item, trace, ShardJob)``, or the exception that shed or
    quarantined the job at the front door in place of the ``ShardJob``.
    """

    def __init__(self, thread: _ThreadLane, pool: ShardPool) -> None:
        self.thread, self.pool = thread, pool
        self.policy, self.backend_name = thread.policy, thread.backend_name

    def open(self) -> Any:
        return nullcontext()

    def submit(self, index: int, item: Any, job: tuple[str, Any]) -> tuple:
        policy, batch_deadline = self.policy, self.thread.batch_deadline
        deadline_s = None if policy is None else policy.job_deadline_s
        if batch_deadline is not None:
            remaining = max(0.001, batch_deadline - time.perf_counter())
            deadline_s = (
                remaining if deadline_s is None else min(deadline_s, remaining)
            )
        # The request's trace/span ids ride the job envelope, so the
        # worker-side span subtree comes back stitchable under this
        # request (see ``repro.obs``).
        trace = (_new_id(), _new_id()) if _obs_enabled() else None
        try:
            ticket = self.pool.submit(
                *job, deadline_s=deadline_s, trace=trace,
                retry_budget=0 if policy is None else policy.max_retries,
            )
        except (RejectedError, PoisonedJobError) as exc:
            ticket = exc
        return index, item, trace, ticket

    def result(self, ticket: tuple, timeout: float | None = None) -> JobResult:
        index, item, trace, job = ticket
        backend = self.backend_name
        if isinstance(job, BaseException):
            outcome = JobResult(index=index, status="failed", error=job,
                                error_kind="permanent", backend=backend)
        else:
            job = self.pool.result(job, timeout)
            if job.status == "lost":
                # The degraded re-run records its own thread-path request
                # span and health; no process-side span is stitched.
                self.thread.engine._pool_degraded += 1
                with _label_scope(executor="thread", backend=backend):
                    return contextvars.copy_context().run(
                        self.thread.body, index, item
                    )
            _stitch_process_span(trace, job, backend)
            outcome = JobResult(
                index=index, status=job.status, value=job.value,
                error=job.error, error_kind=job.error_kind,
                attempts=job.attempts, retries=job.retries,
                latency_s=job.latency_s,
                backend=None if job.status == "cancelled" else backend,
            )
        if self.policy is not None:
            health = self.thread.engine._health
            health.record(backend, outcome.status)
            if outcome.retries:
                health.record(backend, "retries", outcome.retries)
        return outcome

    def cancel(self, ticket: tuple) -> bool:
        job = ticket[3]
        return not isinstance(job, BaseException) and self.pool.cancel(job)


class Engine:
    """Facade over the pipeline with artifact reuse and a serving path.

    Parameters
    ----------
    backend:
        Optional backend (registry name or instance) every engine call is
        pinned to; ``None`` uses whatever is active in the calling context.
    cache_entries:
        Capacity of the content-keyed artifact cache (LRU).
    executor:
        Default serving executor for :meth:`map` / :meth:`fit_many` /
        :meth:`hdbscan_many`: ``"thread"`` (in-process pool, the
        historical behaviour) or ``"process"`` (the supervised
        :class:`~repro.engine.procpool.ShardPool` -- crash isolation,
        heartbeats, re-dispatch, poison quarantine, load shedding).
    shards:
        Worker-process count for the process executor (``None`` = pool
        default).
    pool_options:
        Extra :class:`~repro.engine.procpool.ShardPool` keyword
        arguments (heartbeat cadence, respawn budget, injected
        ``worker_faults``, ...).
    """

    def __init__(
        self,
        backend: str | Backend | None = None,
        cache_entries: int = 64,
        executor: str = "thread",
        shards: int | None = None,
        pool_options: dict[str, Any] | None = None,
    ) -> None:
        if executor not in ("thread", "process"):
            raise ValueError(
                f"executor must be 'thread' or 'process', got {executor!r}"
            )
        self._backend = backend
        self.cache = ArtifactCache(max_entries=cache_entries)
        # Resilience state (persists across batches): circuit breakers per
        # (backend, site) and the per-backend health counters.
        self.breakers = BreakerBoard()
        self._health = HealthCounters()
        # Process fault domain (lazy: no worker is spawned until the
        # first process-executor batch).
        self._executor = executor
        self._shards = shards
        self._pool_options = dict(pool_options or {})
        self._pool: ShardPool | None = None
        self._pool_lock = threading.Lock()
        self._pool_degraded = 0

    # -- context -----------------------------------------------------------
    @contextmanager
    def _scope(self) -> Iterator[Backend]:
        # The serving-path degradation override outranks the engine pin:
        # a fallback re-run must actually execute on the fallback backend
        # even when this engine is pinned (see ``resilience``).
        target = serving_override()
        if target is None:
            target = self._backend
        if target is None:
            yield get_backend()
        else:
            with use_backend(target) as b:
                yield b

    # -- dendrogram construction -------------------------------------------
    def fit(
        self,
        u,
        v,
        w,
        n_vertices: int | None = None,
        cost_model: CostModel | None = None,
        plan: Plan | None = None,
    ) -> DendrogramHandle:
        """Build (or fetch from cache) the dendrogram of an MST.

        Semantics are identical to :func:`repro.core.pandora.pandora`; the
        result is cached by input *content*.  Calls that request a kernel
        trace (an explicit ``cost_model`` or an enclosing ``tracking``
        context) bypass the cache, since a cache hit runs no kernels and
        would otherwise silently record an empty trace.

        Parameters
        ----------
        u, v, w:
            MST edge arrays (endpoints and weights), any array-likes
            accepted by :func:`~repro.structures.edgelist.as_edge_arrays`.
        n_vertices:
            Vertex count; ``None`` infers ``max(u, v) + 1``.
        cost_model:
            Optional :class:`~repro.parallel.machine.CostModel` sink for
            the run's kernel records (forces a cache bypass).
        plan:
            Optional custom :class:`~repro.engine.plan.Plan` replacing the
            default PANDORA pipeline (forces a cache bypass).

        Returns
        -------
        DendrogramHandle
            Immutable handle over the dendrogram and its run statistics.

        Raises
        ------
        repro.structures.edgelist.InvalidGraphError
            If the edge list fails validation (mismatched lengths,
            negative endpoints, non-finite weights, ...).
        """
        _M_CALLS.inc(method="fit")
        with self._scope() as backend, \
                _obs_span("fit", backend=backend.name) as sp:
            if plan is not None or cost_model is not None or active_model() is not None:
                sp.annotate(cache="bypass")
                dend, stats = pandora(
                    u, v, w, n_vertices, cost_model=cost_model, plan=plan
                )
                return DendrogramHandle(dend, stats)
            ua, va, wa = as_edge_arrays(u, v, w)
            if n_vertices is None:
                n_vertices = int(
                    max(ua.max(initial=-1), va.max(initial=-1)) + 1
                )
            sp.annotate(n_edges=ua.size, n_vertices=int(n_vertices))
            key = content_key(
                "fit", ua, va, wa, int(n_vertices),
                str(index_dtype(ua.size + int(n_vertices))),
            )
            cached = self.cache.get(key)
            if cached is not None:
                sp.annotate(cache="hit")
                return cached
            sp.annotate(cache="miss")
            dend, stats = pandora(ua, va, wa, n_vertices)
            return self.cache.put(key, DendrogramHandle(dend, stats))

    # -- spatial artifacts -------------------------------------------------
    def _cached_artifact(self, key: tuple, compute):
        """Cache lookup honoring the trace-bypass rule: when a kernel trace
        is being recorded, a cache hit would silently record nothing, so
        tracked calls always compute live (and do not publish the result,
        which under weight ties could diverge from the cached one)."""
        if active_model() is not None:
            return compute()
        return self.cache.get_or_compute(key, compute)

    def knn(
        self,
        points: np.ndarray,
        k: int,
        leaf_size: int = 96,
        points_token: tuple | None = None,
    ) -> KNNArtifact:
        """Cached kd-tree + ``k``-column kNN self-query artifact.

        ``points_token`` optionally supplies a precomputed
        ``content_key(points)`` so batch callers hash the point array once.
        """
        _M_CALLS.inc(method="knn")
        pts = np.ascontiguousarray(points, dtype=np.float64)
        token = points_token if points_token is not None else content_key(pts)
        key = content_key("knn", token, int(k), int(leaf_size))
        with self._scope():
            return self._cached_artifact(
                key, lambda: knn_graph(pts, k, leaf_size=leaf_size)
            )

    def emst(
        self,
        points: np.ndarray,
        mpts: int = 1,
        leaf_size: int = 96,
        seed_k: int = 8,
        knn: KNNArtifact | None = None,
        points_token: tuple | None = None,
    ) -> EMSTResult:
        """Cached mutual-reachability (or Euclidean) EMST of a point cloud.

        ``knn`` optionally supplies a shared spatial artifact with at least
        ``knn_columns(mpts, n, seed_k)`` columns (the batch path builds one at
        the batch-wide maximum); without it the engine fetches or builds a
        cached artifact of exactly that width.  ``points_token`` is as in
        :meth:`knn`.
        """
        _M_CALLS.inc(method="emst")
        pts = np.ascontiguousarray(points, dtype=np.float64)
        n = int(pts.shape[0])
        token = points_token if points_token is not None else content_key(pts)
        key = content_key("emst", token, int(mpts), int(leaf_size), int(seed_k))

        def compute() -> EMSTResult:
            shared = knn
            if shared is None and n > 1:
                shared = self.knn(pts, knn_columns(mpts, n, seed_k),
                                  leaf_size=leaf_size, points_token=token)
            return emst(pts, mpts=mpts, leaf_size=leaf_size,
                        seed_k=seed_k, knn=shared)

        with self._scope():
            return self._cached_artifact(key, compute)

    # -- HDBSCAN* ----------------------------------------------------------
    def hdbscan(self, points: np.ndarray, mpts: int = 2, **kwargs) -> HDBSCANResult:
        """HDBSCAN* through the engine (single ``mpts``); caches the
        spatial artifacts so repeated or multi-parameter queries reuse
        them.  Accepts the keyword arguments of
        :func:`repro.hdbscan.pipeline.hdbscan`."""
        return self.hdbscan_batch(points, [mpts], **kwargs)[0]

    def hdbscan_batch(
        self,
        points: np.ndarray,
        mpts_values: Sequence[int],
        min_cluster_size: int = 5,
        dendrogram_algorithm: str = "pandora",
        allow_single_cluster: bool = False,
        leaf_size: int = 96,
        cost_model: CostModel | None = None,
    ) -> list[HDBSCANResult]:
        """HDBSCAN* at several ``mpts`` values with shared spatial work.

        The kd-tree build and the kNN self-query -- identical across the
        batch -- run once at the batch-wide maximum column count (the
        paper's Figure 15 sweeps ``mpts`` exactly this way); every
        per-``mpts`` EMST is cached for later queries (the dendrogram and
        extraction stages run per call -- use :meth:`fit` for cached
        dendrogram handles).  Each call runs :func:`~repro.hdbscan.pipeline.
        hdbscan` on a plan whose ``knn`` and ``emst`` phases read the
        cache, so ``phase_seconds["mst"]`` records what *this batch*
        actually paid for that EMST (near zero when it came from cache;
        the first result also carries the shared kNN build).
        """
        if not mpts_values:
            raise ValueError("mpts_values must be non-empty")
        if any(m < 1 for m in mpts_values):
            raise ValueError(f"every mpts must be >= 1, got {list(mpts_values)}")
        pts = np.ascontiguousarray(points, dtype=np.float64)
        n = int(pts.shape[0])
        _M_CALLS.inc(method="hdbscan_batch")
        # Hash the point array once for the whole batch (the digest, not
        # the hashing, is what the per-mpts keys need).  The shared kNN
        # artifact is built on the first ``knn`` phase, at the batch-wide
        # column count, once hdbscan() has validated its arguments (shape
        # and dendrogram algorithm included).
        token = content_key(pts)
        k = max(knn_columns(m, n) for m in mpts_values)
        shared = functools.cache(
            lambda: self.knn(pts, k, leaf_size=leaf_size, points_token=token)
            if n > 1 else None
        )
        plan = hdbscan_plan().replace("knn", Phase(
            "knn", lambda a: {"knn": shared()},
            provides=("knn",), bucket="mst",
        )).replace("emst", Phase(
            "emst", lambda a: {"mst": self.emst(
                pts, mpts=a["mpts"], leaf_size=leaf_size, knn=a["knn"],
                points_token=token,
            )},
            requires=("mpts", "knn"), provides=("mst",), bucket="mst",
        ))
        with self._scope() as backend, _obs_span(
            "hdbscan_batch", backend=backend.name, n=n,
            batch=len(mpts_values),
        ):
            results: list[HDBSCANResult] = []
            for m in mpts_values:
                with _obs_span("hdbscan", mpts=m) as sp:
                    res = hdbscan(
                        pts, mpts=m, min_cluster_size=min_cluster_size,
                        dendrogram_algorithm=dendrogram_algorithm,
                        allow_single_cluster=allow_single_cluster,
                        leaf_size=leaf_size, cost_model=cost_model, plan=plan,
                    )
                    sp.annotate(n_clusters=res.n_clusters)
                    results.append(res)
            return results

    # -- serving path ------------------------------------------------------
    @staticmethod
    def default_workers(backend: Backend) -> int:
        """Default serving-pool width for ``backend`` (the
        ``releases_gil`` heuristic).

        A GIL-releasing backend scales to one worker per core because its
        kernels execute concurrently; a GIL-holding backend is capped at a
        few workers -- beyond that, threads only contend for the
        interpreter while overlapping the stretches NumPy itself unlocks.
        """
        cpus = os.cpu_count() or 1
        if backend.releases_gil:
            return max(1, min(32, cpus))
        return max(1, min(4, cpus))

    def map(
        self,
        fn: Callable[..., Any],
        items: Iterable[Any],
        max_workers: int | None = None,
        policy: ServePolicy | None = None,
        executor: str | None = None,
    ) -> list[Any]:
        """Run ``fn(item)`` for every item on the serving executor.

        On the thread executor (the default) each job executes in a
        snapshot of the submitting context (backend selection, hot-path
        flags and debug-checks propagate; workspace pools remain
        per-thread by construction), with inherited cost-model tracking
        suspended -- see the module docstring.  Results are returned in
        submission order.  ``max_workers=None`` applies
        :meth:`default_workers` to the engine's (or context's) active
        backend.

        With ``policy=None`` (the default) the first job exception
        propagates -- after cancelling every still-pending job, so the
        pool never silently runs the rest of the batch and drops their
        exceptions.  With a :class:`~repro.engine.resilience.ServePolicy`,
        every item instead yields a
        :class:`~repro.engine.resilience.JobResult` envelope and the batch
        survives bad jobs: transient failures retry with backoff, tripped
        backends degrade down the fallback chain, deadlines cancel or time
        out jobs, and every outcome lands in :meth:`health`.

        ``executor="process"`` (or constructing the engine with it) runs
        the batch on the supervised :class:`~repro.engine.procpool.
        ShardPool` instead: jobs are crash-isolated in worker processes,
        dead and hung workers are respawned and their jobs re-dispatched,
        a job that keeps killing workers is quarantined
        (:class:`~repro.engine.procpool.PoisonedJobError`), and admission
        control sheds load (:class:`~repro.engine.procpool.
        RejectedError`).  ``fn`` must then be picklable (module-level),
        or every job fails permanently at submission; :meth:`fit_many` /
        :meth:`hdbscan_many` ship picklable job descriptors instead and
        have no such restriction.  If the pool is
        (or goes) unhealthy, affected jobs transparently degrade to the
        thread path -- legal because backends and processes are
        bit-identical on every input.
        """
        _M_CALLS.inc(method="map")
        items = list(items)
        jobs = [("call", (fn, item)) for item in items]
        return self._serve(fn, items, jobs, max_workers, policy, executor)

    def _serve(
        self,
        local_fn: Callable[..., Any],
        items: list[Any],
        jobs: list[tuple[str, Any]],
        max_workers: int | None,
        policy: ServePolicy | None,
        executor: str | None,
    ) -> list[Any]:
        """The serving loop: one batch, results in submission order.

        ``jobs`` holds picklable ``(kind, payload)`` descriptors for the
        process executor; ``local_fn(item)`` is the equivalent in-process
        body, used by the thread executor and by per-job degradation.
        The loop owns what both executors share: raise-first cancellation
        (``policy=None``: unwrap each outcome, and on the first failure
        cancel every job not yet running and re-raise), the batch deadline
        with the envelopes of the jobs it cancels, and the result list.
        The executor adapters (``_ThreadLane`` / ``_ProcessLane``) own
        only what differs: ``submit -> ticket``, ``result(ticket) ->
        JobResult`` and ``cancel(ticket)``.
        """
        if executor is None:
            executor = self._executor
        if executor not in ("thread", "process"):
            raise ValueError(
                f"executor must be 'thread' or 'process', got {executor!r}"
            )
        if not items:
            return []
        with self._scope() as backend:
            backend_name = backend.name
            workers = (self.default_workers(backend) if max_workers is None
                       else max_workers)
        batch_deadline = None
        if policy is not None and policy.batch_deadline_s is not None:
            batch_deadline = time.perf_counter() + policy.batch_deadline_s
        lane: _ThreadLane | _ProcessLane = _ThreadLane(
            self, local_fn, policy, backend_name, batch_deadline, workers
        )
        if executor == "process":
            pool = self._ensure_pool()
            if pool is not None and pool.healthy:
                lane = _ProcessLane(lane, pool)
            else:
                # Pool unavailable or unhealthy: the whole batch degrades to
                # the in-process thread path (bit-identical by contract).
                self._pool_degraded += len(items)

        with lane.open():
            tickets = [lane.submit(i, item, job)
                       for i, (item, job) in enumerate(zip(items, jobs))]
            results: list[Any] = []
            swept: set[int] = set()
            expired = batch_deadline is None
            try:
                for i, ticket in enumerate(tickets):
                    outcome = None
                    if not expired:
                        remaining = max(0.0, batch_deadline - time.perf_counter())
                        try:
                            outcome = lane.result(ticket, remaining)
                        except (TimeoutError, FuturesTimeout):
                            # Batch deadline: sweep-cancel everything not yet
                            # running, back to front (both executors consume
                            # in submission order, so the tail is least
                            # started).  Running jobs time out cooperatively.
                            expired = True
                            swept = {j for j in range(len(tickets) - 1, i - 1, -1)
                                     if lane.cancel(tickets[j])}
                    if i in swept:
                        self._health.record(backend_name, "cancelled")
                        results.append(JobResult(
                            index=i, status="cancelled",
                            error_kind="timeout", backend=None,
                        ))
                        continue
                    if outcome is None:
                        outcome = lane.result(ticket)
                    results.append(
                        outcome if policy is not None else outcome.unwrap()
                    )
            except BaseException:
                # Raise-first: the first failure in submission order cancels
                # every job not yet running, then propagates.
                for ticket in tickets:
                    lane.cancel(ticket)
                raise
            return results

    # -- process executor --------------------------------------------------
    def _ensure_pool(self) -> ShardPool | None:
        """The lazily created shard pool (``None`` if spawning failed)."""
        with self._pool_lock:
            if self._pool is None:
                with self._scope() as backend:
                    backend_name = backend.name
                options = dict(self._pool_options)
                options.setdefault("backend", backend_name)
                try:
                    self._pool = ShardPool(self._shards, **options)
                except Exception:
                    return None
            return self._pool

    def drain(self, timeout: float | None = None) -> bool:
        """Gracefully drain the process pool (if one was ever created):
        finish in-flight jobs, reject new submissions, join every worker.
        ``True`` iff everything completed in time (trivially so without a
        pool)."""
        with self._pool_lock:
            pool = self._pool
        return pool is None or pool.drain(timeout)

    def shutdown(self) -> None:
        """Tear down the process pool (if any); thread-path serving keeps
        working, and the next process batch starts a fresh pool."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown()

    def fit_many(
        self,
        problems: Iterable[Sequence[Any]],
        max_workers: int | None = None,
        policy: ServePolicy | None = None,
        executor: str | None = None,
    ) -> list[DendrogramHandle]:
        """Fit many MSTs concurrently: ``problems`` holds ``(u, v, w)`` or
        ``(u, v, w, n_vertices)`` tuples; returns handles in order (or
        :class:`~repro.engine.resilience.JobResult` envelopes under a
        ``policy`` -- see :meth:`map`).  On the process executor each
        problem ships to a shard as a plain ``fit`` descriptor (no
        closures cross the process boundary)."""
        _M_CALLS.inc(method="fit_many")
        problems = list(problems)
        jobs = [("fit", _fit_problem(p)) for p in problems]
        return self._serve(
            lambda p: self.fit(*_fit_problem(p)), problems, jobs,
            max_workers, policy, executor,
        )

    def hdbscan_many(
        self,
        point_sets: Iterable[np.ndarray],
        mpts: int = 2,
        max_workers: int | None = None,
        policy: ServePolicy | None = None,
        executor: str | None = None,
        **kwargs: Any,
    ) -> list[HDBSCANResult]:
        """Serve HDBSCAN* over many point clouds concurrently.

        The point-cloud analogue of :meth:`fit_many`: jobs overlap across
        the pool because the spatial front-end (kd-tree build, kNN, EMST
        leaf interactions) runs through the backend's ``nogil`` kernel
        realizations on the numba backends.  Under a ``policy``, ``knn``
        -site faults and spatial validation errors flow through the same
        retry/fallback taxonomy as edge-list jobs, and each item yields a
        :class:`~repro.engine.resilience.JobResult` envelope (see
        :meth:`map`).  ``kwargs`` are forwarded to :meth:`hdbscan`.
        """
        _M_CALLS.inc(method="hdbscan_many")
        point_sets = list(point_sets)
        jobs = [
            (
                "hdbscan",
                (
                    np.ascontiguousarray(pts, dtype=np.float64),
                    int(mpts),
                    tuple(sorted(kwargs.items())),
                ),
            )
            for pts in point_sets
        ]
        return self._serve(
            lambda pts: self.hdbscan(pts, mpts=mpts, **kwargs),
            point_sets, jobs, max_workers, policy, executor,
        )

    # -- introspection -----------------------------------------------------
    def cache_stats(self) -> dict[str, int]:
        """Artifact-cache counters: ``entries``, ``hits``, ``misses``,
        ``evictions``, ``put_faults``."""
        return self.cache.stats()

    def health(self) -> dict[str, Any]:
        """Serving-path health: per-backend outcome counters, breaker
        state, and the process fault domain, one introspection shape with
        :meth:`cache_stats`::

            {"total": {...}, "backends": {name: {...}}, "breakers": {...},
             "queue_depth": 0, "workers_alive": 0, "respawns": 0,
             "shed": 0, "degraded": 0, "pool": {...} | None}

        Counter keys are ``ok / failed / timeout / cancelled / retries /
        fallbacks / breaker_trips``; breakers are keyed ``backend/site``.
        The pool fields are zero (and ``pool`` is ``None``) until a
        process-executor batch first runs; ``degraded`` counts jobs this
        engine routed to the thread path because the pool was unhealthy.
        """
        snap = self._health.snapshot()
        snap["breakers"] = self.breakers.snapshot()
        with self._pool_lock:
            pool = self._pool
        stats = pool.stats() if pool is not None else None
        for key in ("queue_depth", "workers_alive", "respawns", "shed"):
            snap[key] = stats[key] if stats else 0
        snap["degraded"] = self._pool_degraded
        snap["pool"] = stats
        return snap

    def metrics(self, spans: int = 8) -> dict[str, Any]:
        """One structured observability snapshot (see docs/observability.md).

        Parameters
        ----------
        spans:
            How many of the most recent finished request span trees to
            include (the in-process ring buffer holds the last
            ``REPRO_OBS_SPANS``, default 64).

        Returns
        -------
        dict
            ``{"metrics": <registry snapshot>, "spans": [<span tree
            dict>, ...], "cache": <cache stats>, "health": <health
            snapshot>}``.  ``metrics`` is the process-wide
            :data:`repro.obs.REGISTRY` snapshot (counters, gauges,
            histogram buckets); ``spans`` are ``Span.to_dict()`` trees,
            oldest first -- render one with
            :func:`repro.obs.render_span_tree`.  ``cache`` and
            ``health`` are this engine's authoritative dicts, included so
            one call suffices to reconcile mirror against source.
        """
        return {
            "metrics": _REGISTRY.snapshot(),
            "spans": [s.to_dict() for s in _recent_spans(spans)],
            "cache": self.cache_stats(),
            "health": self.health(),
        }
