"""Process fault domain: shard pool supervision, quarantine, hygiene.

Everything here runs on the in-tree numpy backend with tight heartbeats so
crash/hang detection is fast; the cross-backend chaos gate lives in
``test_chaos.py`` (``-k process``).  An autouse fixture asserts no test
leaks a worker process -- graceful shutdown is part of the contract.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import signal
import threading
import time

import numpy as np
import pytest

from repro import Engine, InvalidGraphError
from repro.engine.faults import FaultPlan, SiteFaults, WorkerFaults, _uniform
from repro.engine.procpool import (
    PoisonedJobError,
    RejectedError,
    RemoteJobError,
    ShardPool,
    WorkerCrashError,
)
from repro.engine.resilience import ServePolicy, classify
from repro.parallel import use_backend

from repro.structures.tree import random_spanning_tree

#: Supervision knobs all tests share: fast heartbeats, fast hang calls.
FAST = dict(heartbeat_s=0.02, hang_after_s=0.6, boot_timeout_s=60.0)


@pytest.fixture(autouse=True)
def no_leaked_workers():
    """Every test must join every worker it spawned."""
    yield
    deadline = time.monotonic() + 10.0
    while mp.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert mp.active_children() == []


def _problems(rng, n_jobs=4, n=120):
    return [random_spanning_tree(n + 17 * i, rng, skew=0.4)
            for i in range(n_jobs)]


def _fit_payload(problem):
    u, v, w = problem
    return (u, v, w, None)


def _echo(x):
    return x


def _sleepy(seconds):
    time.sleep(seconds)
    return seconds


def _bounded(fn, timeout):
    """``fn()`` run in a daemon thread: its value, its exception, or a test
    failure after ``timeout`` seconds -- never a hung suite."""
    out = {}

    def run():
        try:
            out["value"] = fn()
        except BaseException as exc:  # re-raised in the test's thread
            out["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout)
    if thread.is_alive():
        pytest.fail(f"{fn} still running after {timeout}s")
    if "error" in out:
        raise out["error"]
    return out["value"]


def _kill_mid_write(nbytes):
    """Make this worker's next large pipe write send half its bytes and
    then SIGKILL the worker; returns ``nbytes`` of data, so that write is
    this job's own result."""
    from multiprocessing.connection import Connection

    send = Connection._send

    def half_then_die(self, buf, *args):
        if len(buf) >= nbytes:
            send(self, memoryview(buf)[: len(buf) // 2], *args)
            os.kill(os.getpid(), signal.SIGKILL)
        send(self, buf, *args)

    Connection._send = half_then_die
    return bytes(nbytes)


def _refuse_to_load():
    raise RuntimeError("refuses to unpickle")


class _LoadsBadly:
    """Pickles in the worker, raises when the parent unpickles it."""

    def __reduce__(self):
        return (_refuse_to_load, ())


def _make_unloadable(_):
    return _LoadsBadly()


def _crash_seed(p_crash: float) -> int:
    """A seed where worker 0's first reception crashes but worker 1's
    (its respawn) does not -- a deterministic single-crash schedule for a
    one-shard pool."""
    for seed in range(1000):
        if (_uniform(seed, "worker:0", 0) < p_crash
                and _uniform(seed, "worker:1", 0) >= p_crash):
            return seed
    raise AssertionError("no such seed in range")


# ---------------------------------------------------------------------------
# WorkerFaults (the `worker` seam)
# ---------------------------------------------------------------------------


class TestWorkerFaults:
    def test_deterministic_per_worker_and_draw(self):
        wf = WorkerFaults(p_crash=0.3, p_hang=0.2, seed=7)
        a = [wf.decide(0, d) for d in range(50)]
        assert a == [wf.decide(0, d) for d in range(50)]
        assert a != [wf.decide(1, d) for d in range(50)]
        assert set(a) <= {"crash", "hang", None}

    def test_probability_sum_validated(self):
        with pytest.raises(ValueError):
            WorkerFaults(p_crash=0.8, p_hang=0.3)
        with pytest.raises(ValueError):
            WorkerFaults(slow_start_s=-1.0)

    def test_zero_rates_never_fire(self):
        wf = WorkerFaults()
        assert all(wf.decide(w, d) is None
                   for w in range(4) for d in range(20))


# ---------------------------------------------------------------------------
# ShardPool basics
# ---------------------------------------------------------------------------


class TestShardPoolBasics:
    def test_fit_jobs_round_trip_bit_identical(self, rng):
        probs = _problems(rng)
        baseline = Engine().fit_many(probs)
        pool = ShardPool(2, backend="numpy", **FAST)
        try:
            tickets = [pool.submit("fit", _fit_payload(p)) for p in probs]
            for base, t in zip(baseline, tickets):
                job = pool.result(t, timeout=60.0)
                assert job.ok, (job.status, job.error)
                assert np.array_equal(job.value.parent, base.parent)
        finally:
            pool.shutdown()
        stats = pool.stats()
        assert stats["completed"] == len(probs)
        assert stats["crashes"] == stats["hangs"] == 0

    def test_call_jobs_and_unknown_kind(self):
        pool = ShardPool(1, backend="numpy", **FAST)
        try:
            job = pool.result(pool.submit("call", (_echo, 41)), timeout=60.0)
            assert job.ok and job.value == 41
            with pytest.raises(ValueError):
                pool.submit("nope", ())
        finally:
            pool.shutdown()

    def test_permanent_child_error_survives_the_boundary(self, rng):
        u, v, w = _problems(rng, n_jobs=1)[0]
        pool = ShardPool(1, backend="numpy", **FAST)
        try:
            job = pool.result(
                pool.submit("fit", (u, u, w, None)), timeout=60.0
            )
            assert job.status == "failed"
            assert isinstance(job.error, InvalidGraphError)
            assert classify(job.error) == "permanent"
        finally:
            pool.shutdown()

    def test_transient_child_error_retries_on_ticket_budget(self):
        # MemoryError classifies transient; with a retry budget the pool
        # re-dispatches, without one it fails through.
        pool = ShardPool(1, backend="numpy", **FAST)
        try:
            job = pool.result(
                pool.submit("call", (_raise_memory_once_key, "a"),
                            retry_budget=0),
                timeout=60.0,
            )
            assert job.status == "failed" and job.error_kind == "transient"
            job = pool.result(
                pool.submit("call", (_raise_memory_once_key, "b"),
                            retry_budget=2),
                timeout=60.0,
            )
            assert job.ok and job.retries == 1
        finally:
            pool.shutdown()
        assert pool.stats()["retries"] == 1

    def test_shed_when_admission_queue_full(self):
        pool = ShardPool(1, backend="numpy", max_pending=1, **FAST)
        try:
            slow = pool.submit("call", (_sleepy, 0.4))
            with pytest.raises(RejectedError) as exc_info:
                pool.submit("call", (_sleepy, 0.0))
            assert classify(exc_info.value) == "permanent"
            assert pool.result(slow, timeout=60.0).ok
        finally:
            pool.shutdown()
        assert pool.stats()["shed"] == 1

    def test_unpicklable_payload_fails_at_submit(self):
        # The caller's thread pickles the job body at submit: a lambda
        # fails there, permanently, and never reaches a worker.
        pool = ShardPool(1, backend="numpy", **FAST)
        try:
            job = pool.result(
                pool.submit("call", (lambda x: x + 1, 1)), timeout=10.0
            )
            assert job.status == "failed"
            assert job.error_kind == "permanent"
            assert classify(job.error) == "permanent"
            stats = pool.stats()
            assert stats["inflight"] == stats["queue_depth"] == 0
            later = pool.result(pool.submit("call", (_echo, 5)), timeout=60.0)
            assert later.ok and later.value == 5
            assert pool.stats()["crashes"] == 0
        finally:
            _bounded(pool.shutdown, 15.0)

    def test_heartbeats_and_results_share_each_pipe(self):
        # Millisecond heartbeats race every result for its worker's pipe,
        # on more workers than cores.  Results up to 1 MiB overflow the
        # pipe buffer, so their writes block partway and a heartbeat
        # written without the worker's send lock lands inside them: a torn
        # frame fails a job or stalls its pipe.
        pool = ShardPool(4, backend="numpy", heartbeat_s=0.001,
                         hang_after_s=5.0, boot_timeout_s=60.0)
        sizes = [(i % 8) * 131_072 + i for i in range(48)]
        try:
            tickets = [pool.submit("call", (_echo, bytes(n))) for n in sizes]
            for n, t in zip(sizes, tickets):
                job = pool.result(t, timeout=30.0)
                assert job.ok and len(job.value) == n, (job.status, job.error)
        finally:
            _bounded(pool.shutdown, 15.0)
        stats = pool.stats()
        assert stats["crashes"] == stats["hangs"] == 0

    def test_result_that_fails_to_unpickle_fails_its_job(self):
        pool = ShardPool(1, backend="numpy", **FAST)
        try:
            job = pool.result(
                pool.submit("call", (_make_unloadable, None)), timeout=60.0
            )
            assert job.status == "failed"
            assert isinstance(job.error, RemoteJobError)
            assert job.error_kind == "permanent"
            later = pool.result(pool.submit("call", (_echo, 6)), timeout=60.0)
            assert later.ok and later.value == 6
        finally:
            pool.shutdown()
        assert pool.stats()["crashes"] == 0


def _raise_memory_once_key(key):
    """Raises MemoryError on the first call per worker process, then
    succeeds -- a transient failure a re-dispatch absorbs."""
    seen = _raise_memory_once_key.__dict__.setdefault("seen", set())
    if key not in seen:
        seen.add(key)
        raise MemoryError("synthetic transient pressure")
    return key


# ---------------------------------------------------------------------------
# Crash detection, re-dispatch, poison quarantine, hang detection
# ---------------------------------------------------------------------------


class TestSupervision:
    def test_crash_respawn_and_redispatch(self, rng):
        p_crash = 0.3
        wf = WorkerFaults(p_crash=p_crash, seed=_crash_seed(p_crash))
        probs = _problems(rng, n_jobs=1)
        baseline = Engine().fit(*probs[0])
        pool = ShardPool(1, backend="numpy", worker_faults=wf,
                         poison_threshold=5, max_dispatch=4,
                         respawn_budget=4, **FAST)
        try:
            job = pool.result(
                pool.submit("fit", _fit_payload(probs[0])), timeout=60.0
            )
            assert job.ok
            assert np.array_equal(job.value.parent, baseline.parent)
            assert job.attempts == 2  # crashed once, re-dispatched once
        finally:
            pool.shutdown()
        stats = pool.stats()
        assert stats["crashes"] == 1
        assert stats["injected_kills"] == 1
        assert stats["respawns"] == 1

    def test_poison_job_quarantined_without_sinking_pool(self, rng):
        wf = WorkerFaults(poison_job_ids=(0,), seed=0)
        probs = _problems(rng, n_jobs=2)
        pool = ShardPool(1, backend="numpy", worker_faults=wf,
                         poison_threshold=2, max_dispatch=8,
                         respawn_budget=8, **FAST)
        try:
            poison = pool.submit("fit", _fit_payload(probs[0]))
            job = pool.result(poison, timeout=60.0)
            assert job.status == "failed"
            assert isinstance(job.error, PoisonedJobError)
            assert job.error.kills == 2
            assert classify(job.error) == "permanent"
            # Identical content is now rejected at the front door ...
            with pytest.raises(PoisonedJobError):
                pool.submit("fit", _fit_payload(probs[0]))
            # ... while different jobs keep flowing through the pool.
            other = pool.result(
                pool.submit("fit", _fit_payload(probs[1])), timeout=60.0
            )
            assert other.ok
        finally:
            pool.shutdown()
        stats = pool.stats()
        assert stats["quarantined"] == 1
        assert stats["crashes"] == 2
        assert not stats["unhealthy"]

    @pytest.mark.skipif(not hasattr(signal, "SIGKILL"),
                        reason="needs POSIX signals")
    def test_sigkill_mid_result_write_is_a_crash(self):
        # A real kill in the middle of a 4 MB result write: the half-sent
        # message must read as the worker's death, not stall the
        # supervisor, and the pool must keep serving.
        boot = 20.0
        pool = ShardPool(1, backend="numpy", max_dispatch=1,
                         heartbeat_s=0.02, hang_after_s=0.6,
                         boot_timeout_s=boot)
        try:
            job = pool.result(
                pool.submit("call", (_kill_mid_write, 4 << 20)), timeout=boot
            )
            assert job.status == "failed"
            assert isinstance(job.error, WorkerCrashError)
            assert pool.stats()["crashes"] == 1
            later = pool.result(pool.submit("call", (_echo, 7)), timeout=boot)
            assert later.ok and later.value == 7
        finally:
            _bounded(pool.shutdown, 15.0)

    def test_hung_worker_detected_and_job_bounded(self):
        # Every reception hangs: heartbeats stop, the supervisor kills the
        # worker, and the job fails as a (transient) worker loss once its
        # dispatch attempts are spent -- never a silent infinite wait.
        wf = WorkerFaults(p_hang=1.0, seed=3)
        pool = ShardPool(1, backend="numpy", worker_faults=wf,
                         poison_threshold=10, max_dispatch=2,
                         respawn_budget=8, heartbeat_s=0.02,
                         hang_after_s=0.25, boot_timeout_s=60.0)
        try:
            job = pool.result(pool.submit("call", (_echo, 1)), timeout=60.0)
            assert job.status == "failed"
            assert isinstance(job.error, WorkerCrashError)
            assert classify(job.error) == "transient"
            assert job.attempts == 2
        finally:
            pool.shutdown()
        assert pool.stats()["hangs"] == 2

    def test_budget_exhaustion_marks_unhealthy_and_loses_jobs(self):
        wf = WorkerFaults(p_crash=1.0, seed=0)
        pool = ShardPool(1, backend="numpy", worker_faults=wf,
                         poison_threshold=10, max_dispatch=10,
                         respawn_budget=1, **FAST)
        try:
            job = pool.result(pool.submit("call", (_echo, 1)), timeout=60.0)
            assert job.status == "lost"
            assert isinstance(job.error, WorkerCrashError)
            assert not pool.healthy
            with pytest.raises(RejectedError):
                # Unhealthy is not closed: admission is still the caller's
                # signal via healthy; draining/closing rejects outright.
                pool.drain(timeout=10.0)
                pool.submit("call", (_echo, 2))
        finally:
            pool.shutdown()

    def test_submit_to_unhealthy_pool_returns_lost_ticket(self):
        # A pool can die between two submits of one batch; a later submit
        # must come back lost (so the engine degrades it), never queue a
        # job no worker will run.
        wf = WorkerFaults(p_crash=1.0, seed=0)
        pool = ShardPool(1, backend="numpy", worker_faults=wf,
                         respawn_budget=0, **FAST)
        try:
            first = pool.result(pool.submit("call", (_echo, 1)), timeout=60.0)
            assert first.status == "lost"
            assert not pool.healthy
            job = pool.result(pool.submit("call", (_echo, 2)), timeout=3.0)
            assert job.status == "lost"
            assert isinstance(job.error, WorkerCrashError)
            assert job.error_kind == "transient"
            stats = pool.stats()
            assert stats["queue_depth"] == 0
            assert stats["submitted"] == stats["completed"] == 2
        finally:
            pool.shutdown()


# ---------------------------------------------------------------------------
# Graceful shutdown ordering (satellite)
# ---------------------------------------------------------------------------


class TestGracefulShutdown:
    def test_drain_completes_inflight_rejects_new_joins_all(self):
        pool = ShardPool(2, backend="numpy", **FAST)
        tickets = [pool.submit("call", (_sleepy, 0.2)) for _ in range(4)]
        assert pool.drain(timeout=60.0) is True
        # 1) every in-flight/queued job completed ...
        assert all(t.ok and t.value == 0.2 for t in tickets)
        # 2) ... new submissions are rejected ...
        with pytest.raises(RejectedError):
            pool.submit("call", (_echo, 1))
        # 3) ... and every worker is joined (autouse fixture re-checks).
        assert mp.active_children() == []
        assert pool.stats()["workers_alive"] == 0

    def test_shutdown_is_idempotent_and_cancels_pending(self):
        pool = ShardPool(1, backend="numpy", **FAST)
        blocker = pool.submit("call", (_sleepy, 0.3))
        deadline = time.monotonic() + 10.0
        while blocker.attempts == 0 and time.monotonic() < deadline:
            time.sleep(0.01)  # wait for the dispatch to the one shard
        queued = [pool.submit("call", (_echo, i)) for i in range(3)]
        pool.shutdown()
        pool.shutdown()
        # In-flight work finished; everything still queued was cancelled.
        assert pool.result(blocker, timeout=60.0).ok
        assert all(
            pool.result(q, timeout=60.0).status == "cancelled"
            for q in queued
        )

    def test_engine_drain_without_pool_is_trivial(self):
        eng = Engine()
        assert eng.drain() is True
        eng.shutdown()  # no-op


# ---------------------------------------------------------------------------
# Spawn-safe re-initialization (hygiene satellite)
# ---------------------------------------------------------------------------


class TestWorkerHygiene:
    def test_children_do_not_inherit_armed_fault_plan_or_backend(self, rng):
        """A parent-armed FaultPlan (p=1.0!) and a parent use_backend
        stack must not leak into shard workers: the same batch that dies
        on the thread path under the plan succeeds on the process path."""
        probs = _problems(rng, n_jobs=2)
        plan = FaultPlan({"kernel": SiteFaults(p_transient=1.0)}, seed=1)
        eng = Engine(executor="process", shards=1,
                     pool_options=dict(backend="numpy", **FAST))
        try:
            with plan.active(), use_backend("numpy"):
                with pytest.raises(Exception):
                    eng.fit_many(probs, executor="thread")
                raised_before = plan.stats()["raised_total"]
                handles = eng.fit_many(probs, executor="process")
            assert all(h.parent.dtype == np.int64 for h in handles)
            # The workers never drew from the parent's plan.
            assert plan.stats()["raised_total"] == raised_before
        finally:
            eng.shutdown()

    def test_child_context_reset_reports_clean_state(self):
        """The worker seam itself: a job observing child state sees no
        plan, no deadline, no backend stack -- only the pool's pin."""
        with use_backend("numpy"):
            pool = ShardPool(1, backend="numpy", **FAST)
            try:
                job = pool.result(
                    pool.submit("call", (_observe_child_state, None)),
                    timeout=60.0,
                )
            finally:
                pool.shutdown()
        assert job.ok, job.error
        assert job.value == {
            "plan": None, "deadline": None, "stack_depth": 0,
            "backend": "numpy",
        }


def _observe_child_state(_):
    from repro.engine.faults import _DEADLINE, _PLAN
    from repro.parallel.backend import _STACK, get_backend

    return {
        "plan": _PLAN.get(),
        "deadline": _DEADLINE.get(),
        "stack_depth": len(_STACK.get()),
        "backend": get_backend().name,
    }


# ---------------------------------------------------------------------------
# Engine process executor
# ---------------------------------------------------------------------------


class TestEngineProcessExecutor:
    def test_executor_validation(self):
        with pytest.raises(ValueError):
            Engine(executor="rocket")
        with pytest.raises(ValueError):
            Engine().map(_echo, [1], executor="rocket")

    def test_parity_with_thread_path(self, rng):
        probs = _problems(rng)
        baseline = Engine().fit_many(probs)
        eng = Engine(executor="process", shards=2,
                     pool_options=dict(backend="numpy", **FAST))
        try:
            handles = eng.fit_many(probs)
            assert all(
                np.array_equal(h.parent, b.parent)
                for h, b in zip(handles, baseline)
            )
        finally:
            eng.shutdown()

    def test_hdbscan_many_process_parity(self, rng):
        point_sets = [rng.normal(size=(80 + 10 * i, 2)) for i in range(3)]
        baseline = Engine().hdbscan_many(point_sets, mpts=3,
                                         min_cluster_size=4)
        eng = Engine(executor="process", shards=2,
                     pool_options=dict(backend="numpy", **FAST))
        try:
            results = eng.hdbscan_many(point_sets, mpts=3,
                                       min_cluster_size=4)
            assert all(
                np.array_equal(r.labels, b.labels)
                for r, b in zip(results, baseline)
            )
        finally:
            eng.shutdown()

    def test_no_policy_raises_first_error(self, rng):
        probs = _problems(rng, n_jobs=3)
        u, v, w = probs[1]
        probs[1] = (u, u, w)  # malformed: self-loops
        eng = Engine(executor="process", shards=1,
                     pool_options=dict(backend="numpy", **FAST))
        try:
            with pytest.raises(InvalidGraphError):
                eng.fit_many(probs)
        finally:
            eng.shutdown()

    def test_policy_envelopes_and_health_partition(self, rng):
        probs = _problems(rng, n_jobs=4)
        u, v, w = probs[2]
        probs[2] = (u, u, w)
        eng = Engine(executor="process", shards=2,
                     pool_options=dict(backend="numpy", **FAST))
        try:
            results = eng.fit_many(probs, policy=ServePolicy(max_retries=1))
            assert [r.index for r in results] == list(range(4))
            assert [r.status for r in results] == ["ok", "ok", "failed", "ok"]
            assert isinstance(results[2].error, InvalidGraphError)
            health = eng.health()
            total = health["total"]
            assert (total["ok"] + total["failed"] + total["timeout"]
                    + total["cancelled"]) == len(probs)
            assert health["workers_alive"] == 2
            assert health["pool"]["submitted"] == 4
        finally:
            eng.shutdown()

    def test_job_deadline_times_out_in_child(self, rng):
        # Cooperative deadlines travel into workers: a fit large enough
        # to poke kernels for a while trips a short job deadline there
        # ("timeout"); a job whose deadline expires before dispatch is
        # "cancelled" instead -- either way it never runs to completion.
        probs = [random_spanning_tree(250_000, rng, skew=0.5)]
        eng = Engine(executor="process", shards=1,
                     pool_options=dict(backend="numpy", **FAST))
        try:
            results = eng.fit_many(
                probs, policy=ServePolicy(job_deadline_s=0.05, max_retries=0)
            )
            assert results[0].status in ("timeout", "cancelled")
            assert results[0].error_kind == "timeout"
        finally:
            eng.shutdown()

    def test_unhealthy_pool_degrades_to_thread_path(self, rng):
        probs = _problems(rng, n_jobs=3)
        baseline = Engine().fit_many(probs)
        eng = Engine(
            executor="process", shards=1,
            pool_options=dict(
                backend="numpy",
                worker_faults=WorkerFaults(p_crash=1.0, seed=0),
                respawn_budget=0, poison_threshold=10, max_dispatch=10,
                **FAST,
            ),
        )
        try:
            handles = eng.fit_many(probs)  # pool dies; jobs degrade
            assert all(
                np.array_equal(h.parent, b.parent)
                for h, b in zip(handles, baseline)
            )
            assert eng.health()["degraded"] >= 1
            # The pool stays unhealthy: the next batch degrades wholesale.
            handles = eng.fit_many(probs)
            assert all(
                np.array_equal(h.parent, b.parent)
                for h, b in zip(handles, baseline)
            )
            assert eng.health()["degraded"] >= len(probs) + 1
        finally:
            eng.shutdown()

    def test_unhealthy_pool_degrades_under_policy(self, rng):
        probs = _problems(rng, n_jobs=3)
        baseline = Engine().fit_many(probs)
        eng = Engine(
            executor="process", shards=1,
            pool_options=dict(
                backend="numpy",
                worker_faults=WorkerFaults(p_crash=1.0, seed=0),
                respawn_budget=0, poison_threshold=10, max_dispatch=10,
                **FAST,
            ),
        )
        try:
            results = eng.fit_many(probs, policy=ServePolicy())
            assert [r.status for r in results] == ["ok"] * len(probs)
            assert [r.index for r in results] == list(range(len(probs)))
            assert all(
                np.array_equal(r.value.parent, b.parent)
                for r, b in zip(results, baseline)
            )
            health = eng.health()
            assert health["total"]["ok"] == len(probs)
            assert health["degraded"] == len(probs)
        finally:
            eng.shutdown()

    def test_front_door_shed(self, rng):
        probs = [random_spanning_tree(20_001, rng, skew=0.4) for _ in range(4)]

        def engine():
            return Engine(executor="process", shards=1,
                          pool_options=dict(backend="numpy", max_pending=1,
                                            **FAST))

        eng = engine()
        try:
            with pytest.raises(RejectedError):
                eng.fit_many(probs)
        finally:
            eng.shutdown()
        eng = engine()
        try:
            results = eng.fit_many(probs, policy=ServePolicy())
            assert [r.status for r in results] == ["ok"] + ["failed"] * 3
            for r in results[1:]:
                assert isinstance(r.error, RejectedError)
                assert r.error_kind == "permanent"
            total = eng.health()["total"]
            assert (total["ok"], total["failed"]) == (1, 3)
        finally:
            eng.shutdown()

    def test_unpicklable_fn_fails_permanently(self):
        eng = Engine(executor="process", shards=1,
                     pool_options=dict(backend="numpy", **FAST))
        try:
            with pytest.raises((pickle.PicklingError, AttributeError,
                                TypeError)):
                _bounded(lambda: eng.map(lambda x: x + 1, [1, 2]), 20.0)
            [result] = _bounded(
                lambda: eng.map(lambda x: x + 1, [1], policy=ServePolicy()),
                20.0,
            )
            assert result.status == "failed"
            assert result.error_kind == "permanent"
            assert _bounded(lambda: eng.map(_echo, [3]), 60.0) == [3]
        finally:
            _bounded(eng.shutdown, 15.0)

    def test_no_policy_batch_records_no_health(self, rng):
        probs = _problems(rng, n_jobs=3)
        eng = Engine(executor="process", shards=1,
                     pool_options=dict(backend="numpy", **FAST))
        try:
            eng.fit_many(probs)
            assert not any(eng.health()["total"].values())
        finally:
            eng.shutdown()

    def test_health_shape_without_pool(self):
        health = Engine().health()
        assert health["queue_depth"] == 0
        assert health["workers_alive"] == 0
        assert health["respawns"] == 0
        assert health["shed"] == 0
        assert health["degraded"] == 0
        assert health["pool"] is None


# ---------------------------------------------------------------------------
# The spawn start method: the worker's pipe end crosses Process args
# ---------------------------------------------------------------------------


class TestSpawnStartMethod:
    def test_round_trip_bit_identical(self, rng):
        probs = _problems(rng)
        baseline = Engine().fit_many(probs)
        pool = ShardPool(2, backend="numpy", start_method="spawn", **FAST)
        try:
            tickets = [pool.submit("fit", _fit_payload(p)) for p in probs]
            for base, t in zip(baseline, tickets):
                job = pool.result(t, timeout=60.0)
                assert job.ok, (job.status, job.error)
                assert np.array_equal(job.value.parent, base.parent)
        finally:
            pool.shutdown()
        stats = pool.stats()
        assert stats["start_method"] == "spawn"
        assert stats["completed"] == len(probs)

    def test_injected_crash_respawns(self, rng):
        # Job 0 kills every worker it reaches, whichever shard boots
        # first: two injected kills quarantine it, and both respawned
        # workers keep serving.
        probs = _problems(rng, n_jobs=2)
        baseline = Engine().fit(*probs[1])
        pool = ShardPool(2, backend="numpy", start_method="spawn",
                         worker_faults=WorkerFaults(poison_job_ids=(0,)),
                         poison_threshold=2, respawn_budget=4, **FAST)
        try:
            poison = pool.result(
                pool.submit("fit", _fit_payload(probs[0])), timeout=60.0
            )
            assert isinstance(poison.error, PoisonedJobError)
            job = pool.result(
                pool.submit("fit", _fit_payload(probs[1])), timeout=60.0
            )
            assert job.ok, (job.status, job.error)
            assert np.array_equal(job.value.parent, baseline.parent)
        finally:
            pool.shutdown()
        stats = pool.stats()
        assert stats["crashes"] == stats["injected_kills"] == 2
        assert stats["respawns"] == 2


# ---------------------------------------------------------------------------
# classify() on the new taxonomy (satellite)
# ---------------------------------------------------------------------------


class TestClassifyProcessTaxonomy:
    @pytest.mark.parametrize("exc, kind", [
        (BrokenPipeError("pipe"), "transient"),
        (ConnectionResetError("reset"), "transient"),
        (EOFError("eof"), "transient"),
        (RejectedError("full"), "permanent"),
        (PoisonedJobError("poisoned", kills=2), "permanent"),
        (WorkerCrashError("died"), "transient"),
        (RemoteJobError("ValueError", "boom", "permanent"), "permanent"),
        (RemoteJobError("ResourceError", "oom", "transient"), "transient"),
    ])
    def test_buckets(self, exc, kind):
        assert classify(exc) == kind
