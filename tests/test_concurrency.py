"""Concurrent-execution parity: N threads, zero cross-talk.

The engine contract (ROADMAP "Engine contract"): every piece of execution
state -- backend selection, the cost-model stack, the int32 threshold, the
debug-checks flag -- is context-local, and workspace pools are per-thread,
so N threads running kernels concurrently produce bit-identical parents
and per-thread kernel traces vs serial runs.  Parameterized over the
registered backends and both index-dtype regimes.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from backend_fixtures import backend_params, dtype_regime, dtype_regime_params
from repro import Engine, pandora
from repro.parallel import (
    CostModel,
    debug_checks,
    debug_checks_set,
    get_backend,
    hotpath,
    index_dtype,
    set_debug_checks,
    set_default_backend,
    tracking,
    use_backend,
    workspace,
)
from repro.parallel.workspace import INT32_LIMIT
from repro.structures.tree import random_spanning_tree

N_THREADS = 8


def _trace(model: CostModel) -> list[tuple]:
    return [(r.name, r.category, r.work, r.phase) for r in model.records]


def _problems(n_threads: int, size: int = 900) -> list[tuple]:
    """Distinct per-thread inputs (different trees, weights, skews)."""
    out = []
    for i in range(n_threads):
        rng = np.random.default_rng(1000 + i)
        out.append(random_spanning_tree(size + 37 * i, rng,
                                        skew=0.1 + 0.1 * (i % 8)))
    return out


def _run_threads(workers, n_threads: int) -> list:
    """Run ``workers[i]()`` on its own thread, synchronized on a barrier the
    workers themselves wait on (passed as the sole argument); re-raise the
    first worker exception."""
    barrier = threading.Barrier(n_threads, timeout=30)
    results: list = [None] * n_threads
    errors: list = [None] * n_threads

    def call(i):
        try:
            results[i] = workers[i](barrier)
        except BaseException as exc:  # noqa: BLE001 - reported to the main thread
            errors[i] = exc
            barrier.abort()

    threads = [threading.Thread(target=call, args=(i,)) for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    for exc in errors:
        if exc is not None:
            raise exc
    return results


# ---------------------------------------------------------------------------
# The headline suite: N-thread parity of parents and per-thread traces
# ---------------------------------------------------------------------------


class TestConcurrentParity:
    @pytest.mark.parametrize("backend", backend_params())
    @pytest.mark.parametrize("regime", dtype_regime_params())
    def test_parents_and_traces_match_serial(self, backend, regime):
        problems = _problems(N_THREADS)

        # Serial references, one per problem, in a clean context.
        serial = []
        with dtype_regime(regime), use_backend(backend):
            for u, v, w in problems:
                model = CostModel()
                with tracking(model):
                    dend, _ = pandora(u, v, w)
                serial.append((dend.parent, _trace(model)))

        def make_worker(i):
            u, v, w = problems[i]

            def worker(barrier):
                # Each thread selects its own backend/regime and tracks its
                # own model -- none of this is inherited or shared.
                with dtype_regime(regime), use_backend(backend):
                    model = CostModel()
                    barrier.wait()
                    with tracking(model):
                        dend, _ = pandora(u, v, w)
                    return dend.parent, _trace(model)

            return worker

        concurrent = _run_threads(
            [make_worker(i) for i in range(N_THREADS)], N_THREADS
        )
        for i, ((ref_p, ref_t), (got_p, got_t)) in enumerate(
            zip(serial, concurrent)
        ):
            assert np.array_equal(got_p, ref_p), f"thread {i} parents differ"
            assert got_t == ref_t, f"thread {i} trace differs"

    def test_mixed_int32_limits_across_threads(self):
        """Threads pinning *different* int32 thresholds concurrently must
        each reproduce their own serial run (the threshold is
        context-local)."""
        limits = [INT32_LIMIT, 0, INT32_LIMIT, 0]
        problems = _problems(len(limits), size=700)

        serial = []
        for (u, v, w), limit in zip(problems, limits):
            with hotpath(int32_limit=limit):
                model = CostModel()
                with tracking(model):
                    dend, _ = pandora(u, v, w)
            serial.append((dend.parent, _trace(model)))

        def make_worker(i):
            u, v, w = problems[i]

            def worker(barrier):
                with hotpath(int32_limit=limits[i]):
                    model = CostModel()
                    barrier.wait()
                    with tracking(model):
                        dend, _ = pandora(u, v, w)
                    return dend.parent, _trace(model)

            return worker

        concurrent = _run_threads(
            [make_worker(i) for i in range(len(limits))], len(limits)
        )
        for i, ((ref_p, ref_t), (got_p, got_t)) in enumerate(
            zip(serial, concurrent)
        ):
            assert np.array_equal(got_p, ref_p), f"limit {limits[i]}"
            assert got_t == ref_t, f"limit {limits[i]}"

    def test_untracked_calls_do_not_pollute_tracked_thread(self):
        """The _NULL_MODEL race, exercised: untracked calls hammering away
        on other threads must leave a tracked thread's trace identical to
        its serial run (the old module-level sink was mutated and cleared
        by every untracked call)."""
        u, v, w = _problems(1, size=1200)[0]
        ref_model = CostModel()
        with tracking(ref_model):
            ref_dend, _ = pandora(u, v, w)
        ref_trace = _trace(ref_model)

        def tracked(barrier):
            model = CostModel()
            barrier.wait()
            with tracking(model):
                dend, _ = pandora(u, v, w)
            return dend.parent, _trace(model)

        def untracked_worker(barrier):
            barrier.wait()
            for _ in range(3):
                pandora(u, v, w)  # untracked: per-call private sink
            return None

        results = _run_threads(
            [tracked] + [untracked_worker] * (N_THREADS - 1), N_THREADS
        )
        got_parent, got_trace = results[0]
        assert np.array_equal(got_parent, ref_dend.parent)
        assert got_trace == ref_trace


# ---------------------------------------------------------------------------
# Engine serving path
# ---------------------------------------------------------------------------


class TestEngineServing:
    def test_fit_many_matches_serial_exactly(self):
        problems = _problems(N_THREADS)
        serial = [pandora(u, v, w)[0].parent for u, v, w in problems]
        engine = Engine()
        handles = engine.fit_many(
            [(u, v, w) for u, v, w in problems], max_workers=N_THREADS
        )
        for i, (ref, handle) in enumerate(zip(serial, handles)):
            assert np.array_equal(handle.parent, ref), f"job {i}"

    def test_jobs_inherit_submitting_context(self):
        engine = Engine()
        seen = engine.map(
            lambda _: (get_backend().name, debug_checks(), index_dtype(1)),
            range(4),
            max_workers=4,
        )
        with use_backend("numba-python"), debug_checks_set(False), \
                hotpath(int32_limit=0):
            seen_inner = engine.map(
                lambda _: (get_backend().name, debug_checks(),
                           index_dtype(1)),
                range(4),
                max_workers=4,
            )
        assert set(seen) == {("numpy", True, np.dtype(np.int32))}
        assert set(seen_inner) == {("numba-python", False, np.dtype(np.int64))}

    def test_jobs_shielded_from_inherited_tracking(self):
        engine = Engine()
        model = CostModel()
        u, v, w = _problems(1, size=300)[0]
        with tracking(model):
            engine.map(lambda _: pandora(u, v, w), range(4), max_workers=4)
        assert model.records == []  # jobs never emit into the caller's model

    def test_map_propagates_job_exception(self):
        engine = Engine()

        def boom(_):
            raise RuntimeError("job failed")

        with pytest.raises(RuntimeError, match="job failed"):
            engine.map(boom, range(3), max_workers=2)

    def test_concurrent_cache_sharing_is_safe(self):
        """Many threads fitting the *same* content must all get a correct
        handle (first writer wins; racing computes are benign)."""
        u, v, w = _problems(1, size=600)[0]
        ref = pandora(u, v, w)[0].parent
        engine = Engine()
        with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
            futures = [pool.submit(engine.fit, u, v, w)
                       for _ in range(N_THREADS * 2)]
            handles = [f.result() for f in futures]
        for h in handles:
            assert np.array_equal(h.parent, ref)


# ---------------------------------------------------------------------------
# Context-locality unit checks
# ---------------------------------------------------------------------------


class TestContextLocality:
    def test_workspace_pools_are_per_thread(self):
        backend = get_backend()
        main_ws = workspace()

        def worker(barrier):
            barrier.wait()
            with use_backend(backend):
                return workspace()

        pools = _run_threads([worker] * 4, 4)
        assert all(ws is not main_ws for ws in pools)
        assert len({id(ws) for ws in pools}) == len(pools)
        assert workspace() is main_ws  # main thread pool untouched

    def test_use_backend_does_not_leak_across_threads(self):
        inner = threading.Event()
        release = threading.Event()
        names = {}

        def pinner(barrier):
            barrier.wait()
            with use_backend("numba-python"):
                inner.set()
                assert release.wait(timeout=30)
            return None

        def observer(barrier):
            barrier.wait()
            assert inner.wait(timeout=30)
            names["observed"] = get_backend().name
            release.set()
            return None

        _run_threads([pinner, observer], 2)
        assert names["observed"] == "numpy"

    def test_set_default_backend_is_context_local(self):
        previous = set_default_backend("numba-python")
        try:
            assert get_backend().name == "numba-python"

            def worker(barrier):
                barrier.wait()
                return get_backend().name

            # A fresh thread starts from an empty context: env/numpy default.
            assert _run_threads([worker], 1) == ["numpy"]
            assert get_backend().name == "numba-python"
        finally:
            set_default_backend(previous)

    def test_debug_checks_is_context_local(self):
        flipped = threading.Event()
        release = threading.Event()
        seen = {}

        def flipper(barrier):
            barrier.wait()
            previous = set_debug_checks(False)
            try:
                flipped.set()
                assert release.wait(timeout=30)
            finally:
                set_debug_checks(previous)
            return None

        def observer(barrier):
            barrier.wait()
            assert flipped.wait(timeout=30)
            seen["value"] = debug_checks()
            release.set()
            return None

        assert debug_checks() is True
        _run_threads([flipper, observer], 2)
        assert seen["value"] is True
        assert debug_checks() is True

    def test_hotpath_is_context_local_across_threads(self):
        pinned = threading.Event()
        release = threading.Event()
        seen = {}

        def pinner(barrier):
            barrier.wait()
            with hotpath(int32_limit=0):
                pinned.set()
                assert release.wait(timeout=30)
            return None

        def observer(barrier):
            barrier.wait()
            assert pinned.wait(timeout=30)
            seen["dtype"] = index_dtype(1)
            release.set()
            return None

        _run_threads([pinner, observer], 2)
        assert seen["dtype"] == np.int32

    def test_tracking_stack_is_context_local(self):
        entered = threading.Event()
        release = threading.Event()
        seen = {}

        def tracker(barrier):
            barrier.wait()
            with tracking(CostModel()):
                entered.set()
                assert release.wait(timeout=30)
            return None

        def observer(barrier):
            from repro.parallel import active_model

            barrier.wait()
            assert entered.wait(timeout=30)
            seen["model"] = active_model()
            release.set()
            return None

        _run_threads([tracker, observer], 2)
        assert seen["model"] is None
