"""Observability layer (PR 10): metrics registry, trace spans, and the
exact reconciliation contract between ``repro.obs`` and the serving
seams' authoritative counters.

Reconciliation tests are **delta-based** against the process-global
:data:`repro.obs.REGISTRY`: the registry deliberately outlives engines
(it is the process-wide surface a scraper reads), so tests snapshot the
relevant series before acting and compare differences -- never
``reset()``, which would orphan the cached child handles instrumented
modules hold.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import Engine
from repro.engine.faults import FaultPlan, SiteFaults, WorkerFaults
from repro.engine.resilience import ServePolicy
from repro.obs import (
    REGISTRY,
    Span,
    clear_spans,
    current_span,
    enabled,
    label_scope,
    log_bounds,
    recent_spans,
    record_tree,
    render_prometheus,
    render_span_tree,
    set_enabled,
    span,
)
from repro.obs.metrics import MetricsRegistry
from repro.structures.tree import random_spanning_tree

#: Fast supervision knobs for process-executor tests (shared idiom with
#: test_procpool.py).
FAST = dict(heartbeat_s=0.02, hang_after_s=0.6, boot_timeout_s=60.0)


def _problems(rng, n_jobs=4, n=120):
    return [random_spanning_tree(n + 17 * i, rng, skew=0.4)
            for i in range(n_jobs)]


def _health_delta(before: dict, backend: str) -> dict[str, float]:
    return {
        key: REGISTRY.value("repro_health_total",
                            backend=backend, outcome=key) - before[key]
        for key in before
    }


def _health_snapshot(backend: str) -> dict[str, float]:
    keys = ("ok", "failed", "timeout", "cancelled", "retries", "fallbacks")
    return {
        key: REGISTRY.value("repro_health_total",
                            backend=backend, outcome=key)
        for key in keys
    }


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_counter_inc_and_value(self):
        reg = MetricsRegistry()
        c = reg.counter("requests_total", "Requests.", ("route",))
        c.inc(route="a")
        c.inc(2, route="a")
        c.inc(route="b")
        assert reg.value("requests_total", route="a") == 3.0
        assert reg.value("requests_total", route="b") == 1.0
        assert reg.value("requests_total", route="nope") == 0.0
        assert reg.value("no_such_metric") == 0.0

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        c = reg.counter("c_total", "")
        with pytest.raises(ValueError):
            c.inc(-1.0)

    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        a = reg.counter("shared_total", "Help.", ("x",))
        b = reg.counter("shared_total", "Help.", ("x",))
        assert a is b

    def test_kind_and_labelnames_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("m_total", "", ("x",))
        with pytest.raises(ValueError):
            reg.gauge("m_total", "", ("x",))
        with pytest.raises(ValueError):
            reg.counter("m_total", "", ("y",))

    def test_gauge_set_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth", "")
        g.set(5)
        g.inc(2)
        g.dec(3)
        assert reg.value("depth") == 4.0

    def test_histogram_buckets_sum_count(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds", "", bounds=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 5.0, 50.0):
            h.observe(v)
        child = h.labels()
        assert list(child.counts) == [1, 1, 1, 1]  # one overflow
        assert child.count == 4
        assert child.sum == pytest.approx(55.55)

    def test_histogram_bounds_validated(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("bad_seconds", "", bounds=(1.0, 1.0, 2.0))

    def test_log_bounds(self):
        b = log_bounds(1e-2, 10.0, per_decade=1)
        assert b == pytest.approx((0.01, 0.1, 1.0, 10.0))
        b3 = log_bounds(1e-1, 1.0, per_decade=3)
        assert len(b3) == 4
        assert b3[0] == pytest.approx(0.1)
        assert b3[-1] == pytest.approx(1.0)

    def test_label_scope_fills_missing_labels(self):
        reg = MetricsRegistry()
        c = reg.counter("scoped_total", "", ("executor",))
        with label_scope(executor="process"):
            c.inc()
            c.inc(executor="thread")  # explicit beats context
        c.inc()  # no scope: empty-string label value
        assert reg.value("scoped_total", executor="process") == 1.0
        assert reg.value("scoped_total", executor="thread") == 1.0
        assert reg.value("scoped_total", executor="") == 1.0

    def test_disabled_increments_are_dropped(self):
        reg = MetricsRegistry()
        c = reg.counter("gated_total", "")
        assert enabled()
        set_enabled(False)
        try:
            c.inc(10)
        finally:
            set_enabled(True)
        c.inc()
        assert reg.value("gated_total") == 1.0

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("a_total", "A.", ("k",)).inc(k="v")
        reg.histogram("b_seconds", "B.", bounds=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert snap["a_total"]["type"] == "counter"
        assert snap["a_total"]["series"] == [{"labels": {"k": "v"},
                                             "value": 1.0}]
        hseries = snap["b_seconds"]["series"][0]
        assert hseries["count"] == 1
        assert hseries["buckets"][0] == (1.0, 1)

    def test_render_prometheus_exposition(self):
        reg = MetricsRegistry()
        c = reg.counter("req_total", 'Say "hi"\nplease.', ("route",))
        c.inc(route='a"b\\c\nd')
        reg.gauge("up", "Up.").set(1)
        reg.histogram("t_seconds", "T.", bounds=(0.1, 1.0)).observe(0.5)
        text = reg.render_prometheus()
        assert '# HELP req_total Say "hi"\\nplease.' in text
        assert "# TYPE req_total counter" in text
        assert 'req_total{route="a\\"b\\\\c\\nd"} 1' in text
        assert "up 1" in text
        # Cumulative buckets plus the implicit +Inf.
        assert 't_seconds_bucket{le="0.1"} 0' in text
        assert 't_seconds_bucket{le="1"} 1' in text
        assert 't_seconds_bucket{le="+Inf"} 1' in text
        assert "t_seconds_sum 0.5" in text
        assert "t_seconds_count 1" in text

    def test_global_render_includes_instrumented_names(self):
        # The instrumented modules registered their metrics at import
        # time; the global exposition must know them even at zero.
        text = render_prometheus()
        for name in ("repro_health_total", "repro_request_seconds",
                     "repro_phase_seconds", "repro_cache_events_total",
                     "repro_pool_events_total"):
            assert name in text


# ---------------------------------------------------------------------------
# Trace spans
# ---------------------------------------------------------------------------


class TestSpans:
    def test_nesting_and_recording(self):
        clear_spans()
        with span("root", a=1) as root:
            assert current_span() is root
            with span("child") as child:
                child.annotate(b=2)
            with span("child2"):
                pass
        assert current_span() is None
        trees = recent_spans()
        assert trees[-1] is root
        assert [c.name for c in root.children] == ["child", "child2"]
        assert root.children[0].labels["b"] == "2"
        assert root.children[0].parent_id == root.span_id
        assert root.children[0].trace_id == root.trace_id
        assert root.duration_s >= root.children[0].duration_s

    def test_to_dict_round_trip(self):
        with span("root", x="y", record=False) as root:
            root.event("hit", n=3)
            with span("kid"):
                pass
        clone = Span.from_dict(root.to_dict())
        assert clone.name == "root"
        assert clone.trace_id == root.trace_id
        assert clone.span_id == root.span_id
        assert clone.labels == {"x": "y"}
        assert clone.events[0][1] == "hit"  # (offset, name, fields)
        assert [c.name for c in clone.children] == ["kid"]
        assert clone.duration_s == pytest.approx(root.duration_s)

    def test_trace_seeding_crosses_boundaries(self):
        # record=False + trace is the worker side of the envelope
        # protocol: the span adopts the remote ids and never sinks.
        clear_spans()
        with span("remote", trace=("t1", "p1"), record=False) as sp:
            pass
        assert sp.trace_id == "t1"
        assert sp.parent_id == "p1"
        assert recent_spans() == []

    def test_add_child_rewrites_ids(self):
        parent = Span("request")
        orphan = Span("shard:fit")
        grand = Span("fit", trace_id=orphan.trace_id,
                     parent_id=orphan.span_id)
        orphan.children.append(grand)
        parent.add_child(orphan)
        assert orphan.trace_id == parent.trace_id
        assert orphan.parent_id == parent.span_id

    def test_exception_sets_status_and_reraises(self):
        clear_spans()
        with pytest.raises(KeyError):
            with span("boom") as sp:
                raise KeyError("x")
        assert sp.status == "KeyError"
        assert recent_spans()[-1] is sp

    def test_disabled_yields_falsy_null_span(self):
        clear_spans()
        set_enabled(False)
        try:
            with span("invisible") as sp:
                assert not sp
                sp.annotate(a=1)
                sp.event("e")
                assert sp.to_dict() is None
        finally:
            set_enabled(True)
        assert recent_spans() == []

    def test_render_span_tree(self):
        with span("request", job=0, record=False) as root:
            with span("fit"):
                with span("phase:sort"):
                    pass
        text = render_span_tree(root)
        assert "request {job=0}" in text
        assert "`- fit" in text
        assert "phase:sort" in text
        assert "ms" in text
        # Dict form (Engine.metrics() hands plain data) renders too.
        assert "request" in render_span_tree(root.to_dict())


# ---------------------------------------------------------------------------
# Exact reconciliation with the serving seams
# ---------------------------------------------------------------------------


class TestReconciliation:
    def test_thread_path_health_mirrors_exactly(self, rng):
        """Deterministic fault schedule -> registry deltas must equal
        Engine.health() totals field by field: one authoritative call
        site (HealthCounters.record), no double counting."""
        probs = _problems(rng, n_jobs=6)
        before = _health_snapshot("numpy")
        plan = FaultPlan.transient_everywhere(0.05, seed=7, budget=3)
        eng = Engine()
        with plan.active():
            results = eng.fit_many(probs, max_workers=4,
                                   policy=ServePolicy())
        assert all(r.ok for r in results)
        assert plan.stats()["raised_total"] > 0
        total = eng.health()["total"]
        delta = _health_delta(before, "numpy")
        for key in ("ok", "failed", "timeout", "cancelled", "retries",
                    "fallbacks"):
            assert delta[key] == total[key], (
                f"registry delta for {key} diverged from Engine.health()"
            )

    def test_permanent_failure_counts_once(self, rng):
        probs = _problems(rng, n_jobs=3)
        u, _v, w = probs[1]
        probs[1] = (u, u, w)  # self-loop: permanent, never retried
        before = _health_snapshot("numpy")
        eng = Engine()
        results = eng.fit_many(probs, policy=ServePolicy())
        assert [r.status for r in results] == ["ok", "failed", "ok"]
        delta = _health_delta(before, "numpy")
        assert delta["ok"] == 2
        assert delta["failed"] == 1
        assert delta["retries"] == 0

    def test_request_histogram_counts_jobs(self, rng):
        probs = _problems(rng, n_jobs=3)

        def count():
            metric = REGISTRY.get("repro_request_seconds")
            return sum(
                child.count for labels, child in metric.series()
                if labels.get("executor") == "thread"
                and labels.get("status") == "ok"
            )

        before = count()
        Engine().fit_many(probs, policy=ServePolicy())
        assert count() - before == 3

    def test_process_pool_events_mirror_stats(self, rng):
        """Crash/respawn schedule on the process executor: pool-event
        deltas must equal the pool's authoritative stats counters."""
        probs = _problems(rng, n_jobs=4)
        wf = WorkerFaults(p_crash=0.3, seed=7)

        def snap():
            return {
                key: REGISTRY.value("repro_pool_events_total", event=key)
                for key in ("submitted", "completed", "respawn", "shed")
            } | {"ok": REGISTRY.value("repro_pool_jobs_total", status="ok")}

        before = snap()
        eng = Engine(executor="process", shards=2,
                     pool_options=dict(worker_faults=wf, respawn_budget=8,
                                       max_dispatch=4, **FAST))
        try:
            handles = eng.fit_many(probs)
            baseline = Engine().fit_many(probs)
            for b, h in zip(baseline, handles):
                assert np.array_equal(b.parent, h.parent)
            health = eng.health()
        finally:
            eng.shutdown()
        delta = {k: snap()[k] - before[k] for k in before}
        assert delta["submitted"] == len(probs)
        assert delta["completed"] == len(probs)
        assert delta["ok"] == len(probs)
        assert delta["respawn"] == health["respawns"]
        assert delta["shed"] == health["shed"] == 0

    def test_fault_injection_counter(self, rng):
        before = REGISTRY.value("repro_faults_injected_total",
                                site="kernel", kind="transient")
        plan = FaultPlan({"kernel": SiteFaults(p_transient=1.0)},
                         seed=0, budget=2)
        u, v, w = _problems(rng, n_jobs=1)[0]
        eng = Engine()
        with plan.active():
            results = eng.fit_many([(u, v, w)], policy=ServePolicy())
        assert results[0].ok
        after = REGISTRY.value("repro_faults_injected_total",
                               site="kernel", kind="transient")
        assert after - before == plan.stats()["raised_total"] > 0


# ---------------------------------------------------------------------------
# Acceptance: span trees through Engine.metrics()
# ---------------------------------------------------------------------------


class TestAcceptance:
    def test_thread_request_span_tree(self, rng):
        clear_spans()
        probs = _problems(rng, n_jobs=2)
        eng = Engine()
        eng.fit_many(probs, max_workers=2, policy=ServePolicy())
        roots = [s for s in recent_spans() if s.name == "request"]
        assert len(roots) == 2
        for root in roots:
            assert root.labels["status"] == "ok"
            names = [c.name for c in root.children]
            assert names[0] == "queue"
            (fit,) = [c for c in root.children if c.name == "fit"]
            phases = [c.name for c in fit.children]
            assert phases == ["phase:sort", "phase:contraction",
                              "phase:expansion", "phase:stitch"]
            for child in fit.children:
                assert child.trace_id == root.trace_id
                assert int(child.labels["kernels"]) > 0

    def test_hdbscan_span_nests_plan_phases(self, rng):
        """HDBSCAN* phases are children of the ``hdbscan`` span, and
        PANDORA's phases nest under ``phase:dendrogram`` -- not beside it."""
        clear_spans()
        Engine().hdbscan(rng.normal(size=(300, 2)), mpts=4,
                         min_cluster_size=10)
        (batch,) = [s for s in recent_spans() if s.name == "hdbscan_batch"]
        (hd,) = [c for c in batch.children if c.name == "hdbscan"]
        phases = [c for c in hd.children if c.name.startswith("phase:")]
        assert [c.name for c in phases] == [
            "phase:knn", "phase:emst", "phase:dendrogram",
            "phase:condense", "phase:select", "phase:labels",
        ]
        assert [c.labels["bucket"] for c in phases] == [
            "mst", "mst", "dendrogram",
            "extraction", "extraction", "extraction",
        ]
        (dend,) = [c for c in phases if c.name == "phase:dendrogram"]
        assert [c.name for c in dend.children] == [
            "phase:sort", "phase:contraction",
            "phase:expansion", "phase:stitch",
        ]
        for child in dend.children:
            assert child.parent_id == dend.span_id
            assert child.trace_id == batch.trace_id
            assert int(child.labels["kernels"]) > 0

    def test_process_executor_span_tree_via_metrics(self, rng):
        """ISSUE acceptance: a 4-worker process batch yields, via
        Engine.metrics(), a span tree per request covering queue wait ->
        dispatch -> per-phase kernel timings, stitched across the
        process boundary."""
        clear_spans()
        probs = _problems(rng, n_jobs=4)
        eng = Engine(executor="process", shards=4,
                     pool_options=dict(**FAST))
        try:
            eng.fit_many(probs)
            snap = eng.metrics(spans=8)
        finally:
            eng.shutdown()
        assert set(snap) == {"metrics", "spans", "cache", "health"}
        assert "repro_pool_jobs_total" in snap["metrics"]
        roots = [Span.from_dict(d) for d in snap["spans"]]
        requests = [r for r in roots
                    if r.name == "request"
                    and r.labels.get("executor") == "process"]
        assert len(requests) == 4
        for root in requests:
            assert root.labels["status"] == "ok"
            assert root.labels["kind"] == "fit"
            names = [c.name for c in root.children]
            assert "queue" in names
            (shard,) = [c for c in root.children
                        if c.name == "shard:fit"]
            assert shard.trace_id == root.trace_id  # crossed the envelope
            assert shard.parent_id == root.span_id
            (fit,) = [c for c in shard.children if c.name == "fit"]
            assert [c.name for c in fit.children] == [
                "phase:sort", "phase:contraction",
                "phase:expansion", "phase:stitch",
            ]

    def test_queue_wait_histogram_process_path(self, rng):
        metric = REGISTRY.get("repro_queue_wait_seconds")

        def count():
            return sum(child.count for labels, child in metric.series()
                       if labels.get("executor") == "process")

        before = count()
        eng = Engine(executor="process", shards=1,
                     pool_options=dict(**FAST))
        try:
            eng.fit_many(_problems(rng, n_jobs=3))
        finally:
            eng.shutdown()
        assert count() - before == 3


# ---------------------------------------------------------------------------
# Bit-identity: the layer must not perturb kernels
# ---------------------------------------------------------------------------


class TestBitIdentity:
    def test_parents_and_kernel_trace_identical_obs_on_off(self, rng):
        from repro.core.pandora import pandora
        from repro.parallel.machine import CostModel, tracking

        u, v, w = random_spanning_tree(400, rng, skew=0.5)

        def run():
            model = CostModel()
            with tracking(model):
                dend, _ = pandora(u, v, w)
            return dend.parent, [
                (r.name, r.category, r.work, r.phase)
                for r in model.records
            ]

        parent_on, trace_on = run()
        set_enabled(False)
        try:
            parent_off, trace_off = run()
        finally:
            set_enabled(True)
        assert np.array_equal(parent_on, parent_off)
        assert trace_on == trace_off

    def test_engine_fit_identical_obs_on_off(self, rng):
        probs = _problems(rng, n_jobs=2)
        on = Engine().fit_many(probs, policy=ServePolicy())
        set_enabled(False)
        try:
            off = Engine().fit_many(probs, policy=ServePolicy())
        finally:
            set_enabled(True)
        for a, b in zip(on, off):
            assert np.array_equal(a.value.parent, b.value.parent)


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestCLI:
    def test_metrics_command(self, capsys):
        from repro.__main__ import main

        assert main(["metrics", "--jobs", "2", "--n", "300"]) == 0
        out = capsys.readouterr().out
        assert "served 2/2 jobs" in out
        assert "request {" in out
        assert "phase:stitch" in out
        assert "# TYPE repro_request_seconds histogram" in out

    def test_serve_metrics_every(self, capsys):
        from repro.__main__ import main

        assert main(["serve", "--jobs", "2", "--n", "400",
                     "--metrics-every", "30"]) == 0
        out = capsys.readouterr().out
        assert "[metrics] ok=2 failed=0" in out

    def test_metrics_command_disabled_obs_errors(self, capsys):
        from repro.__main__ import main

        set_enabled(False)
        try:
            assert main(["metrics", "--jobs", "1", "--n", "200"]) == 1
        finally:
            set_enabled(True)
        assert "disabled" in capsys.readouterr().err
