"""Engine layer: plans, artifact cache, batched queries, CLI.

The acceptance bar (ISSUE 4): the engine path must produce bit-identical
``Dendrogram.parent`` arrays and identical kernel traces vs direct
``pandora()`` across all registered backends in both index-dtype regimes;
batched multi-``mpts`` HDBSCAN must reuse the spatial artifacts while
matching the naive per-``mpts`` loop exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from backend_fixtures import backend_params, dtype_regime, dtype_regime_params
from repro import Engine, pandora
from repro.core.pandora import pandora_plan
from repro.engine import ArtifactCache, Phase, Plan, PlanError, content_key
from repro.hdbscan import hdbscan
from repro.parallel import CostModel, tracking, use_backend
from repro.structures.tree import random_spanning_tree


def _trace(model: CostModel) -> list[tuple]:
    return [(r.name, r.category, r.work, r.phase) for r in model.records]


# ---------------------------------------------------------------------------
# Plan machinery
# ---------------------------------------------------------------------------


class TestPlan:
    def test_phases_run_in_order_with_timings(self):
        plan = Plan([
            Phase("a", lambda art: {"x": art["seed"] + 1}, requires=("seed",),
                  provides=("x",)),
            Phase("b", lambda art: {"y": art["x"] * 2}, requires=("x",),
                  provides=("y",), bucket="shared"),
            Phase("c", lambda art: {"z": art["y"] + art["x"]},
                  requires=("x", "y"), provides=("z",), bucket="shared"),
        ])
        result = plan.execute({"seed": 41})
        assert result["z"] == 126 and result["y"] == 84
        assert [t.name for t in result.timings] == ["a", "b", "c"]
        buckets = result.bucket_seconds
        assert list(buckets) == ["a", "shared"]
        assert buckets["shared"] >= 0.0

    def test_missing_requirement_raises(self):
        plan = Plan([Phase("a", lambda art: {}, requires=("nope",))])
        with pytest.raises(PlanError, match="requires missing"):
            plan.execute({})

    def test_artifacts_are_write_once(self):
        plan = Plan([
            Phase("a", lambda art: {"x": 1}, provides=("x",)),
            Phase("b", lambda art: {"x": 2}),
        ])
        with pytest.raises(PlanError, match="write-once"):
            plan.execute({})

    def test_undeclared_provides_raises(self):
        plan = Plan([Phase("a", lambda art: {}, provides=("x",))])
        with pytest.raises(PlanError, match="did not provide"):
            plan.execute({})

    def test_result_artifacts_read_only(self):
        result = Plan([Phase("a", lambda art: {"x": 1})]).execute({})
        with pytest.raises(TypeError):
            result.artifacts["x"] = 2  # type: ignore[index]

    def test_replace_and_extend_compose_new_plans(self):
        base = Plan([Phase("a", lambda art: {"x": 1}, provides=("x",))])
        swapped = base.replace(
            "a", Phase("a", lambda art: {"x": 10}, provides=("x",))
        )
        extended = swapped.extend(
            Phase("b", lambda art: {"y": art["x"] + 1}, provides=("y",))
        )
        assert base.execute({})["x"] == 1  # original untouched
        assert extended.execute({})["y"] == 11
        assert extended.names == ("a", "b")
        with pytest.raises(ValueError, match="no phase named"):
            base.replace("zzz", Phase("zzz", lambda art: {}))

    def test_duplicate_phase_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Plan([Phase("a", lambda art: {}), Phase("a", lambda art: {})])

    def test_pandora_plan_shape(self):
        plan = pandora_plan()
        assert plan.names == ("sort", "contraction", "expansion", "stitch")
        by_name = {p.name: p for p in plan}
        assert by_name["sort"].bucket == "sort"
        assert by_name["stitch"].bucket == "sort"  # paper's phase grouping

    def test_pandora_accepts_recomposed_plan(self, rng):
        u, v, w = random_spanning_tree(200, rng, skew=0.4)
        seen = {}
        base = pandora_plan()
        probe = Phase(
            "contraction",
            lambda art: seen.setdefault("out", dict(
                base.phases[1].run(art))) or seen["out"],
            requires=("edges",), provides=("levels",),
        )
        dend, _ = pandora(u, v, w, plan=base.replace("contraction", probe))
        ref, _ = pandora(u, v, w)
        assert "out" in seen
        assert np.array_equal(dend.parent, ref.parent)


# ---------------------------------------------------------------------------
# The _NULL_MODEL regression (satellite): no shared untracked sink
# ---------------------------------------------------------------------------


class TestNoSharedSink:
    def test_module_level_sink_removed(self):
        import repro.core.pandora as mod

        assert not hasattr(mod, "_NULL_MODEL")

    def test_untracked_call_does_not_pollute_open_model(self, rng):
        """An untracked pandora() inside another model's *open phase* must
        not inject records into it (the old shared sink made every
        untracked call mutate and clear one global CostModel)."""
        u, v, w = random_spanning_tree(60, rng, skew=0.2)
        model = CostModel()
        with model.phase("outer"):
            pandora(u, v, w)  # untracked: must go to a private sink
        assert model.records == []

    def test_tracked_trace_unaffected_by_interleaved_untracked_calls(self, rng):
        u, v, w = random_spanning_tree(120, rng, skew=0.3)
        ref = CostModel()
        with tracking(ref):
            pandora(u, v, w)
        got = CostModel()
        with tracking(got):
            d1, _ = pandora(u, v, w)
        pandora(u, v, w)  # untracked call between tracked ones
        assert _trace(got) == _trace(ref)
        assert len(ref.records) > 0


# ---------------------------------------------------------------------------
# Artifact cache
# ---------------------------------------------------------------------------


class TestArtifactCache:
    def test_content_key_equal_for_equal_arrays(self):
        a = np.arange(100, dtype=np.int64)
        b = np.arange(100, dtype=np.int64)
        assert content_key("x", a, 5) == content_key("x", b, 5)
        assert content_key("x", a, 5) != content_key("x", a, 6)
        assert content_key(a) != content_key(a.astype(np.int32))
        assert content_key(a) != content_key(a.reshape(2, 50))

    def test_content_key_rejects_unhashable(self):
        with pytest.raises(TypeError, match="unhashable"):
            content_key(object())

    def test_lru_eviction_and_stats(self):
        cache = ArtifactCache(max_entries=2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        assert cache.get(("a",)) == 1  # refresh 'a'
        cache.put(("c",), 3)           # evicts 'b'
        assert ("b",) not in cache
        assert cache.get(("a",)) == 1 and cache.get(("c",)) == 3
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["hits"] == 3 and stats["misses"] == 0

    def test_first_writer_wins(self):
        cache = ArtifactCache()
        assert cache.put(("k",), "first") == "first"
        assert cache.put(("k",), "second") == "first"

    def test_get_or_compute(self):
        cache = ArtifactCache()
        calls = []
        for _ in range(3):
            v = cache.get_or_compute(("k",), lambda: calls.append(1) or "v")
            assert v == "v"
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# Engine.fit parity: bit-identical parents + traces vs direct pandora()
# ---------------------------------------------------------------------------


class TestEngineFitParity:
    @pytest.mark.parametrize("backend", backend_params())
    @pytest.mark.parametrize("regime", dtype_regime_params())
    def test_parents_and_traces_vs_direct_pandora(self, backend, regime, rng):
        u, v, w = random_spanning_tree(400, rng, skew=0.5)
        with dtype_regime(regime), use_backend(backend):
            ref_model = CostModel()
            with tracking(ref_model):
                ref_dend, _ = pandora(u, v, w)
            engine = Engine()
            got_model = CostModel()
            with tracking(got_model):
                handle = engine.fit(u, v, w)
        assert np.array_equal(handle.parent, ref_dend.parent)
        assert _trace(got_model) == _trace(ref_model)

    def test_fit_caches_by_content(self, rng):
        u, v, w = random_spanning_tree(150, rng, skew=0.3)
        engine = Engine()
        h1 = engine.fit(u, v, w)
        h2 = engine.fit(u.copy(), v.copy(), w.copy())  # equal content
        assert h1 is h2
        stats = engine.cache_stats()
        assert stats["hits"] == 1 and stats["entries"] == 1

    def test_fit_cache_distinguishes_inputs(self, rng):
        u, v, w = random_spanning_tree(150, rng, skew=0.3)
        engine = Engine()
        h1 = engine.fit(u, v, w)
        h2 = engine.fit(u, v, w * 2.0)
        assert h1 is not h2

    def test_tracked_fit_bypasses_cache(self, rng):
        """A cache hit runs no kernels; tracked calls must recompute so the
        recorded trace is never silently empty."""
        u, v, w = random_spanning_tree(100, rng, skew=0.3)
        engine = Engine()
        engine.fit(u, v, w)  # warm the cache
        model = CostModel()
        with tracking(model):
            engine.fit(u, v, w)
        assert len(model.records) > 0

    def test_engine_pinned_backend(self, rng):
        u, v, w = random_spanning_tree(120, rng, skew=0.4)
        ref, _ = pandora(u, v, w)
        engine = Engine(backend="numba-python")
        handle = engine.fit(u, v, w)
        assert np.array_equal(handle.parent, ref.parent)


# ---------------------------------------------------------------------------
# Batched queries: multi-cut and multi-mpts
# ---------------------------------------------------------------------------


class TestBatchedQueries:
    def test_cut_many_matches_per_cut(self, rng):
        u, v, w = random_spanning_tree(300, rng, skew=0.4)
        handle = Engine().fit(u, v, w)
        qs = np.quantile(w, [0.0, 0.1, 0.5, 0.9, 1.0]).tolist()
        thresholds = [-1.0] + qs + [qs[2], 2 * qs[-1]]  # dups + out-of-range
        labels = handle.cut_many(thresholds)
        assert labels.shape == (len(thresholds), handle.n_vertices)
        for i, t in enumerate(thresholds):
            assert np.array_equal(labels[i], handle.cut(t)), t

    def test_cut_many_unsorted_thresholds(self, rng):
        u, v, w = random_spanning_tree(200, rng, skew=0.2)
        handle = Engine().fit(u, v, w)
        thresholds = [float(np.max(w)), float(np.min(w)), float(np.median(w))]
        labels = handle.cut_many(thresholds)
        for i, t in enumerate(thresholds):
            assert np.array_equal(labels[i], handle.cut(t))

    def test_cut_nan_threshold_raises_and_inf_agrees(self, rng):
        u, v, w = random_spanning_tree(50, rng, skew=0.2)
        handle = Engine().fit(u, v, w)
        with pytest.raises(ValueError, match="NaN"):
            handle.cut(float("nan"))
        with pytest.raises(ValueError, match="NaN"):
            handle.cut_many([1.0, float("nan")])
        labels = handle.cut_many([float("inf"), float("-inf")])
        assert np.array_equal(labels[0], handle.cut(float("inf")))
        assert np.array_equal(labels[1], handle.cut(float("-inf")))
        assert labels[0].max() == 0
        assert np.array_equal(labels[1], np.arange(handle.n_vertices))

    def test_cut_many_empty(self, rng):
        u, v, w = random_spanning_tree(50, rng, skew=0.2)
        handle = Engine().fit(u, v, w)
        assert handle.cut_many([]).shape == (0, handle.n_vertices)

    def test_hdbscan_batch_matches_naive_loop(self, rng):
        pts = rng.normal(size=(600, 2))
        mpts_values = [2, 4, 8, 16]
        naive = [hdbscan(pts, mpts=m, min_cluster_size=15)
                 for m in mpts_values]
        engine = Engine()
        batched = engine.hdbscan_batch(pts, mpts_values, min_cluster_size=15)
        for m, a, b in zip(mpts_values, naive, batched):
            assert np.array_equal(a.labels, b.labels), m
            assert np.allclose(a.probabilities, b.probabilities), m
            assert np.array_equal(a.dendrogram.parent, b.dendrogram.parent), m
            assert np.array_equal(a.mst.u, b.mst.u), m
            assert np.array_equal(a.mst.v, b.mst.v), m
            assert np.array_equal(a.mst.w, b.mst.w), m

    def test_hdbscan_batch_builds_one_knn(self, rng, monkeypatch):
        import repro.spatial.emst as emst_mod
        from repro.spatial.kdtree import KDTree

        builds = []
        original = KDTree.build.__func__
        monkeypatch.setattr(
            KDTree, "build",
            classmethod(lambda cls, pts, leaf_size=32:
                        builds.append(1) or original(cls, pts, leaf_size)),
        )
        pts = rng.normal(size=(300, 2))
        Engine().hdbscan_batch(pts, [2, 4, 8], min_cluster_size=10)
        assert len(builds) == 1
        assert emst_mod is not None  # keep the import referenced

    def test_hdbscan_batch_second_sweep_all_cached(self, rng):
        pts = rng.normal(size=(250, 2))
        engine = Engine()
        first = engine.hdbscan_batch(pts, [2, 4], min_cluster_size=10)
        misses_after_first = engine.cache_stats()["misses"]
        second = engine.hdbscan_batch(pts, [2, 4], min_cluster_size=10)
        assert engine.cache_stats()["misses"] == misses_after_first
        for a, b in zip(first, second):
            assert np.array_equal(a.labels, b.labels)
            assert a.mst is b.mst  # the EMST artifact itself is reused
            assert b.phase_seconds["mst"] >= 0.0

    def test_hdbscan_single_through_engine_matches_pipeline(self, rng):
        pts = rng.normal(size=(400, 3))
        ref = hdbscan(pts, mpts=4, min_cluster_size=12)
        got = Engine().hdbscan(pts, mpts=4, min_cluster_size=12)
        assert np.array_equal(ref.labels, got.labels)
        assert np.array_equal(ref.dendrogram.parent, got.dendrogram.parent)

    def test_hdbscan_batch_validates_inputs(self, rng):
        engine = Engine()
        pts = rng.normal(size=(50, 2))
        with pytest.raises(ValueError, match="non-empty"):
            engine.hdbscan_batch(pts, [])
        with pytest.raises(ValueError, match=">= 1"):
            engine.hdbscan_batch(pts, [2, 0])
        with pytest.raises(ValueError, match=r"\(n, d\)"):
            engine.hdbscan_batch(rng.normal(size=50), [2])

    def test_tracked_emst_bypasses_cache(self, rng):
        """The trace-bypass rule covers the spatial artifacts too: a warm
        cache must not turn a tracked emst/knn call into an empty trace."""
        pts = rng.normal(size=(200, 2))
        engine = Engine()
        engine.emst(pts, mpts=4)  # warm the cache
        model = CostModel()
        with tracking(model):
            engine.emst(pts, mpts=4)
        assert len(model.records) > 0

    def test_emst_via_shared_knn_matches_direct(self, rng):
        from repro.spatial import emst

        pts = rng.normal(size=(350, 2))
        for mpts in (1, 2, 4, 8):
            ref = emst(pts, mpts=mpts)
            got = Engine().emst(pts, mpts=mpts)
            assert np.array_equal(ref.u, got.u)
            assert np.array_equal(ref.v, got.v)
            assert np.array_equal(ref.w, got.w)
            assert np.array_equal(ref.core, got.core)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestBatchCLI:
    def test_batch_subcommand(self, tmp_path, capsys, rng):
        from repro.__main__ import main

        pts = rng.normal(size=(300, 2))
        src = tmp_path / "pts.npy"
        np.save(src, pts)
        out = tmp_path / "labels.npy"
        assert main(["batch", str(src), "--mpts", "2,4",
                     "--min-cluster-size", "10", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "Engine batch" in text
        assert "artifact cache" in text
        labels = np.load(out)
        assert labels.shape == (2, 300)

    def test_batch_rejects_bad_mpts(self, tmp_path, rng):
        from repro.__main__ import main

        pts = rng.normal(size=(20, 2))
        src = tmp_path / "pts.npy"
        np.save(src, pts)
        with pytest.raises(SystemExit):
            main(["batch", str(src), "--mpts", "two"])
