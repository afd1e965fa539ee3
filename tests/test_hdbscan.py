"""HDBSCAN* pipeline tests: condensed tree, stability, labels, end-to-end."""

from __future__ import annotations

import numpy as np
import pytest

from repro import dendrogram_bottomup
from repro.data import blobs
from repro.hdbscan import (
    condense_tree,
    hdbscan,
    select_clusters,
)
from repro.spatial import emst


def blob_result(rng_seed=3, n=450, mpts=4, mcs=10, **kw):
    pts, true = blobs(n, n_centers=3, separation=14.0, seed=rng_seed,
                      noise_fraction=0.05)
    return pts, true, hdbscan(pts, mpts=mpts, min_cluster_size=mcs, **kw)


class TestCondensedTree:
    def test_sizes_and_root(self, rng):
        pts, _ = blobs(200, n_centers=2, separation=12.0, seed=1)
        mst = emst(pts, mpts=3)
        d = dendrogram_bottomup(mst.u, mst.v, mst.w)
        t = condense_tree(d, 10)
        assert t.cluster_parent[0] == -1
        assert t.cluster_size[0] == 200
        assert t.n_points == 200

    def test_every_point_falls_out_once(self, rng):
        pts = rng.normal(size=(150, 2))
        mst = emst(pts, mpts=2)
        d = dendrogram_bottomup(mst.u, mst.v, mst.w)
        t = condense_tree(d, 5)
        assert t.point_cluster.shape == (150,)
        assert (t.point_cluster >= 0).all()
        assert (t.point_lambda > 0).all()

    def test_min_cluster_size_validated(self, rng):
        pts = rng.normal(size=(20, 2))
        mst = emst(pts)
        d = dendrogram_bottomup(mst.u, mst.v, mst.w)
        with pytest.raises(ValueError):
            condense_tree(d, 1)

    def test_children_sizes_at_least_m(self, rng):
        pts = rng.normal(size=(300, 2))
        mst = emst(pts, mpts=2)
        d = dendrogram_bottomup(mst.u, mst.v, mst.w)
        m = 8
        t = condense_tree(d, m)
        assert (t.cluster_size[1:] >= m).all()

    def test_well_separated_blobs_split_early(self):
        pts, _ = blobs(300, n_centers=3, separation=30.0, spread=0.5, seed=7)
        mst = emst(pts, mpts=3)
        d = dendrogram_bottomup(mst.u, mst.v, mst.w)
        t = condense_tree(d, 20)
        # the root must split into >= 2 real clusters
        assert t.n_clusters >= 3

    def test_single_blob_no_split(self, rng):
        pts = rng.normal(size=(100, 2)) * 0.5
        mst = emst(pts, mpts=3)
        d = dendrogram_bottomup(mst.u, mst.v, mst.w)
        t = condense_tree(d, 60)  # min size too large for any split
        assert t.n_clusters == 1

    def test_stabilities_nonnegative(self, rng):
        pts = rng.normal(size=(120, 2))
        mst = emst(pts, mpts=2)
        d = dendrogram_bottomup(mst.u, mst.v, mst.w)
        t = condense_tree(d, 6)
        assert (t.stabilities() >= -1e-12).all()

    def test_duplicate_points_inf_lambda_handled(self, rng):
        base = rng.normal(size=(30, 2))
        pts = np.concatenate([base, base[:10]])
        mst = emst(pts, mpts=2)
        d = dendrogram_bottomup(mst.u, mst.v, mst.w)
        t = condense_tree(d, 4)
        assert np.isfinite(t.stabilities()).all()


class TestSelection:
    def test_selected_clusters_disjoint(self, rng):
        pts, _ = blobs(400, n_centers=4, separation=15.0, seed=2)
        mst = emst(pts, mpts=3)
        d = dendrogram_bottomup(mst.u, mst.v, mst.w)
        t = condense_tree(d, 12)
        sel = select_clusters(t)
        chosen = np.nonzero(sel)[0]
        # no selected cluster is an ancestor of another
        for c in chosen:
            p = t.cluster_parent[c]
            while p >= 0:
                assert not sel[p]
                p = t.cluster_parent[p]

    def test_root_excluded_by_default(self, rng):
        pts = rng.normal(size=(80, 2))
        mst = emst(pts, mpts=2)
        d = dendrogram_bottomup(mst.u, mst.v, mst.w)
        t = condense_tree(d, 5)
        sel = select_clusters(t)
        assert not sel[0]

    def test_allow_single_cluster(self, rng):
        pts = rng.normal(size=(80, 2)) * 0.1
        mst = emst(pts, mpts=2)
        d = dendrogram_bottomup(mst.u, mst.v, mst.w)
        t = condense_tree(d, 60)
        sel = select_clusters(t, allow_single_cluster=True)
        assert sel[0]


class TestEndToEnd:
    def test_three_blobs_recovered(self):
        pts, true, res = blob_result()
        assert res.n_clusters == 3
        # cluster labels align with true blobs (allowing noise)
        for blob_id in range(3):
            mask = true == blob_id
            found = res.labels[mask]
            found = found[found >= 0]
            values, counts = np.unique(found, return_counts=True)
            assert counts.max() / mask.sum() > 0.8

    def test_probabilities_in_unit_interval(self):
        _, _, res = blob_result()
        assert (res.probabilities >= 0).all()
        assert (res.probabilities <= 1).all()
        assert (res.probabilities[res.labels == -1] == 0).all()

    def test_phase_times_recorded(self):
        _, _, res = blob_result()
        assert set(res.phase_seconds) == {"mst", "dendrogram", "extraction"}

    def test_unionfind_backend_identical_labels(self):
        pts, _, res_p = blob_result()
        res_u = hdbscan(pts, mpts=4, min_cluster_size=10,
                        dendrogram_algorithm="unionfind")
        assert np.array_equal(res_p.labels, res_u.labels)
        assert np.allclose(res_p.probabilities, res_u.probabilities)

    def test_mixed_backend_identical_labels(self):
        pts, _, res_p = blob_result()
        res_m = hdbscan(pts, mpts=4, min_cluster_size=10,
                        dendrogram_algorithm="mixed")
        assert np.array_equal(res_p.labels, res_m.labels)

    def test_unknown_backend_rejected(self, rng):
        with pytest.raises(ValueError, match="unknown dendrogram algorithm"):
            hdbscan(rng.normal(size=(20, 2)), dendrogram_algorithm="magic")

    def test_bad_shape_rejected(self, rng):
        with pytest.raises(ValueError):
            hdbscan(rng.normal(size=20))

    def test_mpts_effect(self):
        """Larger mpts smooths density: fewer or equal clusters, more noise
        absorbed -- and a different dendrogram."""
        pts, _ = blobs(400, n_centers=3, separation=12.0, seed=5,
                       noise_fraction=0.1)
        r2 = hdbscan(pts, mpts=2, min_cluster_size=10)
        r16 = hdbscan(pts, mpts=16, min_cluster_size=10)
        assert r16.mst.w.sum() >= r2.mst.w.sum() - 1e-9

    def test_uniform_noise_mostly_unclustered(self, rng):
        pts = rng.uniform(0, 1, size=(300, 2))
        res = hdbscan(pts, mpts=4, min_cluster_size=50)
        # uniform data: few clusters, if any
        assert res.n_clusters <= 3


class TestExtractLabels:
    def test_label_range(self):
        _, _, res = blob_result()
        assert res.labels.min() >= -1
        assert res.labels.max() == res.n_clusters - 1

    def test_cluster_sizes_sum(self):
        _, _, res = blob_result()
        sizes = res.flat.cluster_sizes()
        assert sizes.sum() + (res.labels == -1).sum() == len(res.labels)

    def test_noise_fraction(self):
        _, _, res = blob_result()
        assert 0 <= res.flat.noise_fraction < 0.5


class TestPipelinePlan:
    """``hdbscan()`` runs ``hdbscan_plan()``; the engine runs a variant of
    it.  Both keep the pipeline's entry errors and kernel traces."""

    def test_tracked_trace_tags_every_phase(self):
        """Inside ``tracking()``, every record carries its plan bucket:
        knn/emst ``mst``, extraction ``extraction``, and PANDORA's kernels
        exactly the records of a tracked ``pandora()`` on the same MST."""
        from repro.core.pandora import pandora
        from repro.parallel.machine import CostModel, tracking

        pts, _, _ = blob_result()
        model = CostModel()
        with tracking(model):
            res = hdbscan(pts, mpts=4, min_cluster_size=10)
        ref = CostModel()
        with tracking(ref):
            pandora(res.mst.u, res.mst.v, res.mst.w, len(pts))

        def trace(m):
            return [(r.name, r.category, r.work, r.phase) for r in m.records]

        got, want = trace(model), trace(ref)
        assert want and all(r[3] for r in got)
        start = next(i for i, r in enumerate(got)
                     if r[3] in ("sort", "contraction", "expansion"))
        end = start + len(want)
        assert got[start:end] == want
        assert start and {r[3] for r in got[:start]} == {"mst"}
        tail = got[end:]
        assert tail and {r[3] for r in tail} == {"extraction"}
        assert {r[0].split(".")[0] for r in tail} >= {"condense", "select",
                                                      "labels"}

    @staticmethod
    def entry(kind):
        from repro.engine import Engine

        return hdbscan if kind == "pipeline" else Engine().hdbscan

    @pytest.fixture
    def tree_builds(self, monkeypatch):
        from repro.spatial.kdtree import KDTree

        builds = []
        original = KDTree.build.__func__
        monkeypatch.setattr(
            KDTree, "build",
            classmethod(lambda cls, pts, leaf_size=32:
                        builds.append(1) or original(cls, pts, leaf_size)),
        )
        return builds

    @pytest.mark.parametrize("kind", ["pipeline", "engine"])
    def test_empty_cloud(self, kind):
        with pytest.raises(ValueError, match="need at least one point"):
            self.entry(kind)(np.zeros((0, 2)), mpts=2)

    @pytest.mark.parametrize("kind", ["pipeline", "engine"])
    def test_bad_arguments_fail_before_knn(self, kind, rng, tree_builds):
        call = self.entry(kind)
        with pytest.raises(ValueError, match="points must be"):
            call(rng.normal(size=50), mpts=2)
        with pytest.raises(ValueError, match="unknown dendrogram algorithm"):
            call(rng.normal(size=(50, 2)), mpts=2,
                 dendrogram_algorithm="nope")
        assert tree_builds == []

    @pytest.mark.parametrize("kind", ["pipeline", "engine"])
    def test_nan_is_invalid_graph(self, kind, rng):
        from repro import InvalidGraphError

        pts = rng.normal(size=(50, 2))
        pts[7, 1] = np.nan
        with pytest.raises(InvalidGraphError):
            self.entry(kind)(pts, mpts=2)
