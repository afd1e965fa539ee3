"""EMST (dual-tree Boruvka) tests: exactness against dense references."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import minimum_spanning_tree as scipy_mst
from scipy.spatial.distance import cdist

from repro.spatial import (
    dist_block,
    emst,
    kernels,
    pairwise_mutual_reachability,
)
from repro.spatial.emst import _reach, _reach_inputs, core_distances, knn_graph
from repro.spatial.kdtree import KDTree
from repro.structures.tree import is_tree


def dense_mst_weights(pts, mpts):
    """Sorted MST edge weights of the dense metric matrix."""
    if mpts == 1:
        dense = dist_block(pts, pts)
    else:
        core, _, _ = core_distances(pts, mpts)
        dense = pairwise_mutual_reachability(pts, core)
    # scipy's sparse MST treats 0 entries as missing edges; shift all
    # off-diagonal weights by 1 so duplicate points stay connected, then
    # remove the shift from every edge.
    shifted = np.triu(dense + 1.0, k=1)
    return np.sort(scipy_mst(shifted).data) - 1.0


def dense_mst_weight(pts, mpts):
    return dense_mst_weights(pts, mpts).sum()


class TestEuclideanEMST:
    def test_small_exact(self, rng):
        for _ in range(15):
            n = int(rng.integers(2, 100))
            d = int(rng.integers(1, 5))
            pts = rng.normal(size=(n, d))
            r = emst(pts, leaf_size=16)
            assert is_tree(n, r.u, r.v)
            assert np.isclose(r.w.sum(), dense_mst_weight(pts, 1), rtol=1e-9)

    def test_collinear_points(self):
        pts = np.arange(20, dtype=float)[:, None]
        r = emst(pts)
        assert np.isclose(r.w.sum(), 19.0)

    def test_grid_points(self):
        xx, yy = np.meshgrid(np.arange(8.0), np.arange(8.0))
        pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
        r = emst(pts, leaf_size=8)
        # unit grid MST: 63 edges of length 1
        assert np.isclose(r.w.sum(), 63.0)

    def test_duplicate_points(self, rng):
        base = rng.normal(size=(10, 2))
        pts = np.concatenate([base, base])  # every point duplicated
        r = emst(pts, leaf_size=8)
        assert is_tree(20, r.u, r.v)
        assert np.isclose(r.w.sum(), dense_mst_weight(pts, 1), rtol=1e-9)

    def test_two_points(self):
        pts = np.array([[0.0, 0.0], [3.0, 4.0]])
        r = emst(pts)
        assert r.n_edges == 1
        assert np.isclose(r.w[0], 5.0)

    def test_single_point(self):
        r = emst(np.zeros((1, 3)))
        assert r.n_edges == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            emst(np.zeros((0, 2)))

    def test_rounds_logarithmic(self, rng):
        pts = rng.normal(size=(2000, 2))
        r = emst(pts)
        assert r.n_rounds <= np.ceil(np.log2(2000))


class TestMutualReachabilityEMST:
    @pytest.mark.parametrize("mpts", [2, 4, 8])
    def test_small_exact(self, rng, mpts):
        for _ in range(8):
            n = int(rng.integers(mpts, 90))
            pts = rng.normal(size=(n, 2))
            r = emst(pts, mpts=mpts, leaf_size=16)
            assert is_tree(n, r.u, r.v)
            assert np.isclose(
                r.w.sum(), dense_mst_weight(pts, mpts), rtol=1e-9
            )

    def test_tie_heavy_clusters(self, rng):
        """Clustered data creates many exact mreach ties; the cycle guard
        must still deliver a spanning tree of minimal weight."""
        for trial in range(8):
            centers = rng.normal(size=(3, 2)) * 10
            pts = np.concatenate(
                [c + rng.normal(size=(30, 2)) * 0.2 for c in centers]
            )
            r = emst(pts, mpts=8, leaf_size=16)
            assert is_tree(len(pts), r.u, r.v)
            assert np.isclose(r.w.sum(), dense_mst_weight(pts, 8), rtol=1e-9)

    def test_core_reported(self, rng):
        pts = rng.normal(size=(30, 2))
        r = emst(pts, mpts=4)
        core, _, _ = core_distances(pts, 4)
        assert np.allclose(r.core, core)

    def test_weights_at_least_cores(self, rng):
        """Every mreach MST edge weight >= both endpoint core distances."""
        pts = rng.normal(size=(60, 3))
        r = emst(pts, mpts=4)
        assert (r.w + 1e-12 >= r.core[r.u]).all()
        assert (r.w + 1e-12 >= r.core[r.v]).all()


class TestEMSTScalesAndSeeds:
    def test_seed_k_variations(self, rng):
        pts = rng.normal(size=(300, 2))
        ref = emst(pts, seed_k=2).w.sum()
        for k in (4, 16):
            assert np.isclose(emst(pts, seed_k=k).w.sum(), ref, rtol=1e-9)

    def test_leaf_size_variations(self, rng):
        pts = rng.normal(size=(400, 3))
        ref = emst(pts, leaf_size=8).w.sum()
        for ls in (32, 128):
            assert np.isclose(emst(pts, leaf_size=ls).w.sum(), ref, rtol=1e-9)

    def test_medium_scale_2d(self, rng):
        pts = rng.normal(size=(3000, 2))
        r = emst(pts, mpts=2)
        assert is_tree(3000, r.u, r.v)
        # spot check with dense reference on a subsample is too weak; check
        # tree + weight against kNN lower bound instead: each point's MST
        # edge weight >= its (mutual-reachability) 1-NN distance
        core, knn_d, _ = core_distances(pts, 2)
        assert r.w.min() >= np.maximum(knn_d[:, 1], core).min() - 1e-12


@st.composite
def adversarial_clouds(draw):
    """Tie-heavy and degenerate clouds: integer grids scaled by 0.1 (ulp
    ties), duplicated points, or Gaussian points, in d = 1..6."""
    kind = draw(st.sampled_from(["grid", "dup", "normal"]))
    d = draw(st.integers(1, 6))
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "grid":
        return rng.integers(0, 4, size=(n, d)) * 0.1
    if kind == "dup":
        base = rng.normal(size=(max(1, n // 3), d))
        return base[rng.integers(0, base.shape[0], n)]
    return rng.normal(size=(n, d))


@st.composite
def labelings(draw, n):
    """Component labels: random, or contiguous blocks along axis 0 (so many
    kNN rows hold no foreign point and the floor beyond the list binds)."""
    n_labels = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return rng.integers(0, n_labels, n)
    return np.sort(rng.integers(0, n_labels, n))


class TestReachFloor:
    """The per-point floor that lets a Boruvka round skip points: it must
    never exceed a point's true best mutual reachability to another
    component, or a pruned pair could have held an MST edge."""

    @staticmethod
    def floor(pts, mpts, seed_k, labels):
        n = pts.shape[0]
        k = min(max(mpts, min(seed_k, n)), n)
        art = knn_graph(pts, k, leaf_size=4)
        col = min(mpts, n) - 1
        core = art.dists[:, col] if col > 0 else np.zeros(n)
        core2 = core * core
        knn_r2, far2 = _reach_inputs(pts, art.ids, core2, mpts > 1)
        reach = _reach(labels, art.ids, knn_r2, far2, core2,
                       np.empty(n), np.empty(n, dtype=np.int64))
        mr = np.maximum(cdist(pts, pts, "sqeuclidean"), core2[:, None])
        np.maximum(mr, core2[None, :], out=mr)
        mr[labels[:, None] == labels[None, :]] = np.inf
        return reach, mr.min(axis=1), k

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), pts=adversarial_clouds(),
           mpts=st.sampled_from([1, 2, 5]), seed_k=st.integers(1, 12))
    def test_floor_never_exceeds_true_reach(self, data, pts, mpts, seed_k):
        labels = data.draw(labelings(pts.shape[0]))
        reach, true, k = self.floor(pts, mpts, seed_k, labels)
        assert (reach <= true).all()
        if k == pts.shape[0]:
            # The rows list every point: the floor is the exact answer.
            np.testing.assert_array_equal(reach, true)

    def test_floor_beyond_the_list_is_exact_d2(self):
        """Grid neighbors tied with the k-th column but left out of the
        list: the floor beyond the list must be their exact d2, not the
        square of a rounded distance (one ulp larger here)."""
        pts = np.array([
            [3, 1, 2], [2, 2, 1], [2, 0, 1], [1, 3, 1], [0, 2, 1], [1, 3, 2],
            [1, 2, 3], [3, 3, 2], [2, 1, 0], [1, 1, 1], [0, 3, 0], [0, 1, 1],
        ]) * 0.1
        labels = np.array([1, 1, 1, 0, 0, 0, 0, 1, 1, 0, 0, 0])
        reach, true, _ = self.floor(pts, 1, 2, labels)
        assert (reach <= true).all()


class TestReachPruning:
    @settings(max_examples=150, deadline=None)
    @given(pts=adversarial_clouds(), mpts=st.sampled_from([1, 2, 5]),
           leaf_size=st.sampled_from([1, 4, 96]))
    def test_emst_matches_dense_oracle(self, pts, mpts, leaf_size):
        r = emst(pts, mpts=mpts, leaf_size=leaf_size)
        n = pts.shape[0]
        assert is_tree(n, r.u, r.v)
        np.testing.assert_allclose(
            np.sort(r.w), dense_mst_weights(pts, mpts), rtol=1e-12,
            atol=1e-12,
        )

    @settings(max_examples=60, deadline=None)
    @given(pts=adversarial_clouds(), mpts=st.sampled_from([1, 2, 5]))
    def test_shared_knn_artifact_matches_direct_call(self, pts, mpts):
        direct = emst(pts, mpts=mpts)
        shared = emst(pts, mpts=mpts, knn=knn_graph(pts, k=mpts + 12))
        for field in ("u", "v", "w", "core"):
            np.testing.assert_array_equal(
                getattr(shared, field), getattr(direct, field)
            )
        assert shared.n_rounds == direct.n_rounds
        assert shared.n_pair_visits == direct.n_pair_visits

    def test_exact_seed_skips_the_traversal(self):
        """On a unit line every point's nearest foreign neighbor is in its
        kNN list with an exactly representable d2, so seeding already holds
        every answer: no point is useful and the root pair is pruned."""
        pts = np.arange(64, dtype=float)[:, None]
        r = emst(pts, leaf_size=8)
        assert r.n_rounds == 1
        assert r.n_pair_visits == 1
        assert np.array_equal(r.w, np.ones(63))


class TestNumpyLeafPairs:
    def test_chunked_pass_matches_one_pass(self, monkeypatch, rng):
        """The NumPy leaf-pair kernel split into many small pair chunks
        writes the same slots as one pass, at the caller's offsets."""
        pts = rng.normal(size=(300, 2))
        tree = KDTree.build(pts, leaf_size=8)
        leaves = np.flatnonzero(tree.left == -1)
        ia, ib = np.triu_indices(leaves.size)
        leaf_a, leaf_b = leaves[ia], leaves[ib]
        sizes = (tree.end - tree.start)[leaf_a] + (tree.end - tree.start)[leaf_b]
        base = 5
        offsets = base + np.cumsum(sizes) - sizes
        total = base + int(sizes.sum())
        labels_perm = rng.integers(0, 6, 300)
        core2_perm = rng.random(300) * 0.01
        bound = rng.random(6)
        pair_lb = rng.random(leaf_a.size) * 0.05

        def run():
            out = [np.full(total, -1), np.full(total, -1.0),
                   np.full(total, -1), np.full(total, -1)]
            kernels.leaf_pairs(tree, leaf_a, leaf_b, pair_lb, labels_perm,
                               core2_perm, True, bound, offsets, *out)
            return out

        ref = run()
        monkeypatch.setattr(kernels, "PASS_SLOTS", 50)
        got = run()
        np.testing.assert_array_equal(ref[1][:base], -1.0)
        hit = np.isfinite(ref[1][base:])
        assert 0 < hit.sum() < hit.size
        for r, g in zip(ref, got):
            np.testing.assert_array_equal(g[:base], r[:base])
            np.testing.assert_array_equal(g[base:][hit], r[base:][hit])
        np.testing.assert_array_equal(got[1], ref[1])
