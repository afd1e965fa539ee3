"""kd-tree tests: structure invariants and exact kNN vs scipy."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.spatial import cKDTree

from repro.spatial import KDTree


class TestBuild:
    def test_leaf_slices_partition(self, rng):
        pts = rng.normal(size=(200, 3))
        tree = KDTree.build(pts, leaf_size=16)
        leaves = tree.leaves_by_start()
        starts = tree.start[leaves]
        ends = tree.end[leaves]
        assert starts[0] == 0
        assert ends[-1] == 200
        assert np.array_equal(starts[1:], ends[:-1])

    def test_indices_is_permutation(self, rng):
        pts = rng.normal(size=(100, 2))
        tree = KDTree.build(pts)
        assert np.array_equal(np.sort(tree.indices), np.arange(100))

    def test_children_have_larger_ids(self, rng):
        pts = rng.normal(size=(300, 2))
        tree = KDTree.build(pts, leaf_size=8)
        internal = np.nonzero(tree.left >= 0)[0]
        assert (tree.left[internal] > internal).all()
        assert (tree.right[internal] > internal).all()

    def test_boxes_contain_points(self, rng):
        pts = rng.normal(size=(150, 3))
        tree = KDTree.build(pts, leaf_size=10)
        for node in range(tree.n_nodes):
            sl = tree.indices[tree.start[node]: tree.end[node]]
            sub = pts[sl]
            assert (sub >= tree.box_lo[node] - 1e-12).all()
            assert (sub <= tree.box_hi[node] + 1e-12).all()

    def test_duplicate_points_terminate(self):
        pts = np.zeros((100, 2))
        tree = KDTree.build(pts, leaf_size=4)  # must not loop forever
        assert tree.n_points == 100

    def test_leaf_sizes_respected(self, rng):
        pts = rng.normal(size=(500, 2))
        tree = KDTree.build(pts, leaf_size=20)
        for leaf in tree.leaf_ids():
            n_pts = tree.end[leaf] - tree.start[leaf]
            assert n_pts <= 20 or tree.split_dim[leaf] == -1

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            KDTree.build(np.zeros(5))
        with pytest.raises(ValueError):
            KDTree.build(np.zeros((5, 2)), leaf_size=0)

    def test_points_perm_matches_indices(self, rng):
        pts = rng.normal(size=(60, 2))
        tree = KDTree.build(pts, leaf_size=8)
        assert np.array_equal(tree.points_perm, pts[tree.indices])


class TestKNN:
    @pytest.mark.parametrize(
        "n,d,k,leaf",
        [(50, 2, 3, 16), (500, 3, 8, 16), (1000, 2, 16, 32),
         (800, 5, 4, 24), (300, 1, 5, 8), (64, 2, 64, 16)],
    )
    def test_matches_scipy(self, rng, n, d, k, leaf):
        pts = rng.normal(size=(n, d))
        tree = KDTree.build(pts, leaf_size=leaf)
        dd, ii = tree.query_knn(pts, k)
        rd, _ri = cKDTree(pts).query(pts, k=k)
        if k == 1:
            rd = rd[:, None]
        assert np.allclose(np.sort(dd, axis=1), np.sort(rd, axis=1), atol=1e-12)

    def test_separate_queries(self, rng):
        pts = rng.normal(size=(400, 3))
        q = rng.normal(size=(37, 3))
        tree = KDTree.build(pts, leaf_size=16)
        dd, ii = tree.query_knn(q, 5)
        rd, _ = cKDTree(pts).query(q, k=5)
        assert np.allclose(np.sort(dd, axis=1), np.sort(rd, axis=1), atol=1e-12)

    def test_k_clamped_to_n(self, rng):
        pts = rng.normal(size=(5, 2))
        tree = KDTree.build(pts)
        dd, ii = tree.query_knn(pts, 10)
        assert dd.shape == (5, 5)

    def test_rows_sorted_ascending(self, rng):
        pts = rng.normal(size=(100, 2))
        tree = KDTree.build(pts, leaf_size=8)
        dd, _ = tree.query_knn(pts, 6)
        assert (np.diff(dd, axis=1) >= 0).all()

    def test_self_is_nearest(self, rng):
        pts = rng.normal(size=(100, 2))
        tree = KDTree.build(pts, leaf_size=8)
        dd, ii = tree.query_knn(pts, 3)
        assert np.allclose(dd[:, 0], 0.0)
        assert np.array_equal(ii[:, 0], np.arange(100))

    def test_ids_and_dists_consistent(self, rng):
        pts = rng.normal(size=(150, 3))
        tree = KDTree.build(pts, leaf_size=12)
        q = rng.normal(size=(20, 3))
        dd, ii = tree.query_knn(q, 4)
        recomputed = np.linalg.norm(q[:, None, :] - pts[ii], axis=2)
        assert np.allclose(dd, recomputed, atol=1e-12)

    def test_no_duplicate_neighbors(self, rng):
        pts = rng.normal(size=(200, 2))
        tree = KDTree.build(pts, leaf_size=16)
        _, ii = tree.query_knn(pts, 8)
        for row in ii:
            assert len(set(row.tolist())) == len(row)

    def test_duplicate_points_handled(self, rng):
        pts = np.repeat(rng.normal(size=(10, 2)), 5, axis=0)
        tree = KDTree.build(pts, leaf_size=4)
        dd, ii = tree.query_knn(pts, 5)
        assert np.allclose(dd, 0.0)  # 5 copies of each point

    def test_empty_tree_rejected(self):
        tree = KDTree.build(np.zeros((0, 2)))
        with pytest.raises(ValueError):
            tree.query_knn(np.zeros((1, 2)), 1)

    def test_dim_mismatch_rejected(self, rng):
        tree = KDTree.build(rng.normal(size=(10, 2)))
        with pytest.raises(ValueError):
            tree.query_knn(rng.normal(size=(5, 3)), 2)


class TestBoxDistances:
    def test_point_box_zero_inside(self, rng):
        pts = rng.normal(size=(50, 2))
        tree = KDTree.build(pts, leaf_size=8)
        d2 = tree.min_sq_dist_point_box(pts[:1], np.array([0]))
        assert d2[0] == 0.0

    def test_box_box_zero_for_overlap(self, rng):
        pts = rng.normal(size=(50, 2))
        tree = KDTree.build(pts, leaf_size=8)
        assert tree.min_sq_dist_box_box(0, 0) == 0.0

    def test_box_box_lower_bounds_points(self, rng):
        pts = rng.normal(size=(120, 2))
        tree = KDTree.build(pts, leaf_size=10)
        leaves = tree.leaf_ids()
        for a in leaves[:4]:
            for b in leaves[:4]:
                pa = pts[tree.leaf_points(a)]
                pb = pts[tree.leaf_points(b)]
                true_min = np.min(
                    np.linalg.norm(pa[:, None] - pb[None], axis=2) ** 2
                )
                assert tree.min_sq_dist_box_box(int(a), int(b)) <= true_min + 1e-12


class TestAdversarialKNN:
    """Exact (distance, id) parity vs brute force on adversarial inputs.

    Integer-valued coordinates keep every squared distance exact in
    float64, so neighbor *ids* -- not just distances -- must match the
    brute-force k-smallest-(d2, id) reference bit for bit.
    """

    @staticmethod
    def _reference(
        pts: np.ndarray, k: int, queries: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        from scipy.spatial.distance import cdist

        q = pts if queries is None else queries
        n = pts.shape[0]
        D = cdist(q, pts, "sqeuclidean")
        ids = np.empty((q.shape[0], k), dtype=np.int64)
        d2 = np.empty((q.shape[0], k))
        for i in range(q.shape[0]):
            order = np.lexsort((np.arange(n), D[i]))[:k]
            ids[i] = order
            d2[i] = D[i, order]
        return d2, ids

    def _check(self, pts: np.ndarray, k: int, leaf_size: int,
               queries: np.ndarray | None = None) -> None:
        pts = np.ascontiguousarray(pts, dtype=np.float64)
        k = min(k, pts.shape[0])
        tree = KDTree.build(pts, leaf_size=leaf_size)
        dists, ids = tree.query_knn(pts if queries is None else queries, k)
        ref_d2, ref_ids = self._reference(pts, k, queries)
        assert np.array_equal(ids.astype(np.int64), ref_ids)
        assert np.array_equal(dists, np.sqrt(ref_d2))

    @pytest.mark.parametrize("leaf_size", [1, 4, 32])
    def test_heavy_duplicates(self, rng, leaf_size):
        distinct = rng.integers(0, 4, size=(6, 2)).astype(float)
        pts = distinct[rng.integers(0, 6, size=90)]
        self._check(pts, 7, leaf_size)

    @pytest.mark.parametrize("leaf_size", [2, 16])
    def test_all_points_identical(self, leaf_size):
        pts = np.full((40, 3), 2.0)
        self._check(pts, 5, leaf_size)

    @pytest.mark.parametrize("leaf_size", [3, 24])
    def test_collinear(self, rng, leaf_size):
        n = 80
        pts = np.zeros((n, 2))
        pts[:, 0] = rng.permutation(np.repeat(np.arange(n // 2), 2))
        self._check(pts, 6, leaf_size)

    @pytest.mark.parametrize("leaf_size", [1, 8])
    def test_one_dimensional(self, rng, leaf_size):
        pts = rng.integers(0, 25, size=(70, 1)).astype(float)
        self._check(pts, 9, leaf_size)

    def test_n_at_most_leaf_size(self, rng):
        # Root is the only node: pure brute force, zero traversal.
        pts = rng.integers(0, 10, size=(12, 2)).astype(float)
        tree = KDTree.build(pts, leaf_size=32)
        assert tree.n_nodes == 1
        self._check(pts, 12, 32)

    def test_ties_at_k_boundary(self):
        # A ring of equidistant points: the k-th slot is a pure id tie.
        angles = 2 * np.pi * np.arange(8) / 8
        ring = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        pts = np.round(np.concatenate([np.zeros((1, 2)), 3 * ring]) * 64) / 64
        self._check(pts, 4, 2)

    def test_negative_zero_coordinates(self):
        pts = np.array([[-0.0, 0.0], [0.0, -0.0], [1.0, 0.0],
                        [-1.0, -0.0], [0.0, 1.0], [-0.0, -1.0]])
        self._check(pts, 3, 2)

    def test_foreign_queries_outside_box_and_on_splits(self, rng):
        pts = rng.integers(0, 12, size=(150, 2)).astype(float)
        tree = KDTree.build(pts, leaf_size=6)
        internal = np.nonzero(tree.left >= 0)[0]
        # Queries sitting exactly on split planes (both routing branches
        # of ``<``), plus queries far outside the tree's bounding box.
        on_split = pts[rng.integers(0, 150, size=internal.size)].copy()
        on_split[np.arange(internal.size), tree.split_dim[internal]] = (
            tree.split_val[internal]
        )
        outside = rng.integers(-40, 52, size=(40, 2)).astype(float)
        outside[:20, 0] = rng.choice([-40.0, 60.0], size=20)
        queries = np.concatenate([on_split, outside])
        self._check(pts, 7, 6, queries)

    @pytest.mark.parametrize("k", [5, 13, 40])
    def test_k_larger_than_leaf_size(self, rng, k):
        # Leaves hold at most 4 points, so every query's home node is an
        # internal node holding at least ``k`` points.
        pts = rng.integers(0, 9, size=(120, 2)).astype(float)
        self._check(pts, k, 4)
        self._check(pts, k, 4, rng.integers(-3, 12, size=(25, 2)) * 1.0)

    @pytest.mark.parametrize("k", [2, 4, 6, 9, 12])
    def test_grid_ties_straddle_kth_column(self, k):
        # On a unit grid every point has 4 neighbors at d2 = 1, 4 at 2,
        # 4 at 4, ...: for these k the k-th column falls inside a tie run,
        # so ids alone decide which tied neighbors make the cut.
        g = np.arange(7, dtype=float)
        pts = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
        for leaf_size in (3, 8):
            self._check(pts, k, leaf_size)
            self._check(pts, k, leaf_size, pts[::-1] + 0.5)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_dimensions_one_to_six(self, rng, d):
        pts = rng.integers(0, 5, size=(160, d)).astype(float)
        self._check(pts, 8, 10)
        self._check(pts, 8, 10, rng.integers(-2, 7, size=(30, d)) * 1.0)

    @pytest.mark.parametrize("seed", [183, 1385, 1425, 1484])
    def test_scaled_grid_corner_ties(self, seed):
        # Grids with a non-integer step round their squared distances, and
        # queries and points sit on box corners.  A box bound summed in a
        # different order than ``cdist`` sums d2 can exceed an exact
        # neighbor's d2 by one ulp and prune it; these seeds hit that.
        r = np.random.default_rng(seed)
        d = int(r.integers(3, 7))
        step = r.choice([0.1, 0.3, 0.7, 1.1, 0.01])
        pts = r.integers(0, 6, size=(int(r.integers(60, 300)), d)) * step
        queries = r.integers(-3, 9, size=(40, d)) * step
        k, leaf_size = int(r.integers(1, 12)), int(r.integers(2, 20))
        self._check(pts, k, leaf_size, queries)
        self._check(pts, k, leaf_size)

    def test_row_chunked_blocks(self, rng, monkeypatch):
        # A group whose distance block would exceed BLOCK_ENTRIES runs in
        # row chunks (one duplicate-extent leaf holds every point here);
        # chunking must not change the answer.
        from repro.spatial import kernels

        monkeypatch.setattr(kernels, "BLOCK_ENTRIES", 50)
        self._check(np.full((40, 2), 3.0), 6, 4)
        self._check(rng.integers(0, 6, size=(90, 3)).astype(float), 7, 8,
                    rng.integers(-5, 11, size=(20, 3)) * 1.0)


def _one_coordinate(value):
    def poison(p):
        p = p.copy()
        p[3, 1] = value
        return p
    return poison


HOSTILE_CLOUDS = {
    "nan": _one_coordinate(np.nan),
    "inf": _one_coordinate(-np.inf),
    "huge": lambda p: p * 1e200,
    "d0": lambda p: p[:, :0],
}


class TestPointValidation:
    """Hostile point clouds fail with ``InvalidGraphError`` on every
    point-cloud entry, with debug checks on or off."""

    @pytest.mark.parametrize("debug", [True, False])
    @pytest.mark.parametrize("kind", sorted(HOSTILE_CLOUDS))
    @pytest.mark.parametrize("entry", ["hdbscan", "emst", "knn_graph"])
    def test_rejected(self, rng, entry, kind, debug):
        from repro import InvalidGraphError
        from repro.hdbscan import hdbscan
        from repro.parallel import debug_checks_set
        from repro.spatial import emst, knn_graph

        call = {
            "hdbscan": lambda p: hdbscan(p, mpts=3),
            "emst": lambda p: emst(p, mpts=3),
            "knn_graph": lambda p: knn_graph(p, 3),
        }[entry]
        pts = HOSTILE_CLOUDS[kind](rng.normal(size=(200, 2)))
        with debug_checks_set(debug), pytest.raises(InvalidGraphError):
            call(pts)

    def test_single_point_cloud_validated(self):
        from repro import InvalidGraphError
        from repro.spatial import emst

        with pytest.raises(InvalidGraphError):
            emst(np.array([[np.nan, 0.0]]))

    def test_largest_safe_scale_accepted(self, rng):
        # Just inside the limit the kernels must still agree with brute
        # force: no squared distance reaches inf.
        d = 2
        limit = np.sqrt(np.finfo(np.float64).max / (4 * d))
        pts = rng.uniform(-1.0, 1.0, size=(60, d)) * limit
        tree = KDTree.build(pts, leaf_size=8)
        dists, ids = tree.query_knn(pts, 4)
        assert np.isfinite(dists).all()
        ref_d2, ref_ids = TestAdversarialKNN._reference(pts, 4)
        assert np.array_equal(ids.astype(np.int64), ref_ids)

    def test_foreign_queries_validated(self, rng):
        from repro import InvalidGraphError

        tree = KDTree.build(rng.normal(size=(50, 2)))
        for bad in (np.array([[np.inf, 0.0]]), np.array([[1e300, 0.0]])):
            with pytest.raises(InvalidGraphError):
                tree.query_knn(bad, 2)
