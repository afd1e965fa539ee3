"""Failure injection: invalid inputs must fail loudly, not corrupt results."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Engine, dendrogram_bottomup, pandora
from repro.core.contraction import contract_multilevel
from repro.hdbscan import hdbscan
from repro.parallel import debug_checks_set
from repro.spatial import KDTree, emst
from repro.structures.edgelist import InvalidGraphError, sort_edges_descending


class TestEdgeInputValidation:
    def test_nan_weight_rejected(self):
        with pytest.raises(InvalidGraphError, match="NaN"):
            pandora([0], [1], [float("nan")])

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidGraphError, match="self-loop"):
            pandora([1], [1], [1.0])

    def test_negative_vertex_rejected(self):
        with pytest.raises(InvalidGraphError):
            pandora([-1], [0], [1.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidGraphError):
            pandora([0, 1], [1], [1.0])

    def test_invalid_graph_error_is_value_error(self):
        """Backwards compatibility: existing ValueError handlers keep
        working, and the resilience layer classifies it permanent."""
        assert issubclass(InvalidGraphError, ValueError)
        assert InvalidGraphError.transient is False

    def test_infinite_weights_allowed(self):
        """inf is a valid (if odd) weight; ordering still works."""
        d, _ = pandora([0, 1], [1, 2], [np.inf, 1.0])
        d.validate()
        assert d.edges.w[0] == np.inf


class TestNonTreeInputs:
    TRIANGLE = ([0, 1, 2], [1, 2, 0], [3.0, 2.0, 1.0])

    def test_cycle_input_detected(self):
        """A cycle must make PANDORA itself raise, not mis-build --
        normalized to InvalidGraphError wherever it surfaces."""
        # triangle: 3 edges on 3 vertices
        with pytest.raises(InvalidGraphError, match="cycle"):
            pandora(*self.TRIANGLE)

    def test_cycle_detected_without_debug_checks(self):
        """The edge-count check is always on: benchmark mode still rejects
        more edges than a tree on n_vertices can have."""
        with debug_checks_set(False), pytest.raises(InvalidGraphError):
            pandora(*self.TRIANGLE)

    @pytest.mark.parametrize("n_vertices", [None, 4])
    def test_engine_fit_rejects_cycle(self, n_vertices):
        """With an isolated fourth vertex the edge count fits a tree; the
        debug check on the contracted alpha-edges catches the cycle."""
        with pytest.raises(InvalidGraphError, match="cycle"):
            Engine().fit(*self.TRIANGLE, n_vertices=n_vertices)

    def test_forest_input_not_silently_wrong(self):
        """Two components: PANDORA either raises the normalized error or
        produces parents that fail validation (the dendrogram of a forest
        is not a single tree)."""
        try:
            d, _ = pandora([0, 2], [1, 3], [2.0, 1.0])
            with pytest.raises(ValueError):
                d.validate()
        except InvalidGraphError:
            pass  # early detection is equally acceptable

    def test_contract_multilevel_terminates_on_parallel_edges(self):
        """Malformed (non-tree) input must terminate, never loop: the
        recursion's halving guard bounds the level count regardless."""
        e = sort_edges_descending([0, 0, 1], [1, 1, 2], [3.0, 2.0, 1.0])
        try:
            levels = contract_multilevel(e.u, e.v, e.n_vertices)
            assert len(levels) <= 4
        except InvalidGraphError:
            pass  # the alpha-bound guard firing is equally acceptable


class TestSpatialValidation:
    def test_points_wrong_ndim(self):
        with pytest.raises(ValueError):
            emst(np.zeros(5))

    def test_hdbscan_wrong_shape(self):
        with pytest.raises(ValueError):
            hdbscan(np.zeros((2, 2, 2)))

    def test_kdtree_query_wrong_dim(self, rng):
        tree = KDTree.build(rng.normal(size=(20, 3)))
        with pytest.raises(ValueError):
            tree.query_knn(rng.normal(size=(5, 2)), 2)

    def test_hdbscan_needs_enough_points_for_mpts(self, rng):
        """mpts > n clamps rather than crashing (kNN clamps k)."""
        res = hdbscan(rng.normal(size=(5, 2)), mpts=10, min_cluster_size=2)
        assert res.labels.shape == (5,)


class TestDegenerateGeometry:
    def test_all_points_identical(self):
        pts = np.ones((30, 2))
        res = emst(pts)
        assert np.allclose(res.w, 0.0)
        d, _ = pandora(res.u, res.v, res.w, 30)
        d.validate()

    def test_two_distinct_locations(self, rng):
        pts = np.concatenate([np.zeros((10, 2)), np.ones((10, 2))])
        res = emst(pts)
        d, _ = pandora(res.u, res.v, res.w, 20)
        labels = d.cut(0.5)
        assert len(np.unique(labels)) == 2

    def test_collinear_hdbscan(self, rng):
        pts = np.stack([np.arange(60.0), np.zeros(60)], axis=1)
        res = hdbscan(pts, mpts=2, min_cluster_size=5)
        assert res.labels.shape == (60,)

    def test_extreme_scale_points(self, rng):
        pts = rng.normal(size=(50, 2)) * 1e12
        res = emst(pts)
        ref = dendrogram_bottomup(res.u, res.v, res.w, 50)
        got, _ = pandora(res.u, res.v, res.w, 50)
        assert np.array_equal(got.parent, ref.parent)

    def test_tiny_scale_points(self, rng):
        pts = rng.normal(size=(50, 2)) * 1e-12
        res = emst(pts)
        got, _ = pandora(res.u, res.v, res.w, 50)
        got.validate()
