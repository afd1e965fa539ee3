"""PANDORA end-to-end correctness: exact equality with the bottom-up oracle.

The canonical edge order makes the dendrogram unique, so these tests demand
*parent-array equality*, not just isomorphism.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    dendrogram_bottomup,
    dendrogram_single_level,
    pandora,
)
from repro.core.pandora import pandora_parents
from repro.parallel import CostModel, tracking
from repro.structures.edgelist import sort_edges_descending
from repro.structures.tree import random_spanning_tree


class TestPandoraVsOracle:
    def test_random_trees(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 120))
            u, v, w = random_spanning_tree(n, rng, skew=float(rng.random()))
            ref = dendrogram_bottomup(u, v, w)
            got, stats = pandora(u, v, w)
            assert np.array_equal(got.parent, ref.parent)
            got.validate()

    def test_path_graph_descending(self):
        """Fully skewed chain: weights descending along a path."""
        n = 50
        u = np.arange(n)
        v = np.arange(1, n + 1)
        w = np.arange(n, 0, -1).astype(float)
        ref = dendrogram_bottomup(u, v, w)
        got, _ = pandora(u, v, w)
        assert np.array_equal(got.parent, ref.parent)

    def test_path_graph_alternating(self):
        """Zigzag weights on a path maximize alpha edges."""
        n = 51
        u = np.arange(n)
        v = np.arange(1, n + 1)
        w = np.where(np.arange(n) % 2 == 0, np.arange(n) + 100.0,
                     np.arange(n) + 1.0)
        ref = dendrogram_bottomup(u, v, w)
        got, _ = pandora(u, v, w)
        assert np.array_equal(got.parent, ref.parent)

    def test_star_graph(self, rng):
        n = 40
        u = np.zeros(n, dtype=np.int64)
        v = np.arange(1, n + 1)
        w = rng.permutation(n).astype(float)
        ref = dendrogram_bottomup(u, v, w)
        got, stats = pandora(u, v, w)
        assert np.array_equal(got.parent, ref.parent)
        # star: no alpha edges, single level, single chain
        assert stats.n_levels == 1
        assert stats.n_root_chain == n

    def test_binary_balanced_tree(self):
        """Complete binary tree with level-ordered weights."""
        edges = []
        for i in range(1, 63):
            edges.append(((i - 1) // 2, i))
        u, v = map(np.array, zip(*edges))
        w = np.arange(len(edges), 0, -1).astype(float)
        ref = dendrogram_bottomup(u, v, w)
        got, _ = pandora(u, v, w)
        assert np.array_equal(got.parent, ref.parent)

    def test_caterpillar(self, rng):
        """Spine with pendant leaves: chain-heavy, moderate alpha count."""
        spine = 20
        u, v, w = [], [], []
        next_id = spine + 1
        for i in range(spine):
            u.append(i)
            v.append(i + 1)
        for i in range(spine):
            u.append(i)
            v.append(next_id)
            next_id += 1
        w = rng.permutation(len(u)).astype(float)
        ref = dendrogram_bottomup(u, v, w)
        got, _ = pandora(u, v, w)
        assert np.array_equal(got.parent, ref.parent)

    def test_duplicate_weights(self, rng):
        """Ties are resolved by input id: result must still match oracle."""
        for _ in range(20):
            n = int(rng.integers(2, 60))
            u, v, _ = random_spanning_tree(n, rng)
            w = rng.integers(0, 4, size=n - 1).astype(float)  # heavy ties
            ref = dendrogram_bottomup(u, v, w)
            got, _ = pandora(u, v, w)
            assert np.array_equal(got.parent, ref.parent)

    def test_all_equal_weights(self, rng):
        n = 30
        u, v, _ = random_spanning_tree(n, rng)
        w = np.ones(n - 1)
        ref = dendrogram_bottomup(u, v, w)
        got, _ = pandora(u, v, w)
        assert np.array_equal(got.parent, ref.parent)

    def test_two_vertices(self):
        ref = dendrogram_bottomup([0], [1], [1.0])
        got, _ = pandora([0], [1], [1.0])
        assert np.array_equal(got.parent, ref.parent)

    def test_single_vertex(self):
        got, stats = pandora([], [], [], n_vertices=1)
        assert got.n_edges == 0
        got.validate()


class TestPandoraStats:
    def test_bounds_check_passes(self, rng):
        for _ in range(10):
            u, v, w = random_spanning_tree(int(rng.integers(2, 100)), rng)
            _, stats = pandora(u, v, w)
            stats.check_bounds()

    def test_phase_times_present(self, rng):
        u, v, w = random_spanning_tree(50, rng)
        _, stats = pandora(u, v, w)
        assert set(stats.phase_seconds) == {"sort", "contraction", "expansion"}
        assert stats.total_seconds > 0

    def test_level_sizes_recorded(self, rng):
        u, v, w = random_spanning_tree(80, rng)
        _, stats = pandora(u, v, w)
        assert stats.level_sizes[0] == 79
        assert len(stats.level_sizes) == stats.n_levels

    def test_cost_model_capture(self, rng):
        u, v, w = random_spanning_tree(60, rng)
        model = CostModel()
        with tracking(model):
            pandora(u, v, w)
        assert model.kernel_count() > 0
        assert set(model.phases()) == {"sort", "contraction", "expansion"}


class TestPandoraParents:
    def test_matches_driver(self, rng):
        u, v, w = random_spanning_tree(40, rng)
        e = sort_edges_descending(u, v, w)
        parents = pandora_parents(e.u, e.v, e.n_vertices)
        d, _ = pandora(u, v, w)
        assert np.array_equal(parents, d.parent)


class TestSingleLevelAblation:
    def test_matches_oracle(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 100))
            u, v, w = random_spanning_tree(n, rng, skew=float(rng.random()))
            ref = dendrogram_bottomup(u, v, w)
            got, _ = dendrogram_single_level(u, v, w)
            assert np.array_equal(got.parent, ref.parent)

    def test_star(self, rng):
        n = 20
        u = np.zeros(n, dtype=np.int64)
        v = np.arange(1, n + 1)
        w = rng.permutation(n).astype(float)
        ref = dendrogram_bottomup(u, v, w)
        got, stats = dendrogram_single_level(u, v, w)
        assert np.array_equal(got.parent, ref.parent)
        assert stats.n_levels == 1

    def test_duplicate_weights(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 50))
            u, v, _ = random_spanning_tree(n, rng)
            w = rng.integers(0, 3, size=n - 1).astype(float)
            ref = dendrogram_bottomup(u, v, w)
            got, _ = dendrogram_single_level(u, v, w)
            assert np.array_equal(got.parent, ref.parent)


class TestLargerScale:
    @pytest.mark.parametrize("n,skew", [(5000, 0.0), (5000, 0.9), (20000, 0.5)])
    def test_medium_trees(self, rng, n, skew):
        u, v, w = random_spanning_tree(n, rng, skew=skew)
        ref = dendrogram_bottomup(u, v, w)
        got, stats = pandora(u, v, w)
        assert np.array_equal(got.parent, ref.parent)
        stats.check_bounds()
