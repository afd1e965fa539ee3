"""Connected-components (hook + shortcut) tests."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import UnionFind, components_of_forest, connected_components


def _ref_components(n: int, edges: np.ndarray) -> np.ndarray:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(map(tuple, edges))
    labels = np.zeros(n, dtype=np.int64)
    for comp in nx.connected_components(g):
        rep = min(comp)
        for x in comp:
            labels[x] = rep
    return labels


class TestConnectedComponents:
    def test_no_edges(self):
        out = connected_components(4, np.zeros((0, 2), dtype=np.int64))
        assert np.array_equal(out, np.arange(4))

    def test_single_edge(self):
        out = connected_components(3, np.array([[1, 2]]))
        assert np.array_equal(out, [0, 1, 1])

    def test_path_graph(self):
        edges = np.stack([np.arange(9), np.arange(1, 10)], axis=1)
        out = connected_components(10, edges)
        assert (out == 0).all()

    def test_star_graph(self):
        edges = np.stack([np.zeros(9, dtype=np.int64), np.arange(1, 10)], axis=1)
        out = connected_components(10, edges)
        assert (out == 0).all()

    def test_self_loops_allowed(self):
        out = connected_components(3, np.array([[1, 1], [0, 2]]))
        assert out[0] == out[2]
        assert out[1] == 1

    def test_duplicate_edges(self):
        out = connected_components(3, np.array([[0, 1], [1, 0], [0, 1]]))
        assert out[0] == out[1]

    def test_representative_is_min_vertex(self):
        out = connected_components(5, np.array([[4, 2], [2, 3]]))
        assert out[4] == out[2] == out[3] == 2

    def test_chain_representative_is_minimum(self):
        out = connected_components(5, np.array([[4, 3], [3, 2]]))
        assert out[4] == out[3] == out[2] == 2

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            connected_components(3, np.array([[0, 5]]))

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            connected_components(3, np.array([0, 1, 2]).reshape(1, 3))

    def test_matches_networkx_random(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 80))
            m = int(rng.integers(0, 120))
            edges = rng.integers(0, n, size=(m, 2))
            ours = connected_components(n, edges)
            ref = _ref_components(n, edges)
            assert np.array_equal(ours, ref)

    def test_matches_sequential_union_find(self, rng):
        """Random multigraphs, self-loops and duplicate edges included:
        labels equal the scalar union-find's partition, each vertex labeled
        by its component's minimum member."""
        for _ in range(25):
            n = int(rng.integers(1, 60))
            m = int(rng.integers(0, 100))
            edges = rng.integers(0, n, size=(m, 2))
            loops = np.repeat(rng.integers(0, n, size=(3, 1)), 2, axis=1)
            edges = np.concatenate([edges, loops, edges[: m // 4]])
            seq = UnionFind(n)
            for a, b in edges:
                seq.union(int(a), int(b))
            roots = seq.labels()
            min_member = np.full(n, n, dtype=np.int64)
            np.minimum.at(min_member, roots, np.arange(n))
            assert np.array_equal(
                connected_components(n, edges), min_member[roots]
            )

    @given(
        n=st.integers(1, 50),
        edges=st.lists(
            st.tuples(st.integers(0, 49), st.integers(0, 49)), max_size=80
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_matches_networkx(self, n, edges):
        e = np.array([(a % n, b % n) for a, b in edges], dtype=np.int64).reshape(
            -1, 2
        )
        ours = connected_components(n, e)
        assert np.array_equal(ours, _ref_components(n, e))


class TestComponentsOfForest:
    def test_relabels_compactly(self):
        labels, k = components_of_forest(5, np.array([[3, 4]]))
        assert k == 4
        assert labels.max() == 3
        assert labels[3] == labels[4]

    def test_empty(self):
        labels, k = components_of_forest(3, np.zeros((0, 2), dtype=np.int64))
        assert k == 3
        assert np.array_equal(labels, [0, 1, 2])
