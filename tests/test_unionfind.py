"""Sequential union-find tests (the bulk counterpart is
``connected_components``, tested in ``test_connected.py``)."""

from __future__ import annotations

import pytest

from repro.parallel import UnionFind


class TestSequentialUnionFind:
    def test_initial_singletons(self):
        uf = UnionFind(5)
        assert uf.n_components == 5
        assert all(uf.find(i) == i for i in range(5))

    def test_union_merges(self):
        uf = UnionFind(4)
        uf.union(0, 1)
        assert uf.connected(0, 1)
        assert not uf.connected(0, 2)
        assert uf.n_components == 3

    def test_union_idempotent(self):
        uf = UnionFind(3)
        uf.union(0, 1)
        uf.union(1, 0)
        assert uf.n_components == 2

    def test_transitive(self):
        uf = UnionFind(5)
        uf.union(0, 1)
        uf.union(1, 2)
        uf.union(3, 4)
        assert uf.connected(0, 2)
        assert not uf.connected(2, 3)

    def test_component_sizes(self):
        uf = UnionFind(5)
        uf.union(0, 1)
        uf.union(0, 2)
        sizes = sorted(uf.component_sizes().values())
        assert sizes == [1, 1, 3]

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            UnionFind(-1)

    def test_labels_consistent(self):
        uf = UnionFind(6)
        uf.union(1, 4)
        uf.union(2, 5)
        labels = uf.labels()
        assert labels[1] == labels[4]
        assert labels[2] == labels[5]
        assert labels[1] != labels[2]
