"""Workspace reuse, the int32 threshold, and fast-path equivalence."""

from __future__ import annotations

import numpy as np
import pytest

from repro import pandora
from repro.core.contraction import contract_multilevel
from repro.core.expansion import ChainAssignment, assign_chains
from repro.parallel import (
    Workspace,
    components_of_forest,
    compress_labels,
    connected_components,
    debug_checks,
    debug_checks_set,
    hotpath,
    index_dtype,
    resolve_pointer_forest,
    scoped_workspace,
    workspace,
)
from repro.parallel.workspace import INT32_LIMIT
from repro.structures.edgelist import sort_edges_descending
from repro.structures.tree import random_spanning_tree


class TestWorkspace:
    def test_take_shape_and_dtype(self):
        ws = Workspace()
        buf = ws.take("x", 10, np.int32)
        assert buf.shape == (10,) and buf.dtype == np.int32

    def test_reuse_is_a_hit(self):
        ws = Workspace()
        a = ws.take("x", 100, np.int64)
        b = ws.take("x", 50, np.int64)
        assert ws.misses == 1 and ws.hits == 1
        # Same backing allocation: writing through one is visible in the other.
        a[:50] = 7
        assert (b == 7).all()

    def test_growth_reallocates(self):
        ws = Workspace()
        ws.take("x", 10, np.int64)
        ws.take("x", 1000, np.int64)
        assert ws.misses == 2

    def test_distinct_names_and_dtypes_do_not_alias(self):
        ws = Workspace()
        a = ws.take("a", 8, np.int64)
        b = ws.take("b", 8, np.int64)
        c = ws.take("a", 8, np.int32)
        a[:] = 1
        b[:] = 2
        c[:] = 3
        assert (a == 1).all() and (b == 2).all() and (c == 3).all()
        assert ws.n_buffers == 3

    def test_clear_releases(self):
        ws = Workspace()
        ws.take("x", 10, np.int64)
        ws.clear()
        assert ws.n_buffers == 0

    def test_scoped_workspace_isolates_default(self):
        outer = workspace()
        with scoped_workspace() as ws:
            assert workspace() is ws
            assert ws is not outer
            ws.take("scoped", 4, np.int64)
        assert workspace() is outer

    def test_hot_path_reuses_buffers_across_runs(self, rng):
        """Second identical-size run should allocate nothing new."""
        u, v, w = random_spanning_tree(500, rng, skew=0.4)
        with scoped_workspace() as ws:
            pandora(u, v, w)
            misses_first = ws.misses
            pandora(u, v, w)
            assert ws.misses == misses_first


class TestHotpath:
    def test_default_int32_limit(self):
        assert index_dtype(INT32_LIMIT - 1) == np.int32
        assert index_dtype(INT32_LIMIT) == np.int64

    def test_override_restores(self):
        with hotpath(int32_limit=0):
            assert index_dtype(1) == np.int64
            with hotpath(int32_limit=10):
                assert index_dtype(9) == np.int32
            assert index_dtype(9) == np.int64
        assert index_dtype(1) == np.int32


class TestDebugChecks:
    def test_default_on_and_context_restores(self):
        assert debug_checks()
        with debug_checks_set(False):
            assert not debug_checks()
        assert debug_checks()

    def test_range_check_is_gated(self):
        bad = np.array([[0, 5]])
        with pytest.raises(ValueError):
            connected_components(3, bad)


class TestPointerForest:
    def test_resolve_chain(self):
        # 0 <- 1 <- 2 <- 3 and root 4
        ptr = np.array([0, 0, 1, 2, 4])
        out = resolve_pointer_forest(ptr.copy())
        assert np.array_equal(out, [0, 0, 0, 0, 4])

    def test_resolve_empty(self):
        out = resolve_pointer_forest(np.zeros(0, dtype=np.int64))
        assert out.size == 0

    def test_components_of_forest_pointer_path(self):
        ptr = np.array([0, 0, 1, 3, 3])
        labels, k = compress_labels(resolve_pointer_forest(ptr.copy()))
        assert k == 2
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4]
        assert labels[0] != labels[3]


def _partition_key(labels: np.ndarray) -> np.ndarray:
    """Canonical form of a labeling: first-occurrence order relabeling."""
    _, first = np.unique(labels, return_index=True)
    rank = {labels[i]: r for r, i in enumerate(sorted(first))}
    return np.array([rank[x] for x in labels])


class TestFastComponentsEquivalence:
    def test_vmaps_induce_same_partition(self, rng):
        """The maxIncident-pointer labeling groups each level's vertices
        exactly like generic hook-and-shortcut CC over the level's non-alpha
        edges.  The two number components differently, so the comparison
        canonicalizes both partitions first."""
        for trial in range(20):
            n = int(rng.integers(3, 150))
            u, v, w = random_spanning_tree(n, rng, skew=float(rng.random()))
            e = sort_edges_descending(u, v, w)
            for lv in contract_multilevel(e.u, e.v, e.n_vertices):
                if lv.vmap is None:
                    continue
                non_alpha = ~lv.alpha
                ref, k = components_of_forest(
                    lv.n_vertices,
                    np.stack([lv.u[non_alpha], lv.v[non_alpha]], axis=1),
                )
                assert int(lv.vmap.max()) + 1 == k
                assert np.array_equal(
                    _partition_key(lv.vmap), _partition_key(ref)
                )


def _assign_chains_concat(levels) -> ChainAssignment:
    """Oracle for ``assign_chains``: the same level scan with the pool grown
    by per-level concatenation and rows found by binary search."""
    n = levels[0].n_edges
    anchor = np.full(n, -1, dtype=np.int64)
    side = np.zeros(n, dtype=np.int8)
    assigned_level = np.full(n, -1, dtype=np.int16)
    pool_idx = np.empty(0, dtype=np.int64)
    pool_vert = np.empty(0, dtype=np.int64)
    for li, level in enumerate(levels):
        if pool_idx.size:
            a = level.max_inc[pool_vert]
            hit = (a >= 0) & (pool_idx > a)
            rows = np.searchsorted(level.idx, a[hit])
            anchor[pool_idx[hit]] = a[hit]
            side[pool_idx[hit]] = level.v[rows] == pool_vert[hit]
            assigned_level[pool_idx[hit]] = li
            pool_idx = pool_idx[~hit]
            pool_vert = pool_vert[~hit]
        if level.vmap is None:
            break
        non_alpha = ~level.alpha
        pool_idx = np.concatenate([pool_idx, level.idx[non_alpha]])
        pool_vert = np.concatenate(
            [level.vmap[pool_vert], level.vmap[level.u[non_alpha]]]
        )
    return ChainAssignment(anchor=anchor, side=side, level=assigned_level)


class TestPooledExpansionEquivalence:
    def test_assignments_identical(self, rng):
        for trial in range(20):
            n = int(rng.integers(2, 200))
            u, v, w = random_spanning_tree(n, rng, skew=float(rng.random()))
            e = sort_edges_descending(u, v, w)
            levels = contract_multilevel(e.u, e.v, e.n_vertices)
            pooled = assign_chains(levels)
            concat = _assign_chains_concat(levels)
            assert np.array_equal(pooled.anchor, concat.anchor)
            assert np.array_equal(pooled.side, concat.side)
            assert np.array_equal(pooled.level, concat.level)


class TestRowLookup:
    def test_lookup_matches_searchsorted(self, rng):
        u, v, w = random_spanning_tree(80, rng, skew=0.3)
        e = sort_edges_descending(u, v, w)
        levels = contract_multilevel(e.u, e.v, e.n_vertices)
        for lv in levels:
            assert lv.row_lookup is not None
            rows = lv.row_of(lv.idx)
            assert np.array_equal(rows, np.arange(lv.n_edges))
            # spot-check arbitrary subsets against the binary-search answer
            if lv.n_edges > 1:
                sub = lv.idx[:: max(lv.n_edges // 3, 1)]
                assert np.array_equal(
                    lv.row_of(sub), np.searchsorted(lv.idx, sub)
                )

    def test_lookup_rejects_absent_index_in_debug(self, rng):
        u, v, w = random_spanning_tree(60, rng, skew=0.0)
        e = sort_edges_descending(u, v, w)
        levels = contract_multilevel(e.u, e.v, e.n_vertices)
        if len(levels) < 2:
            pytest.skip("tree contracted in one level")
        lv = levels[1]
        absent = np.setdiff1d(levels[0].idx[: int(lv.idx[-1]) + 1], lv.idx)
        if absent.size == 0:
            pytest.skip("no absent index below the level's max")
        with pytest.raises(ValueError):
            lv.row_of(absent[:1])
