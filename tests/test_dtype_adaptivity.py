"""Dtype adaptivity: int32 and int64 paths must be bit-identical.

The hot path runs every index array in int32 whenever
``n_edges + n_vertices < 2**31`` (halving memory traffic) and in int64
otherwise.  Because every PANDORA step is order/structure-based (stable
sorts, scatters of distinct indices, label-invariant classifications), the
dendrogram parent array must not depend on the internal index width -- these
tests pin that down across random MSTs, the threshold boundary, and the
single-level ablation.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backend_fixtures import backend_params
from repro import dendrogram_bottomup, dendrogram_single_level, pandora
from repro.core.contraction import contract_multilevel
from repro.parallel import hotpath, use_backend
from repro.structures.edgelist import sort_edges_descending
from repro.structures.tree import random_spanning_tree


@pytest.fixture(scope="module", params=backend_params(), autouse=True)
def _active_backend(request):
    """Run the dtype property suite once per registered backend: the
    int32/int64 bit-identity guarantee is part of the backend contract."""
    with use_backend(request.param):
        yield request.param


@st.composite
def weighted_trees(draw, max_vertices: int = 64):
    """Random weighted spanning trees with possibly-tied integer weights."""
    n = draw(st.integers(2, max_vertices))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    u = np.array(parents, dtype=np.int64)
    v = np.arange(1, n, dtype=np.int64)
    w = np.array(
        draw(st.lists(st.integers(0, 12), min_size=n - 1, max_size=n - 1)),
        dtype=np.float64,
    )
    return u, v, w


@given(weighted_trees())
@settings(max_examples=100, deadline=None)
def test_parents_bit_identical_across_dtypes(tree):
    u, v, w = tree
    got32, _ = pandora(u, v, w)
    with hotpath(int32_limit=0):
        got64, _ = pandora(u, v, w)
    assert got32.parent.dtype == np.int64  # public boundary stays int64
    assert got64.parent.dtype == np.int64
    assert np.array_equal(got32.parent, got64.parent)


@given(weighted_trees(max_vertices=40))
@settings(max_examples=50, deadline=None)
def test_single_level_ablation_bit_identical(tree):
    u, v, w = tree
    got32, _ = dendrogram_single_level(u, v, w)
    with hotpath(int32_limit=0):
        got64, _ = dendrogram_single_level(u, v, w)
    assert np.array_equal(got32.parent, got64.parent)


def test_internal_dtype_is_int32_below_threshold(rng):
    u, v, w = random_spanning_tree(100, rng, skew=0.2)
    e = sort_edges_descending(u, v, w)
    assert e.index_dtype == np.int32
    levels = contract_multilevel(e.u, e.v, e.n_vertices)
    for lv in levels:
        assert lv.idx.dtype == np.int32
        assert lv.max_inc.dtype == np.int32
        if lv.vmap is not None:
            assert lv.vmap.dtype == np.int32


def test_internal_dtype_is_int64_when_disabled(rng):
    u, v, w = random_spanning_tree(100, rng, skew=0.2)
    with hotpath(int32_limit=0):
        e = sort_edges_descending(u, v, w)
        assert e.index_dtype == np.int64
        levels = contract_multilevel(e.u, e.v, e.n_vertices)
    for lv in levels:
        assert lv.idx.dtype == np.int64
        if lv.vmap is not None:
            assert lv.vmap.dtype == np.int64


def test_threshold_boundary_switches_dtype(rng):
    """The rule is strict: int32 iff n_edges + n_vertices < limit."""
    n_vertices = 50
    u, v, w = random_spanning_tree(n_vertices, rng, skew=0.5)
    total = (n_vertices - 1) + n_vertices
    with hotpath(int32_limit=total + 1):
        below = sort_edges_descending(u, v, w)
        assert below.index_dtype == np.int32
        p_below, _ = pandora(u, v, w)
    with hotpath(int32_limit=total):
        at = sort_edges_descending(u, v, w)
        assert at.index_dtype == np.int64
        p_at, _ = pandora(u, v, w)
    assert np.array_equal(p_below.parent, p_at.parent)


def test_mixed_config_dtype_boundary(rng):
    """A limit between n_vertices and n_edges + n_vertices must not crash
    or change output: every level array, vmap included, follows the
    hierarchy's dtype (regression: vmap/pool dtype mismatch in pooled
    expansion)."""
    n_vertices = 60
    u, v, w = random_spanning_tree(n_vertices, rng, skew=0.4)
    ref, _ = pandora(u, v, w)
    with hotpath(int32_limit=100):
        mixed, _ = pandora(u, v, w)
    assert np.array_equal(mixed.parent, ref.parent)


def test_boundary_sizes_match_oracle(rng):
    """Tiny and power-of-two-straddling sizes, both dtypes, vs the oracle."""
    for n in (2, 3, 4, 31, 32, 33, 63, 64, 65):
        u, v, w = random_spanning_tree(n, rng, skew=0.3)
        ref = dendrogram_bottomup(u, v, w).parent
        got32, _ = pandora(u, v, w)
        with hotpath(int32_limit=0):
            got64, _ = pandora(u, v, w)
        assert np.array_equal(got32.parent, ref)
        assert np.array_equal(got64.parent, ref)


def test_spatial_pipeline_bit_identical_across_dtypes(rng):
    """The spatial front-end follows the same rule: tree indices and
    ``KNNArtifact.ids`` are int32 below the threshold, int64 with
    ``int32_limit=0``, and every *value* (distances, neighbor identities,
    EMST edges) is bit-identical either way."""
    from repro.spatial import KDTree, emst, knn_graph

    pts = rng.random((300, 2))
    pts[:40] = pts[0]  # duplicate block keeps the adversarial shape

    tree32 = KDTree.build(pts, leaf_size=16)
    art32 = knn_graph(pts, 8, leaf_size=16)
    mst32 = emst(pts, mpts=4, knn=art32)
    with hotpath(int32_limit=0):
        tree64 = KDTree.build(pts, leaf_size=16)
        art64 = knn_graph(pts, 8, leaf_size=16)
        mst64 = emst(pts, mpts=4, knn=art64)

    assert tree32.indices.dtype == np.int32
    assert tree64.indices.dtype == np.int64
    assert art32.ids.dtype == np.int32
    assert art64.ids.dtype == np.int64
    assert np.array_equal(tree32.indices, tree64.indices)
    assert np.array_equal(art32.dists, art64.dists)
    assert np.array_equal(art32.ids, art64.ids)  # values, not storage width
    for field in ("u", "v", "w", "core"):
        assert np.array_equal(getattr(mst32, field), getattr(mst64, field))
    assert mst32.u.dtype == mst64.u.dtype == np.int64  # public boundary


def test_mst_pipeline_bit_identical_across_dtypes(rng):
    """End-to-end on a real (Kruskal) MST rather than a synthetic tree."""
    from repro.mst.kruskal import mst_kruskal

    n = 120
    pts = rng.random((n, 2))
    iu, iv = np.triu_indices(n, k=1)
    d = np.sqrt(((pts[iu] - pts[iv]) ** 2).sum(axis=1))
    u, v, w = mst_kruskal(n, iu, iv, d)
    got32, _ = pandora(u, v, w)
    with hotpath(int32_limit=0):
        got64, _ = pandora(u, v, w)
    assert np.array_equal(got32.parent, got64.parent)
