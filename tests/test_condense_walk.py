"""HDBSCAN* extraction against the top-down walk it replaced.

``condense_tree`` derives the condensed tree from local rules and pointer
doubling; ``select_clusters`` and ``extract_labels`` resolve their
nearest-selected-ancestor queries the same way.  The sequential walk below
is the reference those rules must reproduce bit for bit: every
``CondensedTree`` array (values and dtypes, cluster numbering included),
every selection mask, every label and probability.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backend_fixtures import backend_params
from repro import dendrogram_bottomup
from repro.hdbscan import condense_tree, extract_labels, select_clusters
from repro.hdbscan.condensed import CondensedTree
from repro.parallel import use_backend

TREE_FIELDS = ("cluster_parent", "birth_lambda", "death_lambda",
               "cluster_size", "point_cluster", "point_lambda")


def walk_condense(dendrogram, m: int) -> CondensedTree:
    """Top-down condensation: follow each cluster down its big side,
    enumerating the small side's points as they fall out; a split with two
    big sides ends the cluster and pushes two children (smaller node
    first, so the larger is explored next)."""
    n, nv = dendrogram.n_edges, dendrogram.n_vertices
    point_cluster = np.zeros(nv, dtype=np.int64)
    point_lambda = np.zeros(nv)
    if n == 0:
        return CondensedTree(nv, m, np.array([-1], dtype=np.int64),
                             np.zeros(1), np.zeros(1),
                             np.array([nv], dtype=np.int64),
                             point_cluster, point_lambda)
    w = dendrogram.edges.w
    with np.errstate(divide="ignore"):
        lam = np.where(w > 0, 1.0 / w, np.inf)
    children = dendrogram.children_lists()  # ascending node ids
    sizes = dendrogram.subtree_sizes()

    def size_of(x):
        return int(sizes[x]) if x < n else 1

    def fall_out(x, c, lam_c):
        stack = [x]
        while stack:
            y = stack.pop()
            if y >= n:
                point_cluster[y - n], point_lambda[y - n] = c, lam_c
            else:
                stack.extend(children[y])

    parent, birth, death, size = [-1], [0.0], [0.0], [nv]
    queue = [(0, 0)]
    while queue:
        cur, c = queue.pop()
        while True:
            lam_c = float(lam[cur])
            a, b = children[cur]
            sa, sb = size_of(a), size_of(b)
            if sa >= m and sb >= m:
                death[c] = lam_c
                for ch, s in ((a, sa), (b, sb)):
                    queue.append((ch, len(parent)))
                    parent.append(c)
                    birth.append(lam_c)
                    death.append(lam_c)
                    size.append(s)
                break
            if sa >= m or sb >= m:
                small, cur = (b, a) if sa >= m else (a, b)
                fall_out(small, c, lam_c)
                continue
            fall_out(a, c, lam_c)
            fall_out(b, c, lam_c)
            death[c] = lam_c
            break
    return CondensedTree(nv, m, np.asarray(parent, dtype=np.int64),
                         np.asarray(birth), np.asarray(death),
                         np.asarray(size, dtype=np.int64),
                         point_cluster, point_lambda)


def walk_select(tree: CondensedTree, allow_single_cluster: bool) -> np.ndarray:
    """Bottom-up excess-of-mass choice, then a top-down sweep dropping every
    cluster below a selected one (parents have smaller ids)."""
    ncl, parent, stab = tree.n_clusters, tree.cluster_parent, tree.stabilities()
    is_leaf = np.ones(ncl, dtype=bool)
    is_leaf[parent[parent >= 0]] = False
    selected = np.zeros(ncl, dtype=bool)
    child_sum = np.zeros(ncl)
    for c in range(ncl - 1, -1, -1):
        selected[c] = is_leaf[c] or stab[c] >= child_sum[c]
        if parent[c] >= 0:
            child_sum[parent[c]] += stab[c] if selected[c] else child_sum[c]
    if not allow_single_cluster:
        selected[0] = False
    below = np.zeros(ncl, dtype=bool)
    for c in range(1, ncl):
        below[c] = below[parent[c]] or selected[parent[c]]
    return selected & ~below


def walk_owner(tree: CondensedTree, selected: np.ndarray) -> np.ndarray:
    """Each cluster's lowest selected ancestor-or-self, -1 if none."""
    owner = np.full(tree.n_clusters, -1, dtype=np.int64)
    for c in range(tree.n_clusters):
        if selected[c]:
            owner[c] = c
        elif tree.cluster_parent[c] >= 0:
            owner[c] = owner[tree.cluster_parent[c]]
    return owner


def assert_extraction_matches_walk(dendrogram, m: int, allow_single: bool):
    got, ref = condense_tree(dendrogram, m), walk_condense(dendrogram, m)
    for f in TREE_FIELDS:
        g, r = getattr(got, f), getattr(ref, f)
        assert g.dtype == r.dtype, f
        np.testing.assert_array_equal(g, r, err_msg=f)
    assert_selection_matches_walk(ref, allow_single)


def assert_selection_matches_walk(ref: CondensedTree, allow_single: bool):
    sel = select_clusters(ref, allow_single)
    np.testing.assert_array_equal(sel, walk_select(ref, allow_single))

    flat = extract_labels(ref, sel)
    owner = walk_owner(ref, sel)[ref.point_cluster]
    sel_ids = np.flatnonzero(sel)
    label_of = np.full(ref.n_clusters, -1, dtype=np.int64)
    label_of[sel_ids] = np.arange(sel_ids.size)
    np.testing.assert_array_equal(
        flat.labels, np.where(owner >= 0, label_of[owner], -1))
    np.testing.assert_array_equal(flat.selected_clusters, sel_ids)
    lam = ref.point_lambda
    finite = lam[np.isfinite(lam)]
    lam = np.minimum(lam, finite.max() if finite.size else 1.0)
    prob = np.zeros(ref.n_points)
    for c in np.unique(owner[owner >= 0]):
        mine = owner == c
        top = lam[mine].max()
        prob[mine] = lam[mine] / top if top > 0 else 1.0
    np.testing.assert_array_equal(flat.probabilities, prob)


@st.composite
def dendrograms(draw, max_vertices: int = 40):
    """Random trees or stars (every star's dendrogram is a caterpillar),
    with continuous, tied-integer or zero-heavy weights."""
    nv = draw(st.integers(1, max_vertices))
    if draw(st.booleans()):
        u = np.zeros(nv - 1, dtype=np.int64)
    else:
        u = np.array([draw(st.integers(0, i - 1)) for i in range(1, nv)],
                     dtype=np.int64)
    weights = draw(st.sampled_from([
        st.floats(0.0, 10.0, allow_subnormal=False),
        st.integers(0, 4).map(float),
        st.sampled_from([0.0, 0.0, 1.0]),
    ]))
    w = np.array(draw(st.lists(weights, min_size=nv - 1, max_size=nv - 1)),
                 dtype=np.float64)
    return dendrogram_bottomup(u, np.arange(1, nv, dtype=np.int64), w, nv)


@st.composite
def condensed_trees(draw):
    """Cluster trees grown by random splits, with random births and
    fall-outs, so selections nest several levels deep: a kept cluster
    above an unkept one above a kept one is common."""
    parent, birth, leaves = [-1], [0.0], [0]
    for _ in range(draw(st.integers(0, 10))):
        c = leaves.pop(draw(st.integers(0, len(leaves) - 1)))
        lam = birth[c] + draw(st.floats(0.0, 2.0))
        for _ in range(2):
            leaves.append(len(parent))
            parent.append(c)
            birth.append(lam)
    ncl = len(parent)
    n = draw(st.integers(1, 30))
    pc = np.array(draw(st.lists(st.integers(0, ncl - 1), min_size=n,
                                max_size=n)), dtype=np.int64)
    extra = np.array(draw(st.lists(st.floats(0.0, 3.0), min_size=n,
                                   max_size=n)))
    sizes = draw(st.lists(st.integers(1, 40), min_size=ncl, max_size=ncl))
    return CondensedTree(n, 2, np.array(parent, dtype=np.int64),
                         np.array(birth), np.array(birth),
                         np.array(sizes, dtype=np.int64),
                         pc, np.array(birth)[pc] + extra)


@given(condensed_trees(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_selection_and_labels_match_walk(tree, allow_single):
    assert_selection_matches_walk(tree, allow_single)


@given(dendrograms(), st.data(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_extraction_matches_walk(dendrogram, data, allow_single):
    m = data.draw(st.integers(2, dendrogram.n_vertices + 1))
    assert_extraction_matches_walk(dendrogram, m, allow_single)


@pytest.mark.parametrize("backend", backend_params())
@given(dendrograms(max_vertices=24), st.data(), st.booleans())
@settings(max_examples=25, deadline=None)
def test_extraction_matches_walk_on_backend(backend, dendrogram, data,
                                            allow_single):
    m = data.draw(st.integers(2, dendrogram.n_vertices + 1))
    with use_backend(backend):
        assert_extraction_matches_walk(dendrogram, m, allow_single)


def test_deep_caterpillar_every_min_cluster_size():
    """A 300-point path with increasing weights: the deepest dendrogram,
    where each cluster runs the whole height before it dissolves."""
    nv = 300
    d = dendrogram_bottomup(np.arange(nv - 1), np.arange(1, nv),
                            np.arange(1.0, nv), nv)
    for m in (2, 3, 150, 299, 300, 301):
        assert_extraction_matches_walk(d, m, m % 2 == 0)
