"""Euclidean / mutual-reachability MST via dual-tree Boruvka.

This is the reproduction of the paper's EMST substrate (ArborX's
tree-accelerated Boruvka [39]): each Boruvka round finds, for every
component, its closest *foreign* point pair, using the kd-tree to prune
interactions.  Every round sub-step is a bulk kernel routed through the
spatial vocabulary of :class:`repro.parallel.backend.Backend`, so the whole
front-end JIT-fuses and releases the GIL on the numba backends.

Round structure:

1. **Seed** -- one batched scan of the precomputed kNN table
   (:func:`~repro.parallel.primitives.spatial_seed_scan`) finds each point's
   nearest neighbor outside its component; this initializes per-component
   candidate upper bounds (in early rounds the kNN list almost always
   contains the true answer, so the tree traversal only verifies).
2. **Aggregate** -- per tree node, bottom-up
   (:func:`~repro.parallel.primitives.spatial_node_reduce`): the single
   component id beneath it (or -1 if mixed) and a pruning bound: the max
   of the contained *useful* points' component candidate distances, 0 when
   none is useful.  A point is useful when its *reach floor* is below its
   component's candidate distance.  The floor is a second seed scan, named
   ``emst.reach``, over the kNN table's exact mutual reachability: the best
   foreign entry of the point's list, capped by ``far2``, the larger of the
   point's squared core distance and the list's k-th exact ``d2`` (``inf``
   when the lists hold every point).  Both tables are computed once per
   call; exact means summed as the leaf kernel sums a ``d2``
   (:func:`~repro.spatial.distances.pair_sq_dists`), since the stored
   distances' squares are rounded twice.  The seed itself keeps those
   rounded squares.
3. **Traverse** -- level-synchronous over node pairs: lower bounds,
   same-component tests and bound pruning are single vectorized passes over
   the whole frontier, and *all* surviving leaf-leaf interactions of a level
   run as one batched kernel
   (:func:`~repro.parallel.primitives.spatial_leaf_pairs`) against bounds
   frozen at the level start -- every pair is independent, which is what
   makes the kernel embarrassingly parallel yet bit-deterministic.  The
   improvements found by the batch tighten the bounds before the next level
   is filtered.
4. **Contract** -- every component's best pair becomes an MST edge.  A
   cycle guard drops redundant picks: under mutual reachability, exact
   weight ties are common (the same core distance can dominate several
   pairs), and two components may legitimately nominate *different*
   equal-weight edges between the same component pair.  The guard ranks the
   round's candidate edges by the strict total order (weight, lo, hi) and
   keeps exactly the edges sequential Kruskal would -- computed by a
   vectorized priority-Boruvka loop (:func:`_forest_guard`) instead of a
   Python union-find walk.

Exactness: pruning only discards pairs provably unable to improve any
component's candidate (frozen bounds only ever over-estimate), and candidate
resolution takes the global minimum per component, so each round adds
exactly the Boruvka edges of the full metric graph.  The reach floor only
drops points that cannot emit: a foreign point in the list gives a mutual
reachability of at least the list term, one beyond the list has ``d2`` at
least the k-th, so at least ``far2`` -- and the leaf kernel emits only a
strict improvement on a bound no larger than the round-start candidate
distance.  The candidate pool, hence every edge, weight and round, is the
one an unfloored traversal finds; only the pair visits drop.  Tests verify
the floor against brute force and the MST against dense-matrix MSTs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..parallel.backend import get_backend
from ..parallel.connected import connected_components
from ..parallel.machine import emit
from ..parallel.primitives import (
    scatter_min_at,
    spatial_leaf_pairs,
    spatial_node_reduce,
    spatial_seed_scan,
)
from ..parallel.workspace import index_dtype
from .distances import box_gap2, pair_sq_dists
from .kdtree import KDTree, validate_points

__all__ = ["EMSTResult", "KNNArtifact", "emst", "core_distances", "knn_graph"]


@dataclass(frozen=True)
class KNNArtifact:
    """Reusable spatial-search products: kd-tree plus a kNN table.

    The engine's batched multi-``mpts`` HDBSCAN computes this once with
    ``k = max`` over the batch and hands it to every :func:`emst` call;
    because kNN rows are sorted ascending, slicing the first ``k'`` columns
    reproduces a direct ``k'``-column query bit-for-bit (ties aside), so
    sharing the artifact leaves each per-``mpts`` result identical to an
    unshared run.  The arrays are bit-identical across all registered
    backends (``ids`` carries the tree's adaptive index dtype).  Treat all
    fields as immutable.
    """

    tree: KDTree
    dists: np.ndarray        # (n, k) distances, rows ascending
    ids: np.ndarray          # (n, k) neighbor ids, tree index dtype

    @property
    def n_points(self) -> int:
        return int(self.ids.shape[0])

    @property
    def k(self) -> int:
        return int(self.ids.shape[1])


def knn_graph(
    points: np.ndarray, k: int, leaf_size: int = 96, tree: KDTree | None = None
) -> KNNArtifact:
    """Build the shared kNN artifact: kd-tree + ``k``-column self-query.

    Parameters
    ----------
    points:
        ``(n, d)`` float array.
    k:
        Neighbor columns to retain (clamped to ``n``); rows come back
        sorted ascending, so slicing the first ``k'`` columns reproduces
        a direct ``k'``-column query.
    leaf_size:
        kd-tree leaf size; ignored when ``tree`` is supplied.
    tree:
        Optional prebuilt :class:`~repro.spatial.kdtree.KDTree` over the
        same points; skips the tree build.

    Returns
    -------
    KNNArtifact
        The tree plus ``(n, k)`` neighbor distances and ids, bit-identical
        across all registered backends.

    Raises
    ------
    InvalidGraphError
        If ``points`` fails :func:`~repro.spatial.kdtree.validate_points`.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    if tree is None:
        tree = KDTree.build(points, leaf_size=leaf_size)
    k = min(k, tree.n_points)
    dists, ids = tree.query_knn(points, k)
    return KNNArtifact(tree=tree, dists=dists, ids=ids)


@dataclass
class EMSTResult:
    """MST edges plus run diagnostics."""

    u: np.ndarray
    v: np.ndarray
    w: np.ndarray            # metric distances (Euclidean or mutual reach.)
    core: np.ndarray         # core distances used (zeros for mpts == 1)
    n_rounds: int
    n_pair_visits: int       # node pairs examined across all rounds

    @property
    def n_edges(self) -> int:
        return int(self.u.size)


def core_distances(
    points: np.ndarray, mpts: int, tree: KDTree | None = None, k_extra: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Core distance of each point plus its kNN lists.

    ``core(p)`` is the distance to the ``mpts``-th nearest neighbor counting
    p itself (HDBSCAN* convention), i.e. column ``mpts - 1`` of a self-query.
    Returns ``(core, knn_dists, knn_ids)`` with ``mpts + k_extra`` columns
    (the extra columns improve Boruvka seeding).
    """
    if mpts < 1:
        raise ValueError(f"mpts must be >= 1, got {mpts}")
    if tree is None:
        tree = KDTree.build(points)
    k = min(mpts + k_extra, tree.n_points)
    dists, ids = tree.query_knn(points, k)
    # clamp mpts to the available neighbor count (tiny inputs): the core
    # distance degrades to the farthest available neighbor
    col = min(mpts, tree.n_points) - 1
    core = dists[:, col] if col > 0 else np.zeros(points.shape[0])
    return core, dists, ids


def emst(
    points: np.ndarray,
    mpts: int = 1,
    leaf_size: int = 96,
    seed_k: int = 8,
    knn: KNNArtifact | None = None,
) -> EMSTResult:
    """Exact MST of a point cloud under Euclidean or mutual reachability.

    Parameters
    ----------
    points:
        ``(n, d)`` float array.
    mpts:
        HDBSCAN* core-distance parameter; 1 = plain Euclidean EMST.
    leaf_size:
        kd-tree leaf size (larger favours block work over traversal).
    seed_k:
        Number of kNN columns retained for candidate seeding (at least
        ``mpts``).
    knn:
        Optional precomputed :class:`KNNArtifact` over the *same* points
        (same ``leaf_size``) with at least ``max(mpts, min(seed_k, n))``
        columns.  Skips the kd-tree build and the kNN self-query -- the
        engine's batched multi-``mpts`` path shares one artifact across the
        batch; the columns actually used are sliced to exactly what an
        unshared run would compute.

    Returns
    -------
    :class:`EMSTResult` with ``n - 1`` edges for ``n >= 1`` points.

    Raises
    ------
    ValueError
        If ``points`` is empty, or a supplied ``knn`` artifact covers a
        different point count or has fewer columns than this call needs.
    InvalidGraphError
        If ``points`` fails :func:`~repro.spatial.kdtree.validate_points`
        (not ``(n, d)`` with ``d >= 1``, non-finite, or overflowing).
    """
    points = validate_points(points)
    n = points.shape[0]
    if n == 0:
        raise ValueError("need at least one point")
    if n == 1:
        z = np.zeros(0)
        return EMSTResult(z.astype(np.int64), z.astype(np.int64), z,
                          np.zeros(1), 0, 0)

    k_seed = max(mpts, min(seed_k, n))
    if knn is None:
        tree = KDTree.build(points, leaf_size=leaf_size)
        core, knn_d, knn_i = core_distances(
            points, mpts, tree, k_extra=k_seed - mpts
        )
    else:
        if knn.n_points != n:
            raise ValueError(
                f"knn artifact covers {knn.n_points} points, need {n}"
            )
        k_use = min(k_seed, n)
        if knn.k < k_use:
            raise ValueError(
                f"knn artifact has {knn.k} columns, need >= {k_use}"
            )
        tree = knn.tree
        knn_d = knn.dists[:, :k_use]
        knn_i = knn.ids[:, :k_use]
        col = min(mpts, n) - 1
        core = knn.dists[:, col] if col > 0 else np.zeros(n)
    mutual = mpts > 1
    core2 = core * core
    knn_d2 = knn_d * knn_d

    # Tree-order views used by leaf interactions and per-node aggregates.
    core2_perm = core2[tree.indices]
    node_min_core2 = (
        spatial_node_reduce(tree, core2_perm, "min") if mutual else None
    )

    # Reach-floor tables (module docstring, Aggregate).
    knn_r2, far2 = _reach_inputs(points, knn_i, core2, mutual)

    labels = np.arange(n, dtype=index_dtype(n))
    bk = get_backend()
    seed_d2 = bk.take("emst.seed_d2", n, np.float64)
    seed_q = bk.take("emst.seed_q", n, np.int64)
    reach_d2 = bk.take("emst.reach_d2", n, np.float64)
    reach_q = bk.take("emst.reach_q", n, np.int64)
    rows = np.arange(n, dtype=np.int64)

    mst_u: list[np.ndarray] = []
    mst_v: list[np.ndarray] = []
    mst_w2: list[np.ndarray] = []
    n_rounds = 0
    n_pair_visits = 0
    n_comp = n

    while n_comp > 1:
        n_rounds += 1
        best_d2 = np.full(n, np.inf)  # indexed by component representative
        cand = _Candidates()

        spatial_seed_scan(
            labels, knn_i, knn_d2, core2, mutual, seed_d2, seed_q
        )
        ok = seed_q[:n] >= 0
        if ok.any():
            p = rows[ok]
            comp = labels[p].astype(np.int64)
            cand.add(comp, seed_d2[:n][ok], p, seed_q[:n][ok])
            np.minimum.at(best_d2, comp, seed_d2[:n][ok])

        # Only a point whose reach floor is below its component's bound can
        # ever emit; the others add nothing to the node bounds.
        reach = _reach(labels, knn_i, knn_r2, far2, core2, reach_d2, reach_q)
        point_bound2 = best_d2[labels]
        point_bound2[reach >= point_bound2] = 0.0

        labels_perm = labels[tree.indices]
        node_lo = spatial_node_reduce(tree, labels_perm, "min")
        node_hi = spatial_node_reduce(tree, labels_perm, "max")
        node_comp = np.where(node_lo == node_hi, node_lo, -1).astype(np.int64)
        node_bound2 = spatial_node_reduce(
            tree, point_bound2[tree.indices], "max"
        )

        n_pair_visits += _traverse(
            tree, labels_perm, core2_perm, mutual, best_d2, cand,
            node_comp, node_bound2, node_min_core2,
        )

        cu, cv, cw2 = _resolve_candidates(n, cand)
        if cu.size == 0:
            raise AssertionError(
                "Boruvka round found no edges on a multi-component input"
            )
        # Cycle guard (see module docstring): keep only merging picks, in
        # deterministic (weight, endpoints) order.
        keep = _forest_guard(
            n, labels[cu].astype(np.int64), labels[cv].astype(np.int64)
        )
        added = int(np.count_nonzero(keep))
        if added == 0:
            raise AssertionError("cycle guard rejected every candidate edge")
        mst_u.append(cu[keep])
        mst_v.append(cv[keep])
        mst_w2.append(cw2[keep])
        merged = connected_components(
            n, np.stack([labels[cu[keep]], labels[cv[keep]]], axis=1)
        )
        labels = merged[labels].astype(labels.dtype, copy=False)
        emit("emst.compose_labels", "gather", n)
        n_comp -= added

    u = np.concatenate(mst_u).astype(np.int64)
    v = np.concatenate(mst_v).astype(np.int64)
    w = np.sqrt(np.concatenate(mst_w2))
    return EMSTResult(u, v, w, core, n_rounds, n_pair_visits)


# --------------------------------------------------------------------------
# Round sub-steps
# --------------------------------------------------------------------------


def _reach_inputs(
    points: np.ndarray, knn_i: np.ndarray, core2: np.ndarray, mutual: bool
) -> tuple[np.ndarray, np.ndarray]:
    """The reach floor's per-call inputs: ``(knn_r2, far2)``.

    ``knn_r2`` is the kNN table's mutual reachability (squared), lifted
    once from squared distances summed as the leaf kernels sum them (the
    stored distances' squares are rounded twice).  ``far2`` bounds the
    mutual reachability to every point beyond a row's list -- ``inf`` when
    the rows already list all points.
    """
    n = points.shape[0]
    knn_r2 = pair_sq_dists(points, np.arange(n)[:, None], knn_i)
    far2 = (np.maximum(knn_r2[:, -1], core2) if knn_i.shape[1] < n
            else np.full(n, np.inf))
    if mutual:
        np.maximum(knn_r2, core2[:, None], out=knn_r2)
        np.maximum(knn_r2, core2[knn_i], out=knn_r2)
    return knn_r2, far2


def _reach(labels, knn_i, knn_r2, far2, core2, out_d2, out_q) -> np.ndarray:
    """Per point, a lower bound on its mutual reachability to any point of
    another component: the best foreign kNN entry, floored by ``far2``.
    ``knn_r2`` is already lifted, so the scan runs unlifted."""
    spatial_seed_scan(
        labels, knn_i, knn_r2, core2, False, out_d2, out_q, name="emst.reach"
    )
    return np.minimum(out_d2[: labels.size], far2)


class _Candidates:
    """Per-round candidate pool: (component, d2, p, q) quadruples."""

    __slots__ = ("comps", "d2s", "ps", "qs")

    def __init__(self) -> None:
        self.comps: list[np.ndarray] = []
        self.d2s: list[np.ndarray] = []
        self.ps: list[np.ndarray] = []
        self.qs: list[np.ndarray] = []

    def add(self, comp, d2, p, q) -> None:
        self.comps.append(np.asarray(comp, dtype=np.int64))
        self.d2s.append(np.asarray(d2, dtype=np.float64))
        self.ps.append(np.asarray(p, dtype=np.int64))
        self.qs.append(np.asarray(q, dtype=np.int64))


def _traverse(
    tree: KDTree,
    labels_perm: np.ndarray,
    core2_perm: np.ndarray,
    mutual: bool,
    best_d2: np.ndarray,
    cand: _Candidates,
    node_comp: np.ndarray,
    node_bound2: np.ndarray,
    node_min_core2: np.ndarray | None,
) -> int:
    """Level-synchronous dual-tree traversal; returns the pair-visit count.

    The frontier of candidate node pairs is processed in bulk: lower bounds,
    same-component tests and bound pruning are single vectorized passes over
    the whole frontier (the GPU-natural formulation).  All surviving
    leaf-leaf pairs of a level run as ONE batched backend kernel against
    bounds frozen at the level start; their improvements tighten ``best_d2``
    before the next level is filtered.
    """
    box_lo, box_hi = tree.box_lo, tree.box_hi
    start, end, left, right = tree.start, tree.end, tree.left, tree.right
    n_pts = end - start
    n_nodes = tree.n_nodes
    bk = get_backend()

    def lower_bounds(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        lb = box_gap2(box_lo[a], box_hi[a], box_lo[b], box_hi[b])
        if mutual:
            np.maximum(lb, node_min_core2[a], out=lb)
            np.maximum(lb, node_min_core2[b], out=lb)
        emit("emst.pair_bounds", "map", int(a.size))
        return lb

    def prune(
        a: np.ndarray, b: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Drop same-component and bound-hopeless pairs (vectorized).

        A uniform node's bound is its component's live bound, or 0 when
        none of its points is useful this round.
        """
        ca = node_comp[a]
        cb = node_comp[b]
        alive = (ca < 0) | (ca != cb)
        if not alive.any():
            return a[:0], b[:0], np.zeros(0)
        n_pairs = int(a.size)
        a, b, ca, cb = a[alive], b[alive], ca[alive], cb[alive]
        lb = lower_bounds(a, b)
        emit("emst.pair_prune", "map", n_pairs)
        bound_a = node_bound2[a]
        bound_b = node_bound2[b]
        np.minimum(bound_a, best_d2[ca], out=bound_a, where=ca >= 0)
        np.minimum(bound_b, best_d2[cb], out=bound_b, where=cb >= 0)
        ok = lb < np.maximum(bound_a, bound_b)
        return a[ok], b[ok], lb[ok]

    visits = 0
    fa = np.zeros(1, dtype=np.int64)
    fb = np.zeros(1, dtype=np.int64)
    while fa.size:
        visits += int(fa.size)
        fa, fb, flb = prune(fa, fb)
        if fa.size == 0:
            break
        a_leaf = left[fa] == -1
        b_leaf = left[fb] == -1
        both_leaf = a_leaf & b_leaf

        # Batched leaf-leaf interactions: one kernel over the whole level,
        # per-point / per-pair slots compacted into the candidate pool.
        la = fa[both_leaf]
        lb_ = fb[both_leaf]
        if la.size:
            sizes = (n_pts[la] + n_pts[lb_]).astype(np.int64)
            offsets = np.cumsum(sizes) - sizes
            total = int(sizes.sum())
            out_comp = bk.take("emst.cand_comp", total, np.int64)
            out_d2 = bk.take("emst.cand_d2", total, np.float64)
            out_p = bk.take("emst.cand_p", total, np.int64)
            out_q = bk.take("emst.cand_q", total, np.int64)
            spatial_leaf_pairs(
                tree, la, lb_, flb[both_leaf], labels_perm, core2_perm,
                mutual, best_d2, offsets, out_comp, out_d2, out_p, out_q,
            )
            hit = np.isfinite(out_d2[:total])
            if hit.any():
                cand.add(out_comp[:total][hit], out_d2[:total][hit],
                         out_p[:total][hit], out_q[:total][hit])
                scatter_min_at(
                    best_d2, out_comp[:total][hit], out_d2[:total][hit],
                    name=None,
                )

        # Expand the remaining pairs: split the side with more points.
        ra = fa[~both_leaf]
        rb = fb[~both_leaf]
        if ra.size == 0:
            break
        expand_a = (left[ra] != -1) & (
            (left[rb] == -1) | (n_pts[ra] >= n_pts[rb])
        )
        ea, eb = ra[expand_a], rb[expand_a]
        sa, sb = ra[~expand_a], rb[~expand_a]
        fa_next = np.concatenate([left[ea], right[ea], sa, sa]).astype(np.int64)
        fb_next = np.concatenate([eb, eb, left[sb], right[sb]]).astype(np.int64)
        # Canonical order + dedup (symmetric interaction).
        lo = np.minimum(fa_next, fb_next)
        hi = np.maximum(fa_next, fb_next)
        key = lo * np.int64(n_nodes) + hi
        uniq = np.unique(key)
        emit("emst.frontier_dedup", "sort", int(key.size))
        fa = (uniq // n_nodes).astype(np.int64)
        fb = (uniq % n_nodes).astype(np.int64)
    return visits


def _forest_guard(n: int, cu: np.ndarray, cv: np.ndarray) -> np.ndarray:
    """Vectorized Kruskal-equivalent cycle guard over component edges.

    ``(cu, cv)`` are the candidate edges' component labels, already in the
    round's strict total order (weight, lo, hi) -- so array position is a
    distinct priority and the minimum spanning forest over components is
    *unique*.  Priority-Boruvka therefore keeps exactly the edges a
    sequential union-find walk in that order would: each iteration picks,
    for every current component, its minimum-priority alive edge (an
    ``atomicMin`` scatter), contracts, and repeats until no alive
    cross-component edge remains.
    """
    m = int(cu.size)
    keep = np.zeros(m, dtype=bool)
    prio = np.arange(m, dtype=np.int64)
    a = cu.copy()
    b = cv.copy()
    while True:
        alive = a != b
        if not alive.any():
            break
        best = np.full(n, m, dtype=np.int64)
        np.minimum.at(best, a[alive], prio[alive])
        np.minimum.at(best, b[alive], prio[alive])
        pick = alive & ((best[a] == prio) | (best[b] == prio))
        keep |= pick
        emit("emst.guard", "scatter", int(np.count_nonzero(alive)))
        merged = connected_components(
            n, np.stack([a[pick], b[pick]], axis=1)
        )
        a = merged[a]
        b = merged[b]
    return keep


def _resolve_candidates(
    n: int, cand: _Candidates
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Global per-component minimum over the round's candidate pool,
    deduplicated into undirected edges, in deterministic order."""
    if not cand.comps:
        return np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0)
    comp = np.concatenate(cand.comps)
    d2 = np.concatenate(cand.d2s)
    p = np.concatenate(cand.ps)
    q = np.concatenate(cand.qs)
    # Canonical undirected endpoints so equal-weight ties resolve identically
    # from both sides whenever the same pair is seen by both components.
    lo = np.minimum(p, q)
    hi = np.maximum(p, q)
    order = np.lexsort((hi, lo, d2, comp))
    emit("emst.resolve_sort", "sort", comp.size)
    comp_s = comp[order]
    head = np.ones(comp_s.size, dtype=bool)
    head[1:] = comp_s[1:] != comp_s[:-1]
    sel = order[head]
    elo, ehi, ew2 = lo[sel], hi[sel], d2[sel]
    # Undirected dedup (two components may choose the same pair), keeping
    # deterministic (weight, endpoints) order for the cycle guard.
    key = elo * np.int64(n) + ehi
    _, first = np.unique(key, return_index=True)
    emit("emst.dedup", "sort", int(key.size))
    keep = np.sort(first)
    eorder = np.lexsort((ehi[keep], elo[keep], ew2[keep]))
    keep = keep[eorder]
    return elo[keep], ehi[keep], ew2[keep]
