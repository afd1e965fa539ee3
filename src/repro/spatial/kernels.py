"""NumPy reference realizations of the spatial kernel vocabulary.

These are the bulk-vectorized bodies behind the ``spatial_*`` methods of
:class:`repro.parallel.backend.NumpyBackend`, and the bit-exact reference
the JIT backends match.  Nothing here emits kernel records (the backend
method accounts the one logical kernel) and nothing here imports the
backend layer (this module sits above it; the backend loads it lazily).

The kNN query (:func:`knn_blockwise`) works on *query groups* -- the
queries that share a home node, normally their leaf -- rather than on
single queries: a vectorized descent forms the groups and their bounds,
one level-synchronous frontier of ``(group, node)`` pairs prunes the tree
for all groups at once (the shape of the Boruvka traversal in
:mod:`repro.spatial.emst`), and each group ends in one distance block and
one sort.  The Python loops run once per group, never per node visit.

Determinism conventions shared with the fused realizations:

* kNN answers are the ``k`` smallest ``(squared distance, point id)`` pairs
  per query -- a unique set, so any exact traversal agrees bit for bit.
* Node pruning visits on *equality* (``lower_bound <= bound``): an
  equal-distance smaller-id candidate is never pruned away.  Box lower
  bounds come from one formula,
  :func:`repro.spatial.distances.box_gap2`.
* All nearest-foreign ties keep the first point in tree order (NumPy's
  ``argmin`` first-occurrence rule == the fused kernels' strict ``<``).
* Squared distances come from SciPy's ``cdist`` ``sqeuclidean`` kernel,
  whose in-order difference accumulation the fused loops reproduce.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist

from .distances import box_gap2, pair_sq_dists

__all__ = ["knn_blockwise", "node_reduce", "seed_scan", "leaf_pairs"]

#: Largest ``cdist`` block the kNN kernel materializes (16 MiB of float64):
#: a group whose queries times candidates exceeds it runs in row chunks.
BLOCK_ENTRIES = 1 << 21
#: Output slots one vectorized ``leaf_pairs`` pass covers: a level with
#: more runs in pair chunks, bounding the pass's flat temporaries.
PASS_SLOTS = 1 << 18


def knn_blockwise(tree, queries, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact batched kNN as three bulk steps over query groups.

    1. **Home nodes.**  Every query descends the split planes at once,
       stopping at the deepest node that still holds ``k`` points (its
       leaf, unless the leaf is smaller than ``k``).  Queries sharing a home
       node form a group.  A query's bound is its k-th smallest ``d2``
       among the home node's points; the group's bound is the largest of
       them, and the group's box is the bounding box of its queries.
    2. **Frontier.**  One level-synchronous walk over ``(group, node)``
       pairs drops a pair when the gap between the group box and the node
       box exceeds the group bound (visiting on equality) and collects the
       surviving leaves.
    3. **Selection.**  Per group, one ``cdist`` block against the points of
       its surviving leaves; see :func:`_k_smallest`.

    Every true neighbor of a query lies within that query's bound, hence
    within the group bound, so it survives the frontier; extra candidates
    cannot change the unique k-smallest ``(d2, id)`` set.  Returns
    ``(d2, ids)`` with ``ids`` int64 (the backend narrows to the tree's
    index dtype).
    """
    n = tree.n_points
    m = int(queries.shape[0])
    out_d2 = np.empty((m, k))
    out_id = np.empty((m, k), dtype=np.int64)
    if m == 0 or k == 0:
        return out_d2, out_id
    pts_perm = tree.points_perm
    left, right = tree.left, tree.right
    start = tree.start.astype(np.int64)
    size = tree.end - start

    # --- 1. home nodes, query groups, group boxes and bounds
    home = np.zeros(m, dtype=np.int64)
    active = np.arange(m)
    while active.size:
        nd = home[active]
        internal = left[nd] >= 0
        active, nd = active[internal], nd[internal]
        go_left = queries[active, tree.split_dim[nd]] < tree.split_val[nd]
        child = np.where(go_left, left[nd], right[nd]).astype(np.int64)
        deep = size[child] >= k
        active = active[deep]
        home[active] = child[deep]
    order = np.argsort(home, kind="stable")
    first = np.flatnonzero(np.diff(home[order], prepend=-1))
    groups = np.split(order, first[1:])
    g_home = home[order[first]]
    q_sorted = queries[order]
    g_lo = np.minimum.reduceat(q_sorted, first, axis=0)
    g_hi = np.maximum.reduceat(q_sorted, first, axis=0)
    q_bound = np.empty(m)
    g_bound = np.empty(len(groups))
    for g, (qs, h) in enumerate(zip(groups, g_home)):
        home_pts = pts_perm[start[h]: start[h] + size[h]]
        for rows in _row_chunks(qs, home_pts.shape[0]):
            d2 = cdist(queries[rows], home_pts, "sqeuclidean")
            q_bound[rows] = np.partition(d2, k - 1, axis=1)[:, k - 1]
        g_bound[g] = q_bound[qs].max()

    # --- 2. frontier of (group, node) pairs -> surviving leaves
    pg = np.arange(len(groups))
    pn = np.zeros(len(groups), dtype=np.int64)
    hit_g, hit_n = [], []
    while pg.size:
        near = box_gap2(g_lo[pg], g_hi[pg], tree.box_lo[pn],
                        tree.box_hi[pn]) <= g_bound[pg]
        pg, pn = pg[near], pn[near]
        leaf = left[pn] < 0
        hit_g.append(pg[leaf])
        hit_n.append(pn[leaf])
        pg, pn = pg[~leaf], pn[~leaf]
        pg = np.concatenate([pg, pg])
        pn = np.concatenate([left[pn], right[pn]]).astype(np.int64)
    hit_g = np.concatenate(hit_g)
    by_group = np.argsort(hit_g, kind="stable")
    hit_g, hit_n = hit_g[by_group], np.concatenate(hit_n)[by_group]
    # Tree positions of every candidate, group after group, ids ascending
    # within a group (the selection's tie order).
    lens = size[hit_n]
    ends = np.cumsum(lens)
    pos = np.arange(int(ends[-1]), dtype=np.int64) + np.repeat(
        start[hit_n] - (ends - lens), lens
    )
    ids = tree.indices[pos].astype(np.int64)
    by_id = np.argsort(np.repeat(hit_g, lens) * np.int64(n) + ids)
    pos, ids = pos[by_id], ids[by_id]
    bounds = np.concatenate([[0], ends])[
        np.searchsorted(hit_g, np.arange(len(groups) + 1))
    ]

    # --- 3. one distance block and one selection per group
    for g, qs in enumerate(groups):
        sl = slice(bounds[g], bounds[g + 1])
        cand_pts = pts_perm[pos[sl]]
        for rows in _row_chunks(qs, cand_pts.shape[0]):
            d2 = cdist(queries[rows], cand_pts, "sqeuclidean")
            out_d2[rows], out_id[rows] = _k_smallest(
                d2, ids[sl], q_bound[rows], k
            )
    return out_d2, out_id


def _row_chunks(rows: np.ndarray, cols: int):
    """Split a group's query rows so each distance block stays within
    :data:`BLOCK_ENTRIES` (one chunk for ordinary leaf-sized groups)."""
    step = max(1, BLOCK_ENTRIES // max(cols, 1))
    return (rows[i: i + step] for i in range(0, rows.size, step))


def _k_smallest(d2: np.ndarray, ids: np.ndarray, bound: np.ndarray,
                k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the ``k`` smallest ``(d2, id)`` pairs in ascending order.

    ``ids`` label the columns in ascending order and ``bound`` is each
    row's home-node bound: at least ``k`` entries of a row lie within it,
    and so does the row's answer.  Only those entries are sorted -- stably
    by ``d2``, then stably by row -- so each row's run lists its entries
    in ``(d2, id)`` order and its first ``k`` are the answer, ties at the
    k-th value included.
    """
    cols = d2.shape[1]
    flat = np.flatnonzero(d2 <= bound[:, None])
    o = np.argsort(d2.ravel()[flat], kind="stable")
    row = (flat[o] // cols).astype(np.int32)
    o = o[np.argsort(row, kind="stable")]
    counts = np.bincount(row, minlength=d2.shape[0])
    pick = flat[o[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]]
    return d2.ravel()[pick], ids[pick % cols]


def node_reduce(tree, values_perm: np.ndarray, kind: str) -> np.ndarray:
    """Bottom-up per-node min/max: leaf ``reduceat`` + per-level combine."""
    op = np.minimum if kind == "min" else np.maximum
    out = np.empty(tree.n_nodes, dtype=values_perm.dtype)
    leaves = tree.leaves_by_start()
    out[leaves] = op.reduceat(values_perm, tree.start[leaves])
    left, right = tree.left, tree.right
    for ids in reversed(tree.internal_levels()):
        out[ids] = op(out[left[ids]], out[right[ids]])
    return out


def seed_scan(labels, knn_i, knn_d2, core2, mutual: bool,
              out_d2, out_q) -> None:
    """Per-point best foreign kNN entry (Boruvka seeding), one bulk pass."""
    n = labels.size
    # ``take`` gathers with the narrow index dtype about 2x faster than
    # fancy indexing.
    foreign = labels.take(knn_i) != labels[:, None]
    d2 = np.where(foreign, knn_d2, np.inf)
    if mutual:
        np.maximum(d2, core2[:, None], out=d2)
        np.maximum(d2, core2.take(knn_i), out=d2)
        d2[~foreign] = np.inf
    j = np.argmin(d2, axis=1)
    rows = np.arange(n)
    out_d2[:n] = d2[rows, j]
    out_q[:n] = knn_i[rows, j]
    out_q[:n][~np.isfinite(out_d2[:n])] = -1


def leaf_pairs(tree, leaf_a, leaf_b, pair_lb, labels_perm, core2_perm,
               mutual: bool, bound_d2, offsets,
               out_comp, out_d2, out_p, out_q) -> None:
    """Frontier-level leaf-leaf interactions; see the backend docstring.

    Reference realization in two steps.  Per pair, one distance block
    (``cdist``, mutual-reachability max, same-component entries set to
    ``inf``) and its row and column ``argmin``: every point's nearest
    foreign partner in the opposite leaf, written to one flat level-wide
    array in slot order (A-side rows, then B-side columns).  Then one
    vectorized pass over the whole level (in pair chunks of at most
    :data:`PASS_SLOTS` slots) recomputes each point's ``d2`` to its
    partner -- :func:`~repro.spatial.distances.pair_sq_dists` sums in
    the block's order, so the value is the block's bit for bit -- and does
    the bookkeeping: component lookup, the bound predicate (``bound >
    pair_lb`` and strict improvement) and the slot writes.  Slot layout,
    predicate and first-occurrence tie rule match the fused kernels
    exactly.
    """
    pair_n = (tree.end[leaf_a] - tree.start[leaf_a]
              + tree.end[leaf_b] - tree.start[leaf_b]).astype(np.int64)
    chunk = (np.cumsum(pair_n) - 1) // PASS_SLOTS
    cuts = np.flatnonzero(np.diff(chunk, prepend=-1)).tolist()
    for lo, hi in zip(cuts, cuts[1:] + [int(leaf_a.size)]):
        _leaf_pair_pass(
            tree, leaf_a[lo:hi], leaf_b[lo:hi], pair_lb[lo:hi], labels_perm,
            core2_perm, mutual, bound_d2, offsets[lo:hi],
            out_comp, out_d2, out_p, out_q,
        )


def _leaf_pair_pass(tree, leaf_a, leaf_b, pair_lb, labels_perm, core2_perm,
                    mutual, bound_d2, offsets,
                    out_comp, out_d2, out_p, out_q) -> None:
    """:func:`leaf_pairs` over one chunk of pairs."""
    pts_perm = tree.points_perm
    # Slot segments in tree positions: A side then B side of every pair.
    seg_lo = np.stack([tree.start[leaf_a], tree.start[leaf_b]], axis=1)
    seg_hi = np.stack([tree.end[leaf_a], tree.end[leaf_b]], axis=1)
    seg_n = (seg_hi - seg_lo).ravel().astype(np.int64)
    seg_off = np.cumsum(seg_n) - seg_n
    total = int(seg_off[-1] + seg_n[-1])

    col = np.empty(total, dtype=np.int64)
    lo, hi = seg_lo.ravel().tolist(), seg_hi.ravel().tolist()
    off = seg_off.tolist() + [total]
    for t in range(0, len(lo), 2):
        sa, ea, sb, eb = lo[t], hi[t], lo[t + 1], hi[t + 1]
        d2 = cdist(pts_perm[sa:ea], pts_perm[sb:eb], "sqeuclidean")
        if mutual:
            np.maximum(d2, core2_perm[sa:ea, None], out=d2)
            np.maximum(d2, core2_perm[None, sb:eb], out=d2)
        np.copyto(d2, np.inf,
                  where=labels_perm[sa:ea, None] == labels_perm[None, sb:eb])
        d2.argmin(axis=1, out=col[off[t]:off[t + 1]])
        d2.argmin(axis=0, out=col[off[t + 1]:off[t + 2]])

    # One pass over the chunk.  A row with no foreign entry has argmin 0,
    # a same-component partner, and so gets inf.
    pos = np.arange(total, dtype=np.int64) + np.repeat(
        seg_lo.ravel() - seg_off, seg_n
    )
    opp = np.repeat(seg_lo[:, ::-1].ravel(), seg_n) + col
    rd2 = pair_sq_dists(pts_perm, pos, opp)
    if mutual:
        np.maximum(rd2, core2_perm[pos], out=rd2)
        np.maximum(rd2, core2_perm[opp], out=rd2)
    comp = labels_perm[pos]
    rd2[labels_perm[opp] == comp] = np.inf
    bnd = bound_d2[comp]
    pair_n = seg_n[0::2] + seg_n[1::2]
    ok = (bnd > np.repeat(pair_lb, pair_n)) & (rd2 < bnd)
    slot = np.arange(total, dtype=np.int64) + np.repeat(
        offsets - seg_off[0::2], pair_n
    )
    out_d2[slot] = np.where(ok, rd2, np.inf)
    hit = slot[ok]
    out_comp[hit] = comp[ok]
    out_p[hit] = tree.indices[pos[ok]]
    out_q[hit] = tree.indices[opp[ok]]
