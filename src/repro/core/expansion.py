"""Dendrogram expansion: chain assignment and stitching (Section 3.3).

After multilevel contraction, every edge must be placed into a *chain* of the
final dendrogram.  The efficient scheme (Section 3.3.2) scans contraction
levels instead of walking the contracted dendrogram:

An edge ``e`` contracted at level ``j`` lives inside a supervertex ``V`` of
every tree ``T_l`` with ``l > j``.  At each such level the dendrogram parent
of the vertex node ``V`` is ``a = maxIncident_l(V)`` -- a purely local
quantity.  If ``index(e) > index(a)``, then ``e`` is lighter than ``a`` and
belongs to the *leaf chain* hanging from anchor ``a`` on the side of
endpoint ``V`` (an O(1) test).  Otherwise ``e`` is an ancestor of ``a`` and
the scan continues one level up.  Edges never assigned by the last level form
the **root chain**, the top lineage of the dendrogram.

Chains are then sorted by edge index (ascending = heavier first) and linked:
each edge's parent is its predecessor, the chain head's parent is its anchor,
and the root chain's head is the global root (heaviest edge, parent ``-1``).

The per-edge level test is O(1) and there are at most ``ceil(log2(n+1))``
levels, giving the O(n log n) total of Section 4.2.

For the ablation study, :func:`expand_single_level` implements the
single-level expansion of Section 3.3.1 (Figure 10), which walks the
contracted dendrogram bottom-up per edge -- Theta(n * h_alpha) pointer-chase
work in the worst case, the cost the multilevel scheme exists to avoid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..parallel.backend import get_backend
from ..parallel.machine import emit
from ..parallel.primitives import argsort_bounded, lexsort, segmented_first, sort
from ..parallel.workspace import index_dtype
from .contraction import ContractionLevel

__all__ = [
    "ChainAssignment",
    "assign_chains",
    "stitch_chains",
    "expand_single_level",
]


@dataclass
class ChainAssignment:
    """Result of the level scan: a chain key per edge.

    ``anchor[e]`` is the global index of the anchor edge of e's chain
    (``-1`` for root-chain edges); ``side[e]`` is 0/1 for which endpoint of
    the anchor the chain hangs from; ``level[e]`` records the contraction
    level at which the edge was assigned (``-1`` for the root chain).
    """

    anchor: np.ndarray  # (n,) int64, -1 = root chain
    side: np.ndarray    # (n,) int8
    level: np.ndarray   # (n,) int16, -1 = root chain

    @property
    def n_root_chain(self) -> int:
        return int((self.anchor < 0).sum())


def assign_chains(levels: list[ContractionLevel]) -> ChainAssignment:
    """Map every edge to its dendrogram chain via the multilevel scan.

    The waiting-edge pool lives in two preallocated workspace buffers: each
    level's survivors are compacted into the spare buffer and the level's
    contracted edges appended behind them, so no level allocates.
    """
    backend = get_backend()
    n = levels[0].n_edges
    anchor = backend.full(n, -1, np.int64)
    side = backend.zeros(n, np.int8)
    assigned_level = backend.full(n, -1, np.int16)

    dt = levels[0].idx.dtype
    # Ping-pong pool halves; ``cur`` holds the live pool, survivors plus
    # newcomers are written into ``nxt`` by the backend's pool-partition
    # kernel, then they swap.  An edge enters the pool exactly once, so a
    # capacity of ``n`` never reallocates.
    cur_idx = backend.take("expand.pool_idx.a", n, dt)
    cur_vert = backend.take("expand.pool_vert.a", n, dt)
    nxt_idx = backend.take("expand.pool_idx.b", n, dt)
    nxt_vert = backend.take("expand.pool_vert.b", n, dt)
    pool_len = 0

    for li, level in enumerate(levels):
        pool_idx = cur_idx[:pool_len]
        pool_vert = cur_vert[:pool_len]
        keep = None
        if pool_len:
            # Leaf-chain membership test (O(1) per edge per level): the
            # anchor candidate is the dendrogram parent of the pool edge's
            # supervertex; a larger own index means "descendant -> in chain".
            a = backend.gather(
                level.max_inc, pool_vert, name="expand.anchor_gather"
            )
            hit = backend.map(
                lambda aa, pi: (aa >= 0) & (pi > aa), a, pool_idx,
                name="expand.membership_test",
            )
            if hit.any():
                hit_idx = pool_idx[hit]
                hit_anchor = a[hit]
                rows = level.row_of(hit_anchor)
                # side: which endpoint of the anchor is our supervertex.
                hit_side = (level.v[rows] == pool_vert[hit]).astype(np.int8)
                backend.scatter(anchor, hit_idx, hit_anchor, name=None)
                backend.scatter(side, hit_idx, hit_side, name=None)
                backend.scatter(assigned_level, hit_idx, li, name=None)
                emit("expand.assign", "scatter", int(hit_idx.size))
                keep = ~hit

        if level.vmap is None:
            # Last level: survivors + this tree's own edges form the root
            # chain (anchor stays -1).
            break

        # One backend kernel: compact survivors, relabel them into the next
        # level's supervertex ids, and append the edges contracted at this
        # level (the numba backend fuses all of it into a single loop).
        pool_len = backend.expand_pool_partition(
            pool_idx, pool_vert, keep, level.vmap,
            level.idx, level.u, ~level.alpha, level.n_edges - level.n_alpha,
            nxt_idx, nxt_vert, name="expand.pool_relabel",
        )
        cur_idx, nxt_idx = nxt_idx, cur_idx
        cur_vert, nxt_vert = nxt_vert, cur_vert

    return ChainAssignment(anchor=anchor, side=side, level=assigned_level)


def stitch_chains(
    assignment: ChainAssignment,
    n_edges: int,
    n_vertices: int,
    max_inc0: np.ndarray,
) -> np.ndarray:
    """Sort each chain and link parents (Section 3.3.3).

    Returns the full dendrogram parent array over ``n_edges + n_vertices``
    nodes.  Vertex-node parents come directly from Eq. 1
    (``P(v) = maxIncident(v)`` in the original tree).
    """
    backend = get_backend()
    parent = backend.full(n_edges + n_vertices, -1, np.int64)

    # Vertex nodes (leaves).  Isolated vertices (only possible when the tree
    # is empty) keep -1.
    parent[n_edges:] = max_inc0
    emit("stitch.vertex_parents", "scatter", n_vertices)

    if n_edges == 0:
        return parent

    # Chain key: anchor * 2 + side; the root chain gets key -1 and sorts
    # first, so its head lands at position 0 of the sorted order.  Keys fit
    # the adaptive dtype whenever 2 * n_edges does (they are compared, not
    # used as node ids, so the narrower sort is free speedup).
    key_dtype = index_dtype(2 * n_edges + 2)
    key = backend.empty(n_edges, key_dtype)
    backend.chain_sort_keys(assignment.anchor, assignment.side, key, name=None)
    # Chain keys are bounded by 2 * n_edges + 1 and the positional
    # tie-break comes from sort stability, so the old full-array
    # lexsort((edge_ids, key)) collapses to one bounded single-key pass
    # (an O(n + k) counting/radix sort on the sortlib engine).
    order = argsort_bounded(
        key, -1, 2 * n_edges + 1, name="stitch.chain_sort"
    )
    skey = key[order]
    heads = segmented_first(skey, name="stitch.heads")

    # Parent of every non-head chain member is its predecessor in the sorted
    # order (ascending index within a chain = heavier first).  Linking every
    # position and letting the head scatter below overwrite the chain
    # boundaries is cheaper than masking: one dense scatter replaces the
    # mask inversion and two boolean compaction gathers.
    if n_edges > 1:
        backend.scatter(parent, order[1:], order[:-1], name=None)
    emit("stitch.link", "scatter", n_edges)

    # Chain heads attach to their anchors (overwriting the cross-chain
    # links written above); the root chain head (key -1) is the global root
    # and keeps parent -1.  Materializing head positions once is ~4x
    # cheaper than two boolean-mask gathers re-scanning the full mask.
    head_idx = np.nonzero(heads)[0]
    head_nodes = order[head_idx]
    head_keys = skey[head_idx]
    backend.scatter(
        parent, head_nodes,
        backend.where(head_keys >= 0, head_keys >> 1, -1, name=None),
        name=None,
    )
    emit("stitch.anchors", "scatter", int(head_nodes.size))
    return parent


def expand_single_level(
    t0: ContractionLevel,
    t1: ContractionLevel,
    alpha_edge_parent: np.ndarray,
    alpha_vertex_parent: np.ndarray,
) -> np.ndarray:
    """Section 3.3.1 ablation: full dendrogram from ONE contraction level.

    Parameters
    ----------
    t0, t1:
        The original tree and its alpha-contraction
        (``contract_multilevel(..., max_levels=1)``).
    alpha_edge_parent:
        Dendrogram parents *within the contracted dendrogram* for T_1's
        edges, in **global** edge indices, aligned with ``t1.idx`` (-1 at the
        contracted root).
    alpha_vertex_parent:
        Dendrogram parent (global edge index) of each T_1 vertex node.

    Returns
    -------
    Full dendrogram parent array (``t0.n_edges + t0.n_vertices``,).

    Notes
    -----
    Every contracted (non-alpha) edge starts at the dendrogram parent of its
    supervertex and walks the contracted dendrogram upward until an ancestor
    with a smaller index is found (Figure 10).  The walk is done for all
    edges simultaneously, one pointer-chase round per dendrogram level, so
    the kernel count directly exhibits the Theta(n * h_alpha) behaviour.

    Chains are grouped by ``(anchor, arrival node)``: the node from which the
    walk entered the anchor is the anchor's unique dendrogram child on that
    side (the supervertex itself for immediate hits), so the key identifies
    physical chains exactly.  Arrival-edge children are *spliced*: the chain
    inserts between the anchor and that child.
    """
    n = t0.n_edges
    nv = t0.n_vertices
    parent = np.full(n + nv, -1, dtype=np.int64)
    parent[n:] = t0.max_inc  # Eq. 1 for the original vertices

    # Start from the contracted dendrogram: alpha-edges keep their contracted
    # parents until a chain splices in below them.
    parent[t1.idx] = alpha_edge_parent
    emit("expand1.seed_alpha", "scatter", int(t1.idx.size))
    if n == 0:
        return parent

    # Map global edge index -> parent within the contracted dendrogram, for
    # pointer chasing (-1 outside T_1 / at the contracted root).
    gparent = np.full(n, -1, dtype=np.int64)
    gparent[t1.idx] = alpha_edge_parent

    non_alpha = ~t0.alpha
    e_idx = t0.idx[non_alpha]
    sv = t0.vmap[t0.u[non_alpha]] if t0.vmap is not None else np.zeros(0, np.int64)

    m = e_idx.size
    cursor = alpha_vertex_parent[sv] if m else np.empty(0, np.int64)
    # Arrival node: vertex nodes encoded as -(sv + 2); edges as their index.
    arrival = -(sv + 2)
    anchor = np.full(m, -1, dtype=np.int64)

    active = cursor >= 0 if m else np.zeros(0, bool)
    while active.any():
        sel = np.nonzero(active)[0]
        cur = cursor[sel]
        resolved = cur < e_idx[sel]
        emit("expand1.compare", "map", int(sel.size))
        res_sel = sel[resolved]
        anchor[res_sel] = cursor[res_sel]
        active[res_sel] = False
        adv = sel[~resolved]
        arrival[adv] = cursor[adv]
        cursor[adv] = gparent[cursor[adv]]
        emit("expand1.pointer_chase", "gather", int(adv.size))
        active[adv] = cursor[adv] >= 0
    # Walkers that fell off the top (cursor == -1) are root-chain edges and
    # keep anchor == -1; their arrival value is ignored.

    # ---- group chains by (anchor, arrival) and splice -----------------------
    root_mask = anchor < 0
    chain_e = e_idx[~root_mask]
    chain_anchor = anchor[~root_mask]
    chain_arrival = arrival[~root_mask]

    if chain_e.size:
        order = lexsort(
            (chain_e, chain_arrival, chain_anchor), name="expand1.chain_sort"
        )
        se = chain_e[order]
        sa = chain_anchor[order]
        sarr = chain_arrival[order]
        heads = np.empty(se.size, dtype=bool)
        heads[0] = True
        heads[1:] = (sa[1:] != sa[:-1]) | (sarr[1:] != sarr[:-1])
        tails = np.empty(se.size, dtype=bool)
        tails[-1] = True
        tails[:-1] = heads[1:]
        # Within a chain: parent = predecessor (ascending index order).
        parent[se[1:][~heads[1:]]] = se[:-1][~heads[1:]]
        # Chain heads hang from their anchor.
        parent[se[heads]] = sa[heads]
        # Splice: when the walk arrived via an edge child c of the anchor,
        # the chain inserts between anchor and c, so c re-parents to the
        # chain tail (its largest-index member).
        splice = tails & (sarr >= 0)
        parent[sarr[splice]] = se[splice]
        emit("expand1.link", "scatter", int(se.size))

    # ---- root chain ----------------------------------------------------------
    # Unresolved edges are ancestors of the contracted dendrogram's root:
    # sort them into the top lineage and splice the contracted root below.
    root_edges = sort(e_idx[root_mask], name="expand1.root_sort")
    if root_edges.size:
        contracted_root = int(t1.idx[np.nonzero(alpha_edge_parent < 0)[0][0]])
        parent[root_edges[0]] = -1
        parent[root_edges[1:]] = root_edges[:-1]
        parent[contracted_root] = root_edges[-1]
        emit("expand1.root_chain", "scatter", int(root_edges.size))
    return parent
