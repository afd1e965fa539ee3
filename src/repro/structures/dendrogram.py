"""The dendrogram structure (Section 3.1.2 of the paper).

A single-linkage dendrogram over an MST with ``n`` edges and ``nv = n + 1``
vertices is a rooted binary tree with two node kinds:

* **edge nodes** ``0..n-1`` -- internal nodes; node ``k`` is the MST edge of
  sorted index ``k`` (descending weight, so node 0 is the heaviest edge and
  the root);
* **vertex nodes** ``n..n+nv-1`` -- leaves; node ``n + i`` is data point
  ``i``.

The whole structure is one parent array: ``parent[x]`` is the edge node above
``x`` (``-1`` for the root).  Because an edge's dendrogram parent is always a
heavier edge, ``parent[k] < k`` for every edge node -- an invariant
``validate()`` checks and that several algorithms exploit.

The class also provides the derived quantities used across the paper:
dendrogram height and *skewness* (height / log2(n), the "Imb" column of
Table 2), the leaf/chain/alpha classification of edge nodes (Figure 7),
flat cuts, conversion to a SciPy linkage matrix, and cophenetic / LCDA
queries used by the theorem tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..parallel import UnionFind
from .edgelist import InvalidGraphError, SortedEdgeList

__all__ = ["Dendrogram", "EDGE_LEAF", "EDGE_CHAIN", "EDGE_ALPHA"]

EDGE_LEAF = 0
EDGE_CHAIN = 1
EDGE_ALPHA = 2


@dataclass
class Dendrogram:
    """Single-linkage dendrogram as a parent array over edge + vertex nodes."""

    edges: SortedEdgeList
    parent: np.ndarray  # (n_edges + n_vertices,), int64, -1 at the root

    _depths: np.ndarray | None = field(default=None, repr=False, compare=False)
    _children_count: np.ndarray | None = field(default=None, repr=False, compare=False)

    # -- basic shape ---------------------------------------------------------
    @property
    def n_edges(self) -> int:
        return self.edges.n_edges

    @property
    def n_vertices(self) -> int:
        return self.edges.n_vertices

    @property
    def n_nodes(self) -> int:
        return self.n_edges + self.n_vertices

    @property
    def root(self) -> int:
        """Root node id (edge node 0 -- the heaviest edge) when n_edges > 0."""
        if self.n_edges == 0:
            raise ValueError("a dendrogram with no edges has no edge root")
        return 0

    def vertex_node(self, vertex: int) -> int:
        """Dendrogram node id of data point ``vertex``."""
        return self.n_edges + vertex

    def is_edge_node(self, node: int) -> bool:
        return 0 <= node < self.n_edges

    # -- structural derived data ----------------------------------------------
    def edge_parents(self) -> np.ndarray:
        """Parents of the edge nodes only (``(n_edges,)`` view)."""
        return self.parent[: self.n_edges]

    def vertex_parents(self) -> np.ndarray:
        """Parents of the vertex nodes only (``(n_vertices,)`` view)."""
        return self.parent[self.n_edges:]

    def children_counts(self) -> np.ndarray:
        """Number of children of each edge node (should be 2 everywhere)."""
        if self._children_count is None:
            counts = np.zeros(self.n_edges, dtype=np.int64)
            valid = self.parent >= 0
            np.add.at(counts, self.parent[valid], 1)
            self._children_count = counts
        return self._children_count

    def children_lists(self) -> list[list[int]]:
        """Children of every edge node (python lists; small/medium inputs)."""
        out: list[list[int]] = [[] for _ in range(self.n_edges)]
        for node in range(self.n_nodes):
            p = int(self.parent[node])
            if p >= 0:
                out[p].append(node)
        return out

    def depths(self) -> np.ndarray:
        """Depth of every node (root = 0), via pointer doubling.

        O(n log h) bulk gathers instead of an O(n) sequential walk, matching
        how a GPU would compute it.
        """
        if self._depths is None:
            ptr = self.parent.copy()
            depth = (ptr >= 0).astype(np.int64)
            roots = ptr < 0
            ptr[roots] = np.nonzero(roots)[0]  # self-loop the root(s)
            while True:
                depth_next = depth + depth[ptr]
                ptr_next = ptr[ptr]
                if np.array_equal(ptr_next, ptr):
                    break
                depth = depth_next
                ptr = ptr_next
            self._depths = depth
        return self._depths

    @property
    def height(self) -> int:
        """Height of the dendrogram: max node depth."""
        if self.n_nodes == 0:
            return 0
        return int(self.depths().max())

    @property
    def skewness(self) -> float:
        """Height / log2(n): the paper's dendrogram imbalance measure.

        1.0 is a perfectly balanced tree; real datasets in Table 2 reach
        1e3 - 6e5.
        """
        n = self.n_edges
        if n <= 1:
            return 1.0
        return self.height / math.log2(n)

    # -- edge-node classification (Section 3.1.2, Figure 7) -------------------
    def edge_kinds(self) -> np.ndarray:
        """Classify each edge node as EDGE_LEAF / EDGE_CHAIN / EDGE_ALPHA.

        Classification is by the number of *vertex* children: 2 -> leaf,
        1 -> chain, 0 -> alpha.
        """
        vertex_children = np.zeros(self.n_edges, dtype=np.int64)
        vp = self.vertex_parents()
        valid = vp >= 0
        np.add.at(vertex_children, vp[valid], 1)
        kinds = np.full(self.n_edges, EDGE_CHAIN, dtype=np.int64)
        kinds[vertex_children == 2] = EDGE_LEAF
        kinds[vertex_children == 0] = EDGE_ALPHA
        return kinds

    def kind_counts(self) -> dict[str, int]:
        kinds = self.edge_kinds()
        return {
            "leaf": int((kinds == EDGE_LEAF).sum()),
            "chain": int((kinds == EDGE_CHAIN).sum()),
            "alpha": int((kinds == EDGE_ALPHA).sum()),
        }

    def chain_lengths(self) -> np.ndarray:
        """Lengths of maximal chains (non-branching edge-node lineages)."""
        kinds = self.edge_kinds()
        ep = self.edge_parents()
        # An edge starts a new chain if its parent is not a chain edge (or it
        # is the root); chains are maximal runs of parent links through chain
        # edges terminated by a leaf or alpha edge.
        lengths: dict[int, int] = {}
        # chain id = topmost edge of the chain; walk each edge up to its top
        # through chain parents (memoized).
        top = np.full(self.n_edges, -1, dtype=np.int64)
        for k in range(self.n_edges):
            # find top of k's chain
            path = []
            x = k
            while top[x] == -1:
                path.append(x)
                p = int(ep[x])
                if p == -1 or kinds[p] != EDGE_CHAIN:
                    top[x] = x
                    break
                x = p
            t = top[x]
            for y in path:
                top[y] = t
        for k in range(self.n_edges):
            lengths[int(top[k])] = lengths.get(int(top[k]), 0) + 1
        return np.array(sorted(lengths.values(), reverse=True), dtype=np.int64)

    # -- queries --------------------------------------------------------------
    def ancestors(self, node: int) -> list[int]:
        """Ancestor edge nodes of ``node``, starting at itself (Def. 2)."""
        out = []
        x = node
        while x != -1:
            out.append(x)
            x = int(self.parent[x])
        return out

    def is_ancestor(self, anc: int, node: int) -> bool:
        """True iff edge node ``anc`` is an ancestor of ``node`` (self counts)."""
        x = node
        while x != -1:
            if x == anc:
                return True
            x = int(self.parent[x])
        return False

    def lcda(self, ei: int, ej: int) -> int:
        """Lowest Common Dendrogram Ancestor of edge nodes ``ei``/``ej`` (Def. 3)."""
        return self.lcda_nodes(ei, ej)

    def cophenetic_distance(self, i: int, j: int) -> float:
        """Single-linkage merge height of data points ``i`` and ``j``."""
        if i == j:
            return 0.0
        a = self.lcda_nodes(self.vertex_node(i), self.vertex_node(j))
        return float(self.edges.w[a])

    def lcda_nodes(self, a: int, b: int) -> int:
        """LCA allowing vertex nodes as inputs; result is an edge node."""
        depths = self.depths()
        while depths[a] > depths[b]:
            a = int(self.parent[a])
        while depths[b] > depths[a]:
            b = int(self.parent[b])
        while a != b:
            a = int(self.parent[a])
            b = int(self.parent[b])
        return a

    # -- conversions ------------------------------------------------------------
    def to_linkage(self) -> np.ndarray:
        """SciPy-style linkage matrix ``Z`` (``(n_vertices - 1, 4)``).

        Row t merges two clusters at the weight of edge ``n-1-t`` (edges are
        processed lightest-first).  Cluster ids follow SciPy's convention:
        singletons ``0..nv-1``, the cluster created by row t is ``nv + t``.
        """
        n, nv = self.n_edges, self.n_vertices
        if n != nv - 1:
            raise ValueError("to_linkage requires a spanning-tree dendrogram")
        Z = np.zeros((n, 4))
        uf = UnionFind(nv)
        cluster_id = np.arange(nv, dtype=np.int64)  # root -> scipy cluster id
        cluster_size = np.ones(nv, dtype=np.int64)
        u, v, w = self.edges.u, self.edges.v, self.edges.w
        for t in range(n):
            k = n - 1 - t  # lightest remaining edge
            ra, rb = uf.find(int(u[k])), uf.find(int(v[k]))
            ca, cb = cluster_id[ra], cluster_id[rb]
            size = cluster_size[ra] + cluster_size[rb]
            Z[t, 0], Z[t, 1] = min(ca, cb), max(ca, cb)
            Z[t, 2] = w[k]
            Z[t, 3] = size
            r = uf.union(ra, rb)
            cluster_id[r] = nv + t
            cluster_size[r] = size
        return Z

    def cut(self, threshold: float) -> np.ndarray:
        """Flat single-linkage clusters: merge along edges with w <= threshold.

        Returns ``(n_vertices,)`` labels in ``0..k-1`` (cluster of the
        smallest member vertex first), matching
        ``scipy.cluster.hierarchy.fcluster(Z, threshold, 'distance')`` up to
        label permutation.  A NaN threshold raises ``ValueError``;
        ``+-inf`` give one cluster / all singletons.
        """
        from ..parallel.connected import components_of_forest

        if np.isnan(threshold):
            raise ValueError("cut threshold must not be NaN")
        mask = self.edges.w <= threshold
        sub = np.stack([self.edges.u[mask], self.edges.v[mask]], axis=1)
        labels, _k = components_of_forest(self.n_vertices, sub)
        return labels

    def subtree_sizes(self) -> np.ndarray:
        """Number of data points under each edge node.

        Exploits ``parent[k] < k``: accumulating from the largest edge index
        downward visits children before parents.
        """
        sizes = np.zeros(self.n_edges, dtype=np.int64)
        vp = self.vertex_parents()
        np.add.at(sizes, vp[vp >= 0], 1)
        ep = self.edge_parents()
        for k in range(self.n_edges - 1, 0, -1):
            p = ep[k]
            if p >= 0:
                sizes[p] += sizes[k]
        return sizes

    def to_newick(self, leaf_names: list[str] | None = None,
                  precision: int = 6) -> str:
        """Newick serialization of the dendrogram (phylogenetics exchange
        format, the introduction's tree-of-life use-case).

        Branch lengths are parent-child merge-height differences (the root
        edge gets its own weight).  Leaves are named ``leaf_names[i]`` or
        ``v<i>``.  Intended for export to tree viewers; quadratic string
        building keeps it for small/medium trees.
        """
        if self.n_edges == 0:
            if self.n_vertices == 1:
                name = leaf_names[0] if leaf_names else "v0"
                return f"{name};"
            raise ValueError("newick export needs a connected dendrogram")
        if leaf_names is not None and len(leaf_names) != self.n_vertices:
            raise ValueError(
                f"need {self.n_vertices} leaf names, got {len(leaf_names)}"
            )
        children = self.children_lists()
        w = self.edges.w
        out: list[str] = []

        # iterative traversal (skewed dendrograms overflow recursion limits);
        # the stack interleaves structural text with nodes to visit
        stack: list[tuple[str, int, float]] = [("node", self.root, float(w[0]))]
        while stack:
            kind, node, parent_h = stack.pop()
            if kind == "text":
                out.append(str(node))
                continue
            if node >= self.n_edges:
                vid = node - self.n_edges
                name = leaf_names[vid] if leaf_names else f"v{vid}"
                out.append(f"{name}:{parent_h:.{precision}g}")
                continue
            height = float(w[node])
            length = max(parent_h - height, 0.0)
            # push closing text first (stack is LIFO), then children with
            # separators so they pop as  ( c1 , c2 ):len
            stack.append(("text", f"):{length:.{precision}g}", 0.0))
            kids = children[node]
            for i, ch in enumerate(reversed(kids)):
                stack.append(("node", ch, height))
                if i != len(kids) - 1:
                    stack.append(("text", ",", 0.0))
            stack.append(("text", "(", 0.0))
        return "".join(out) + ";"

    # -- validation ---------------------------------------------------------------
    def validate(self) -> None:
        """Check all structural invariants; raise :class:`~repro.structures.
        edgelist.InvalidGraphError` (a ``ValueError``) on violation.

        * parent array has the right length and in-range values;
        * exactly one root, and it is edge node 0 (heaviest edge);
        * parents are always edge nodes (vertex nodes are leaves);
        * ``parent[k] < k`` for edge nodes (parents are heavier);
        * every edge node has exactly two children;
        * every node reaches the root (no cycles / detached parts).
        """
        n, nv = self.n_edges, self.n_vertices
        p = self.parent
        if p.shape != (n + nv,):
            raise InvalidGraphError(f"parent must have shape ({n + nv},), got {p.shape}")
        if n == 0:
            if nv and not (p == -1).all():
                raise InvalidGraphError("edgeless dendrogram must have all roots")
            return
        roots = np.nonzero(p == -1)[0]
        if roots.size != 1 or roots[0] != 0:
            raise InvalidGraphError(
                f"expected the unique root to be edge node 0, got roots={roots}"
            )
        if p.max() >= n:
            raise InvalidGraphError("a vertex node appears as a parent; leaves only")
        if p[p >= 0].min() < 0:
            raise InvalidGraphError("negative parent other than -1 found")
        ek = p[1:n]
        if np.any(ek >= np.arange(1, n)):
            bad = int(np.nonzero(ek >= np.arange(1, n))[0][0] + 1)
            raise InvalidGraphError(
                f"edge node {bad} has parent {int(p[bad])} >= itself; "
                "parents must be heavier (smaller index)"
            )
        counts = np.zeros(n, dtype=np.int64)
        np.add.at(counts, p[p >= 0], 1)
        if not (counts == 2).all():
            bad = int(np.nonzero(counts != 2)[0][0])
            raise InvalidGraphError(
                f"edge node {bad} has {int(counts[bad])} children, expected 2"
            )
        # Reachability: parent[k] < k for edges and vertex parents are edges,
        # so reachability to node 0 follows by induction; nothing more to do.

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dendrogram):
            return NotImplemented
        return (
            self.n_edges == other.n_edges
            and self.n_vertices == other.n_vertices
            and np.array_equal(self.parent, other.parent)
        )
