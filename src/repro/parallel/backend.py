"""Pluggable execution backends: the layer under the primitive vocabulary.

The PANDORA paper dispatches one fixed vocabulary of data-parallel kernels
(maps, reductions, scans, sorts, gathers, scatters, pointer jumps) through
Kokkos to interchangeable CPU/GPU execution spaces.  This module is the
reproduction's version of that seam: one class, :class:`NumpyBackend`
(also named :class:`Backend`), declares the vocabulary and is its
reference realization; the other backends subclass it and override the
kernels they realize differently.  Everything above --
:mod:`repro.parallel.primitives`, the connected-components kernels, and the
:mod:`repro.core` hot paths -- calls whichever backend is active.

Backends
--------
``numpy``
    :class:`NumpyBackend`, the reference realization: every kernel is a bulk
    vectorized NumPy operation, producing bit-identical output and
    identical kernel traces to the pre-backend reproduction.  Its sort
    vocabulary routes through the shared :mod:`repro.parallel.sortlib`
    engine (key narrowing + LSD radix).
``numba``
    :class:`~repro.parallel.backend_numba.NumbaBackend`, an optional-
    dependency JIT backend that fuses the scatter/jump-heavy inner loops
    (pointer doubling, ordered scatter-max, the expansion pool partition)
    and JIT-builds the canonical sort's narrowed u64 key before handing it
    to the same ``sortlib`` radix engine.  Registered always; *available*
    only when numba is importable.
``numba-python``
    The same fused-kernel definitions executed by the plain interpreter
    (no JIT).  Slow, but always available: the backend-parity test suite
    uses it to validate the numba kernels in environments without numba.
``numba-parallel``
    :class:`~repro.parallel.backend_numba_parallel.NumbaParallelBackend`,
    the serving backend: the *same* kernel definitions as ``numba``,
    compiled a second time ``nogil=True`` (so concurrent
    ``Engine.map``/``fit_many`` jobs run kernels truly in parallel across
    threads) and, for those with a ``prange`` outer loop,
    ``parallel=True`` (round-synchronous pointer doubling, elementwise key
    builds, kNN queries, Boruvka seeding and leaf pairs).  Only kernels
    whose algorithm differs get their own body: chunked pool compaction
    and a parallel-histogram realization of the sortlib LSD radix.
    Declares :attr:`Backend.releases_gil`; available only when numba
    imports.
``numba-parallel-python``
    The ``numba-parallel`` kernel table interpreted (``prange`` as
    ``range``) -- the always-available parity twin, like ``numba-python``.

Selection
---------
The active backend is resolved in priority order:

1. the innermost :func:`use_backend` context, if any;
2. the process default set by :func:`set_default_backend` (the CLI's
   ``--backend`` flag calls this);
3. the ``REPRO_BACKEND`` environment variable;
4. ``numpy``.

Contract for backend authors
----------------------------
* **Same math, same trace.**  An override must produce bit-identical arrays
  to :class:`NumpyBackend` and emit the *same* :class:`KernelRecord`
  sequence (name, category, work, count).  Backend-internal fusion (e.g.
  building the narrowed sort key inside the sort kernel) is invisible to
  the trace: the trace records the logical parallel schedule, not the
  realization.
* **Workspace ownership.**  Every backend instance owns its scratch-buffer
  pools (:attr:`Backend.workspace`), **one per thread**: backend instances
  are cached singletons shared by every execution context, so per-thread
  pools are what lets N threads run kernels concurrently with zero
  scratch cross-talk (the engine concurrency contract).  A future CuPy
  backend hands out device arrays from the same interface.
  :func:`repro.parallel.workspace.workspace` resolves to the *active*
  backend's pool for the calling thread.
* **No-emit calls.**  Vocabulary methods accept ``name=None`` to suppress
  kernel accounting; kernel authors use this when several backend calls
  realize one logical kernel whose combined record they emit themselves.
"""

from __future__ import annotations

import importlib.util
import os
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterator

import numpy as np

from . import sortlib
from .machine import KernelCategory, emit
from .workspace import Workspace

__all__ = [
    "Backend",
    "NumpyBackend",
    "BackendUnavailable",
    "register_backend",
    "registered_backends",
    "available_backends",
    "backend_available",
    "get_backend",
    "set_default_backend",
    "use_backend",
    "register_fallback",
    "fallback_chain",
]


class BackendUnavailable(RuntimeError):
    """A registered backend cannot run in this environment."""


#: Monotone float64 -> u64 key masks (shared by the spatial key encode).
_F64_SIGN = np.uint64(0x8000000000000000)
_F64_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)
_F64_NOSIGN = np.uint64(0x7FFFFFFFFFFFFFFF)
_F64_EXP = np.uint64(0x7FF0000000000000)


class NumpyBackend:
    """The data-parallel execution substrate and its reference realization.

    Every kernel is a bulk vectorized NumPy operation, a pure extraction
    of the pre-backend code paths: outputs and kernel traces are
    bit-identical to them by construction.  Other backends subclass this
    class and override what they realize differently (the numba backends
    fuse the scatter/jump-heavy loops); callers obtain the active instance
    with :func:`get_backend`.  Every method that performs kernel work
    takes a ``name`` argument: the emitted
    :class:`~repro.parallel.machine.KernelRecord` name, or ``None`` to
    suppress emission when the caller accounts a fused kernel itself.
    """

    #: Registry name; informational on unregistered instances.
    name: str = "numpy"

    #: Capability flag (the serving-parallelism contract): ``True`` when
    #: this backend's kernels release the GIL (or run on a device stream),
    #: so threads genuinely overlap kernel execution.  The engine keys its
    #: default ``max_workers`` on it: GIL-holding backends get a small pool
    #: (workers only overlap NumPy-internal unlocked stretches),
    #: GIL-releasing ones get one worker per core.  Backends set it as an
    #: instance attribute when capability depends on construction (the
    #: interpreted parity twins never release the GIL).
    releases_gil: bool = False

    def __init__(self) -> None:
        # Per-thread scratch pools (see module docstring): the instance is a
        # shared singleton, the pools are not.
        self._pools = threading.local()

    def _make_workspace(self) -> Workspace:
        """Pool factory; a device backend returns a device-buffer pool."""
        return Workspace()

    @property
    def workspace(self) -> Workspace:
        """This backend's scratch pool for the *calling thread*.

        Created lazily on first access per thread; ``scoped_workspace``
        swaps it via the setter (also thread-locally).
        """
        ws = getattr(self._pools, "ws", None)
        if ws is None:
            ws = self._pools.ws = self._make_workspace()
        return ws

    @workspace.setter
    def workspace(self, ws: Workspace) -> None:
        self._pools.ws = ws

    # -- helpers -----------------------------------------------------------
    def _emit(self, name: str | None, category: KernelCategory, work: int) -> None:
        if name is not None:
            emit(name, category, work)

    def take(self, name: str, size: int, dtype) -> np.ndarray:
        """Scratch buffer from this backend's workspace (see its contract)."""
        return self.workspace.take(name, size, dtype)

    # -- array constructors (no kernel accounting) -------------------------
    # A future device backend returns device arrays from these; hot-path
    # code must not call np.empty/np.full/np.arange directly.
    def asarray(self, a, dtype=None) -> np.ndarray:
        return np.asarray(a, dtype=dtype)

    def empty(self, n: int, dtype) -> np.ndarray:
        return np.empty(n, dtype=dtype)

    def zeros(self, n: int, dtype) -> np.ndarray:
        return np.zeros(n, dtype=dtype)

    def full(self, n: int, fill, dtype) -> np.ndarray:
        return np.full(n, fill, dtype=dtype)

    def arange(self, n: int, dtype) -> np.ndarray:
        return np.arange(n, dtype=dtype)

    # -- primitive vocabulary ----------------------------------------------
    def map(self, fn, *arrays: np.ndarray, name: str | None = "map") -> np.ndarray:
        out = fn(*arrays)
        work = max((int(np.size(a)) for a in arrays), default=0)
        self._emit(name, "map", work)
        return out

    def exclusive_scan(self, a, name: str | None = "scan", dtype=None) -> np.ndarray:
        self._emit(name, "scan", a.size)
        if dtype is None:
            dtype = (np.result_type(a.dtype, np.int64)
                     if np.issubdtype(a.dtype, np.integer) else a.dtype)
        out = np.empty(a.size, dtype=dtype)
        if a.size:
            np.cumsum(a[:-1], out=out[1:])
            out[0] = 0
        return out

    def sort(self, a, name: str | None = "sort") -> np.ndarray:
        self._emit(name, "sort", a.size)
        return np.sort(a, kind="stable")

    def argsort(self, a, name: str | None = "argsort") -> np.ndarray:
        self._emit(name, "sort", a.size)
        return np.argsort(a, kind="stable")

    def lexsort(self, keys, name: str | None = "lexsort") -> np.ndarray:
        if not keys:
            raise ValueError("lexsort requires at least one key")
        self._emit(name, "sort", keys[0].size)
        return np.lexsort(keys)

    def canonical_sort_order(
        self, weights, ids, name: str | None = "edges.sort_desc"
    ) -> np.ndarray:
        """Permutation sorting by (weight descending, position ascending).

        ``ids`` must be the identity permutation in the caller's index
        dtype; it participates only as the tie-breaker, which lets a
        backend replace the two-key lexsort with a narrowed single-key
        sort (same record emitted either way).  NaN weights are rejected
        by ``as_edge_arrays`` only while debug checks are on; a backend
        realization must therefore follow the sortlib special-value
        policy (every NaN keys last, after ``-inf``, mutually tied) so
        orders stay bit-identical across backends either way.
        """
        self._emit(name, "sort", weights.size)
        # Key narrowing (sortlib): one monotone u64 key replaces the two-key
        # float lexsort, then the mask-narrowed LSD radix argsorts it.  All
        # of it is realization detail inside the single emitted sort record.
        return self._argsort_unsigned(self._weight_keys(weights))

    def argsort_bounded(
        self, keys, min_key: int, max_key: int,
        name: str | None = "argsort",
    ) -> np.ndarray:
        """Stable ascending argsort of integer keys provably in
        ``[min_key, max_key]``.

        Bit-identical to ``np.argsort(keys, kind="stable")``; the bound is
        a *narrowing hint* that lets a backend run a counting/radix sort in
        O(n + k) instead of a comparison sort (the chain-stitch sort's keys
        are bounded by ``2 * n_edges + 1``).  One ``sort`` record of
        ``keys.size`` either way; an empty bound raises ``ValueError`` at
        every size.
        """
        self._emit(name, "sort", keys.size)
        # The provable bound picks the narrowest unsigned bias dtype; the
        # radix then narrows further from the runtime varying-bit mask.
        return self._argsort_unsigned(sortlib.bias_bounded_keys(
            keys, min_key, max_key, workspace=self.workspace
        ))

    # -- sort hooks (no records) -------------------------------------------
    # Every sort above is written once over ``_weight_keys`` and
    # ``_radix_passes``; a backend specializes the key build or the radix
    # pass execution, never the sort methods or sortlib's strategy.
    def _weight_keys(self, weights) -> np.ndarray:
        """Monotone u64 keys whose stable ascending order is the canonical
        (weight descending, position ascending) order, with the sortlib
        special-value policy.  May return workspace scratch."""
        return sortlib.encode_weights_descending(
            weights, out=self.take("sortlib.wkey", weights.size, np.uint64),
            workspace=self.workspace,
        )

    #: ``(keys, windows) -> permutation``: executes a sortlib radix plan's
    #: digit windows into a fresh array; ``None`` keeps sortlib's passes.
    _radix_passes = None

    def _argsort_unsigned(self, keys) -> np.ndarray:
        """Stable ascending argsort of unsigned keys into a fresh,
        caller-owned array, by the strategy sortlib plans."""
        return sortlib.stable_argsort_unsigned(
            keys, self.workspace, self._radix_passes
        )

    def gather(self, a, idx, name: str | None = "gather") -> np.ndarray:
        self._emit(name, "gather", int(np.size(idx)))
        return a[idx]

    def gather_into(
        self, a, idx, out, mode: str = "raise", name: str | None = "gather"
    ) -> np.ndarray:
        """``out[i] = a[idx[i]]`` into a preallocated buffer."""
        self._emit(name, "gather", int(np.size(idx)))
        np.take(a, idx, out=out, mode=mode)
        return out

    def scatter(self, target, idx, values, name: str | None = "scatter"):
        self._emit(name, "scatter", int(np.size(idx)))
        target[idx] = values
        return target

    def scatter_max_pairs(self, out, u, v, idx, name: str | None = "scatter_max"):
        """maxIncident kernel: ``out[u[i]] = out[v[i]] = idx[i]`` in order.

        ``idx`` ascending makes last-write-wins an atomic-max over both
        endpoint columns (paper Eq. 1 in one scatter).
        """
        m = int(np.size(u))
        # Ordered-scatter trick: interleave the endpoint columns so writes
        # occur in ascending index order; last-write-wins realizes the
        # atomic-max (the NumPy analogue of one parallel_for + atomicMax).
        # Scratch slots derive from the kernel name so distinct call sites
        # never alias each other's live buffers (workspace contract).
        slot = name or "scatter_max"
        verts = self.take(slot + ".verts", 2 * m, u.dtype)
        verts[0::2] = u
        verts[1::2] = v
        vals = self.take(slot + ".vals", 2 * m, idx.dtype)
        vals[0::2] = idx
        vals[1::2] = idx
        out[verts] = vals
        self._emit(name, "scatter", 2 * m)
        return out

    def scatter_min_at(self, target, idx, values, name: str | None = "scatter_min"):
        self._emit(name, "scatter", int(np.size(idx)))
        np.minimum.at(target, idx, values)
        return target

    def masked_fill(self, dst, mask, src, name: str | None = None) -> np.ndarray:
        """``dst[i] = src[i] (or scalar src) where mask[i]``, in place."""
        self._emit(name, "map", dst.size)
        np.copyto(dst, src, where=mask)
        return dst

    def where(self, cond, a, b, name: str | None = None) -> np.ndarray:
        self._emit(name, "map", int(np.size(cond)))
        return np.where(cond, a, b)

    def compact(self, a, mask, name: str | None = "compact") -> np.ndarray:
        if name is not None:
            emit(name + ".scan", "scan", mask.size)
            emit(name + ".gather", "gather", int(mask.sum()))
        return a[mask]

    def segmented_first(self, sorted_keys, name: str | None = "segmented_first"):
        self._emit(name, "map", sorted_keys.size)
        if sorted_keys.size == 0:
            return np.zeros(0, dtype=bool)
        head = np.empty(sorted_keys.size, dtype=bool)
        head[0] = True
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=head[1:])
        return head

    # -- fused hot-path kernels --------------------------------------------
    def resolve_pointer_forest(self, pointer, name: str = "cc.jump") -> np.ndarray:
        """Pointer-double a rooted pointer forest to per-element root labels.

        One ``jump`` record per doubling round (including the terminal
        no-change round), work ``pointer.size`` each.  The result may be
        ``pointer`` itself or a workspace buffer: scratch lifetime rules
        apply.
        """
        n = pointer.size
        if n == 0:
            return pointer
        buf = self.take("cc.jump_buf", n, pointer.dtype)
        while True:
            np.take(pointer, pointer, out=buf)
            emit(name, "jump", n)
            if np.array_equal(buf, pointer):
                return pointer
            pointer, buf = buf, pointer

    def expand_pool_partition(
        self, pool_idx, pool_vert, keep, vmap,
        level_idx, level_u, non_alpha, n_contracted,
        nxt_idx, nxt_vert, name: str | None = "expand.pool_relabel",
    ) -> int:
        # ``tmp`` staging keeps every vmap gather reading a buffer it does
        # not write.
        """One level of ``assign_chains`` pool maintenance; returns new length.

        Writes the surviving pool entries (``keep`` mask; ``None`` keeps
        all) followed by the level's contracted (non-alpha) edges into
        ``nxt_idx``/``nxt_vert``, relabeling every supervertex through
        ``vmap``.  Order is deterministic: survivors in pool order, then
        contracted edges in level order.  Emits one ``gather`` record of
        the new pool length.
        """
        tmp = self.take("expand.pool_tmp", nxt_idx.size, nxt_idx.dtype)
        if keep is None:
            k = int(pool_idx.size)
            nxt_idx[:k] = pool_idx
            tmp[:k] = pool_vert
        else:
            k = int(keep.sum())
            np.compress(keep, pool_idx, out=nxt_idx[:k])
            np.compress(keep, pool_vert, out=tmp[:k])
        np.take(vmap, tmp[:k], out=nxt_vert[:k])

        c = int(n_contracted)
        np.compress(non_alpha, level_idx, out=nxt_idx[k : k + c])
        np.compress(non_alpha, level_u, out=tmp[:c])
        np.take(vmap, tmp[:c], out=nxt_vert[k : k + c])
        self._emit(name, "gather", k + c)
        return k + c

    def chain_sort_keys(self, anchor, side, out, name: str | None = None):
        """Chain-sort key build: ``out[i] = 2*anchor[i] + side[i]``, or
        ``-1`` where ``anchor`` is negative (the root chain).  ``out`` may
        be narrower than ``anchor``; the cast is unchecked (callers size
        the key dtype so every valid key fits)."""
        self._emit(name, "map", int(np.size(anchor)))
        np.multiply(anchor, 2, out=out, casting="unsafe")
        out += side
        out[anchor < 0] = -1
        return out

    # -- spatial kernel vocabulary (kd-tree / kNN / dual-tree Boruvka) -----
    # The spatial front-end (``repro.spatial``) routes its hot kernels
    # through these methods.  ``tree`` arguments are duck-typed flat-array
    # kd-trees (``repro.spatial.kdtree.KDTree``): this module never imports
    # the spatial package at import time; the block-structured reference
    # bodies live in ``repro.spatial.kernels``, loaded lazily.  The
    # cross-backend contract is the usual one -- bit-identical arrays,
    # identical emitted records -- and every realization must be
    # deterministic (no visit-order-dependent float math escapes a kernel;
    # candidate ties break on point id).
    def encode_floats_ascending(self, values, name: str | None = None):
        """Order-preserving monotone float64 -> u64 keys, *ascending*.

        The radix-sort float transform (flip negatives, set the sign bit of
        non-negatives) with the sortlib special-value policy: ``-0.0`` keys
        equal to ``+0.0`` and every NaN maps to the all-ones key (sorts
        last).  Returns workspace scratch (slot ``spatial.fkey``).
        """
        self._emit(name, "map", int(np.size(values)))
        v = np.ascontiguousarray(values, dtype=np.float64)
        bits = v.view(np.uint64)
        out = self.take("spatial.fkey", bits.size, np.uint64)
        neg = (bits & _F64_SIGN).astype(bool)
        np.copyto(out, np.where(neg, ~bits, bits | _F64_SIGN))
        out[bits == _F64_SIGN] = _F64_SIGN    # -0.0 keys equal to +0.0
        out[(bits & _F64_NOSIGN) > _F64_EXP] = _F64_FULL  # NaN sorts last
        return out

    def spatial_partition(
        self, seg, coords, n_segs: int, name: str | None = "kdtree.partition"
    ) -> np.ndarray:
        """Segmented coordinate sort: the kd-tree's level-synchronous split.

        ``seg`` holds the (already grouped, ascending) segment id of every
        element and ``coords`` its split-dimension coordinate; the returned
        permutation orders the whole level by ``(segment, coordinate,
        position)`` -- i.e. sorts every node's slice independently, stably,
        in one bulk kernel.  Composed from the key encode and the two
        stable argsorts, so a subclass that specializes those needs no
        override here.
        """
        self._emit(name, "sort", int(coords.size))
        key = self.encode_floats_ascending(coords, name=None)
        o1 = self._argsort_unsigned(key)
        o2 = self.argsort_bounded(
            seg[o1], 0, max(int(n_segs) - 1, 0), name=None
        )
        return o1[o2]

    def spatial_knn(
        self, tree, queries, k: int, name: str | None = "kdtree.knn"
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact batched kNN against a built kd-tree.

        Returns ``(d2, ids)`` of shape ``(m, k)``: for every query, the
        ``k`` nearest points by ``(squared distance, point id)`` ascending
        lexicographic order -- a *unique* answer set, which is what makes
        the kNN artifact bit-identical across realizations (traversal
        order, and hence visit counts, are free to differ; one logical
        ``map`` record of ``m * k`` is emitted regardless).  ``ids`` carry
        the tree's index dtype.
        """
        self._emit(name, "map", int(queries.shape[0]) * int(k))
        from ..spatial import kernels as _spk

        d2, ids = _spk.knn_blockwise(tree, queries, k)
        return d2, ids.astype(tree.indices.dtype, copy=False)

    def spatial_node_reduce(
        self, tree, values_perm, kind: str,
        name: str | None = "emst.node_aggregate",
    ) -> np.ndarray:
        """Bottom-up per-node min/max of a tree-order per-point array.

        ``values_perm`` is indexed by tree position (``indices`` order);
        returns one reduced value per node.  ``kind`` is ``"min"`` or
        ``"max"``.  Exact (min/max never rounds), so bit-identity across
        backends is free.
        """
        self._emit(name, "reduce", int(tree.n_nodes))
        from ..spatial import kernels as _spk

        return _spk.node_reduce(tree, values_perm, kind)

    def spatial_seed_scan(
        self, labels, knn_i, knn_d2, core2, mutual: bool,
        out_d2, out_q, name: str | None = "emst.seed",
    ) -> None:
        """Boruvka seeding: each point's best foreign kNN entry.

        Fills ``out_d2``/``out_q`` per point with the smallest (mutual-
        reachability lifted when ``mutual``) distance to a neighbor outside
        the point's component and that neighbor's id; ``inf``/``-1`` when
        the whole row is same-component.  Ties keep the first (nearest-
        rank) column -- deterministic on every backend.
        """
        self._emit(name, "map", int(np.size(knn_i)))
        from ..spatial import kernels as _spk

        _spk.seed_scan(labels, knn_i, knn_d2, core2, mutual, out_d2, out_q)

    def spatial_leaf_pairs(
        self, tree, leaf_a, leaf_b, pair_lb, labels_perm, core2_perm,
        mutual: bool, bound_d2, offsets,
        out_comp, out_d2, out_p, out_q,
        name: str | None = "emst.leaf_pairs",
    ) -> None:
        """Batched leaf-leaf Boruvka interaction over a whole frontier level.

        For pair ``t`` (leaves ``leaf_a[t]``, ``leaf_b[t]``) every point of
        either side gets one output slot (A-side points in tree order, then
        B-side, at ``offsets[t]``): its nearest foreign point in the
        opposite leaf -- component, squared distance, and the two point ids
        -- when that strictly improves the component's *frozen* bound
        ``bound_d2`` and the bound exceeds the pair's lower bound
        ``pair_lb[t]``; ``inf`` distance otherwise.  Slots are disjoint, so
        a parallel realization is race-free; bounds are read-only inside
        the kernel (level-synchronous tightening happens in the driver),
        so results are schedule-independent.  Ties keep the first point in
        tree order.  One ``map`` record of the summed block work.
        """
        sizes_a = (tree.end[leaf_a] - tree.start[leaf_a]).astype(np.int64)
        sizes_b = (tree.end[leaf_b] - tree.start[leaf_b]).astype(np.int64)
        self._emit(name, "map", int(sizes_a @ sizes_b))
        from ..spatial import kernels as _spk

        _spk.leaf_pairs(
            tree, leaf_a, leaf_b, pair_lb, labels_perm, core2_perm,
            mutual, bound_d2, offsets, out_comp, out_d2, out_p, out_q,
        )


#: The same class under its role name: every backend is a ``Backend``, and
#: the realizations subclass the NumPy reference.
Backend = NumpyBackend


# ---------------------------------------------------------------------------
# Registry and active-backend plumbing.
#
# The registry itself (factories, cached instances) is process-global --
# backend instances are stateless singletons apart from their per-thread
# workspace pools -- but *selection* state is context-local: both the
# ``use_backend`` stack and the ``set_default_backend`` default live in
# ContextVars, so concurrent execution contexts pick backends independently
# (the engine concurrency contract).  A context that never selected anything
# falls back to ``REPRO_BACKEND`` / ``numpy``.
# ---------------------------------------------------------------------------

_FACTORIES: dict[str, tuple[Callable[[], Backend], Callable[[], bool]]] = {}
_INSTANCES: dict[str, Backend] = {}
_INSTANCES_LOCK = threading.Lock()
_STACK: ContextVar[tuple[Backend, ...]] = ContextVar(
    "repro_backend_stack", default=()
)
_DEFAULT: ContextVar[Backend | None] = ContextVar(
    "repro_backend_default", default=None
)


def register_backend(
    name: str,
    factory: Callable[[], Backend],
    available: Callable[[], bool] = lambda: True,
) -> None:
    """Register a backend factory under ``name``.

    ``available`` is a cheap environment probe (e.g. "is numba
    importable"); the factory is only invoked for available backends.
    Re-registering a name replaces the factory and drops any cached
    instance.
    """
    _FACTORIES[name] = (factory, available)
    _INSTANCES.pop(name, None)


def registered_backends() -> tuple[str, ...]:
    """Names of every registered backend, in registration order."""
    return tuple(_FACTORIES)


def backend_available(name: str) -> bool:
    """Whether ``name`` is registered and can run in this environment."""
    entry = _FACTORIES.get(name)
    return entry is not None and bool(entry[1]())


def available_backends() -> dict[str, bool]:
    """Registry name -> availability, e.g. for ``python -m repro devices``."""
    return {name: backend_available(name) for name in _FACTORIES}


def _instantiate(name: str) -> Backend:
    entry = _FACTORIES.get(name)
    if entry is None:
        raise ValueError(
            f"unknown backend {name!r}; registered: {', '.join(_FACTORIES)}"
        )
    factory, available = entry
    if not available():
        raise BackendUnavailable(
            f"backend {name!r} is registered but not available in this "
            f"environment (missing optional dependency?)"
        )
    instance = _INSTANCES.get(name)
    if instance is None:
        # Locked so concurrent first calls agree on one singleton (kernels
        # key scratch pools and identity checks on the instance).
        with _INSTANCES_LOCK:
            instance = _INSTANCES.get(name)
            if instance is None:
                instance = _INSTANCES[name] = factory()
    return instance


def get_backend() -> Backend:
    """The active backend: innermost ``use_backend``, else the context
    default, else lazy ``REPRO_BACKEND`` / ``numpy`` resolution."""
    stack = _STACK.get()
    if stack:
        return stack[-1]
    default = _DEFAULT.get()
    if default is None:
        default = _instantiate(os.environ.get("REPRO_BACKEND", "numpy"))
        _DEFAULT.set(default)
    return default


def set_default_backend(backend: str | Backend | None) -> Backend | None:
    """Set the default backend of the current execution context.

    ``None`` resets to lazy resolution (``REPRO_BACKEND`` env var, else
    ``numpy``) on the next :func:`get_backend` call.  Returns the previous
    default -- an instance or ``None`` -- suitable for handing back to this
    function to restore it without re-instantiating anything.

    Context-locality (engine contract): the setting is visible to this
    context and to contexts later copied from it (the CLI, and every job
    the engine's serving path dispatches, since jobs run in snapshots of
    the submitting context) -- but never to concurrent sibling contexts.
    """
    previous = _DEFAULT.get()
    if backend is None or isinstance(backend, Backend):
        _DEFAULT.set(backend)
    else:
        _DEFAULT.set(_instantiate(backend))
    return previous


# Graceful-degradation chain (the resilience contract): each entry names the
# backend a tripped circuit breaker falls back to.  Safe to follow blindly
# because the cross-backend contract guarantees bit-identical results on
# every backend -- degradation trades throughput, never correctness.
_FALLBACKS: dict[str, str] = {}


def register_fallback(name: str, fallback: str) -> None:
    """Declare that ``name`` degrades to ``fallback`` when it is tripped."""
    _FALLBACKS[name] = fallback


def fallback_chain(name: str) -> tuple[str, ...]:
    """Backends to degrade to from ``name``, nearest first.

    Follows the registered fallback edges, keeping only backends that are
    *available* in this environment (an unavailable link is skipped, not a
    dead end) and stopping on a cycle.  The starting backend itself is not
    included; unregistered names simply have an empty chain.
    """
    chain: list[str] = []
    seen = {name}
    current = name
    while True:
        nxt = _FALLBACKS.get(current)
        if nxt is None or nxt in seen:
            return tuple(chain)
        seen.add(nxt)
        current = nxt
        if backend_available(nxt):
            chain.append(nxt)


@contextmanager
def use_backend(backend: str | Backend) -> Iterator[Backend]:
    """Temporarily activate a backend (by registry name or instance)::

        with use_backend("numba"):
            pandora(u, v, w)

    The activation is context-local: concurrent executions can each pin a
    different backend without interfering.
    """
    b = backend if isinstance(backend, Backend) else _instantiate(backend)
    token = _STACK.set(_STACK.get() + (b,))
    try:
        yield b
    finally:
        _STACK.reset(token)


# ---------------------------------------------------------------------------
# Built-in registrations.  The numba module is imported lazily so that an
# environment without numba never pays (or fails) its import.
# ---------------------------------------------------------------------------

register_backend("numpy", NumpyBackend)


def _numba_importable() -> bool:
    return importlib.util.find_spec("numba") is not None


def _make_numba() -> Backend:
    from .backend_numba import NumbaBackend

    return NumbaBackend()


def _make_numba_python() -> Backend:
    from .backend_numba import NumbaBackend

    return NumbaBackend(jit=False)


def _make_numba_parallel() -> Backend:
    from .backend_numba_parallel import NumbaParallelBackend

    return NumbaParallelBackend()


def _make_numba_parallel_python() -> Backend:
    from .backend_numba_parallel import NumbaParallelBackend

    return NumbaParallelBackend(jit=False)


register_backend("numba", _make_numba, available=_numba_importable)
register_backend("numba-python", _make_numba_python)
register_backend("numba-parallel", _make_numba_parallel,
                 available=_numba_importable)
register_backend("numba-parallel-python", _make_numba_parallel_python)

# Degradation chains: JIT serving backend -> JIT sequential -> reference,
# and the interpreted parity twins mirror it.
register_fallback("numba-parallel", "numba")
register_fallback("numba", "numpy")
register_fallback("numba-parallel-python", "numba-python")
register_fallback("numba-python", "numpy")
