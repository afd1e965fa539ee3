"""Kernel workspace: reusable scratch buffers and hot-path configuration.

PANDORA's kernels are memory-bandwidth-bound (paper Sections 3.2-3.3): once
every step is a map/scan/sort, the remaining wins come from not paying the
allocator on every launch and from not moving twice the bytes the problem
needs.  This module provides both levers for the NumPy reproduction:

* :class:`Workspace` -- a pool of named, geometrically-grown scratch buffers.
  Hot-path kernels ``take()`` a view of the right size instead of calling
  ``np.empty``/``np.concatenate`` per level; across contraction levels and
  across repeated runs of the same problem size every request after the
  first is a zero-cost slice of an existing allocation.

  **Contract for kernel authors:** a buffer obtained from ``take`` is scratch
  owned by the *current call* only.  Never store it in a result object or a
  :class:`~repro.core.contraction.ContractionLevel` -- anything that outlives
  the call must be a fresh, owned array.  Two live buffers must use distinct
  slot names; the same name may be re-``take``-n freely once the previous
  use is finished.  Buffers are returned uninitialized (like ``np.empty``).

* :class:`HotpathConfig` -- the two hot-path settings callers pin: whether
  sorts use the radix engine or the comparison-sort references, and the
  int32 threshold.  :func:`hotpath` temporarily overrides them, which is
  how the sort benchmarks time the reference side and how the dtype
  property tests pin one side of an int32-vs-int64 comparison.

* :func:`index_dtype` -- the dtype-adaptivity rule: index arrays run in
  int32 whenever ``n_edges + n_vertices < int32_limit`` (default ``2**31``;
  halving index-array memory traffic), int64 otherwise, so
  ``int32_limit=0`` means int64 everywhere.  The public API boundary
  (``Dendrogram.parent``, ``as_edge_arrays``) always remains int64.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

__all__ = [
    "INT32_LIMIT",
    "HotpathConfig",
    "hotpath_config",
    "hotpath",
    "index_dtype",
    "ResourceError",
    "workspace_cap",
    "set_workspace_cap",
    "workspace_cap_set",
    "Workspace",
    "workspace",
    "scoped_workspace",
]

#: Largest ``n_edges + n_vertices`` for which int32 indexing is safe.
INT32_LIMIT = 2**31

#: Fault-injection / cooperative-deadline hook (``repro.engine.faults``
#: installs it on import); ``None`` keeps the seam at one identity check.
_FAULT_HOOK = None


class ResourceError(MemoryError):
    """A workspace allocation was refused by the memory-pressure guard.

    Classified *transient* by the resilience layer
    (:mod:`repro.engine.resilience`): the request may succeed after a
    retry or on a fallback backend whose pools are sized differently --
    the CPU analogue of a device-OOM that degrades to a host backend.
    """

    transient = True

    def __init__(self, name: str, requested: int, held: int, cap: int) -> None:
        super().__init__(
            f"workspace cap exceeded: slot {name!r} needs {requested:,} more "
            f"bytes with {held:,} already held (cap {cap:,})"
        )
        self.requested = requested
        self.held = held
        self.cap = cap


# Context-local memory-pressure cap (bytes of live workspace buffers per
# pool).  Like every other execution setting it is context-local, so a
# serving job inherits the submitting context's cap and concurrent contexts
# can differ; ``None`` (the default) disables the guard entirely.
_CAP: ContextVar[int | None] = ContextVar("repro_workspace_cap", default=None)


def workspace_cap() -> int | None:
    """The workspace byte cap active in the current context (or ``None``)."""
    return _CAP.get()


def set_workspace_cap(max_bytes: int | None) -> int | None:
    """Set the context's workspace byte cap; returns the previous value."""
    previous = _CAP.get()
    _CAP.set(None if max_bytes is None else int(max_bytes))
    return previous


@contextmanager
def workspace_cap_set(max_bytes: int | None) -> Iterator[None]:
    """Temporarily pin the workspace byte cap (context-locally)."""
    token = _CAP.set(None if max_bytes is None else int(max_bytes))
    try:
        yield
    finally:
        _CAP.reset(token)


@dataclass(frozen=True)
class HotpathConfig:
    """Hot-path settings.

    Attributes
    ----------
    radix_sort:
        Route the sort-vocabulary methods (canonical edge sort, bounded
        chain-stitch sort) through :mod:`repro.parallel.sortlib`'s
        key-narrowing + LSD-radix engine instead of the comparison-sort
        reference realizations (two-key lexsort / stable ``np.argsort``).
        Both paths produce bit-identical orders; the flag exists so the
        benchmark suite can time the reference side and tests can pin it.
    int32_limit:
        Threshold for :func:`index_dtype`; lowered by tests to exercise the
        int64 path on small inputs (``0`` forces int64 everywhere).
    """

    radix_sort: bool = True
    int32_limit: int = INT32_LIMIT


# Context-local configuration (the engine contract: no execution state is
# process-global).  ``hotpath`` affects the calling context only, so
# concurrent executions can pin different settings -- one thread timing the
# comparison-sort references while another runs the radix engine -- with
# zero cross-talk.  A context that never set a config falls back to
# the immutable process default below.
_DEFAULT_CONFIG = HotpathConfig()

_CONFIG: ContextVar[HotpathConfig | None] = ContextVar(
    "repro_hotpath_config", default=None
)


def hotpath_config() -> HotpathConfig:
    """The hot-path configuration active in the current context."""
    cfg = _CONFIG.get()
    return _DEFAULT_CONFIG if cfg is None else cfg


@contextmanager
def hotpath(**overrides) -> Iterator[HotpathConfig]:
    """Temporarily override hot-path settings (context-locally)::

        with hotpath(int32_limit=0):
            pandora(u, v, w)   # forced int64 internally
    """
    config = replace(hotpath_config(), **overrides)
    token = _CONFIG.set(config)
    try:
        yield config
    finally:
        _CONFIG.reset(token)


def index_dtype(n_elements: int) -> np.dtype:
    """Index dtype for a problem with ``n_elements`` addressable items.

    ``n_elements`` should be ``n_edges + n_vertices`` of the tree being
    processed so that every index value (edge index, vertex label, dendrogram
    node id) is representable.
    """
    if n_elements < hotpath_config().int32_limit:
        return np.dtype(np.int32)
    return np.dtype(np.int64)


class Workspace:
    """Named scratch-buffer pool with geometric growth.

    Buffers are keyed by ``(name, dtype)``; a request that fits an existing
    buffer returns a view of it (a *hit*), a larger request reallocates to
    the next power of two (a *miss*).  See the module docstring for the
    aliasing contract.
    """

    __slots__ = ("_buffers", "hits", "misses", "bytes_allocated", "bytes_held")

    def __init__(self) -> None:
        self._buffers: dict[tuple[str, np.dtype], np.ndarray] = {}
        self.hits = 0
        self.misses = 0
        self.bytes_allocated = 0
        self.bytes_held = 0

    def take(self, name: str, size: int, dtype) -> np.ndarray:
        """A ``(size,)`` uninitialized scratch view for slot ``name``.

        Subject to the context's memory-pressure cap
        (:func:`workspace_cap`): a request whose allocation would push this
        pool's live bytes past the cap raises :class:`ResourceError`
        instead of allocating -- a classified, retryable failure rather
        than an allocator abort deep inside a kernel.
        """
        if _FAULT_HOOK is not None:
            _FAULT_HOOK("workspace")
        dt = np.dtype(dtype)
        key = (name, dt)
        buf = self._buffers.get(key)
        if buf is None or buf.size < size:
            capacity = 1 << max(int(size) - 1, 0).bit_length()
            new_bytes = capacity * dt.itemsize
            freed = 0 if buf is None else buf.nbytes
            cap = _CAP.get()
            if cap is not None and self.bytes_held - freed + new_bytes > cap:
                raise ResourceError(name, new_bytes - freed,
                                    self.bytes_held, cap)
            buf = np.empty(capacity, dtype=dt)
            self._buffers[key] = buf
            self.misses += 1
            self.bytes_allocated += buf.nbytes
            self.bytes_held += new_bytes - freed
        else:
            self.hits += 1
        return buf[:size]

    def clear(self) -> None:
        """Drop every buffer (memory is released to the allocator)."""
        self._buffers.clear()
        self.bytes_held = 0

    @property
    def n_buffers(self) -> int:
        return len(self._buffers)

    def stats(self) -> dict[str, int]:
        """Reuse counters, e.g. for benchmark artifacts."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "bytes_allocated": self.bytes_allocated,
            "bytes_held": self.bytes_held,
            "n_buffers": self.n_buffers,
        }


def workspace() -> Workspace:
    """The scratch pool of the *active backend* (see ``repro.parallel.backend``).

    Each backend instance owns one pool **per thread** (the engine
    concurrency contract: scratch is never shared between concurrently
    executing contexts), so a device backend can hand out device arrays
    through the same interface; hot-path kernels keep calling this accessor
    and never notice which pool is behind it.
    """
    from .backend import get_backend

    return get_backend().workspace


@contextmanager
def scoped_workspace() -> Iterator[Workspace]:
    """Swap a fresh workspace into the active backend for the block.

    Lets tests assert reuse behaviour without interference from buffers
    other code already warmed up.  The swap is pinned to the backend that
    is active at entry *in the current thread* (pools are per-thread);
    switching backends inside the block sees that backend's own
    (unswapped) pool.
    """
    from .backend import get_backend

    backend = get_backend()
    previous = backend.workspace
    backend.workspace = Workspace()
    try:
        yield backend.workspace
    finally:
        backend.workspace = previous
