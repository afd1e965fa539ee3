"""Kernel workspace: reusable scratch buffers and the index-dtype rule.

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

* :func:`hotpath` -- pins the one hot-path setting, the context-local int32
  threshold of :func:`index_dtype`; the dtype property tests use it to pin
  one side of an int32-vs-int64 comparison, and ``int32_limit=0`` means
  int64 everywhere.

* :func:`index_dtype` -- the dtype-adaptivity rule: index arrays run in
  int32 whenever ``n_edges + n_vertices < int32_limit`` (default ``2**31``;
  halving index-array memory traffic), int64 otherwise.  The public API
  boundary (``Dendrogram.parent``, ``as_edge_arrays``) always remains
  int64.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

import numpy as np

__all__ = [
    "INT32_LIMIT",
    "hotpath",
    "index_dtype",
    "ResourceError",
    "workspace_cap",
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


@contextmanager
def workspace_cap_set(max_bytes: int | None) -> Iterator[None]:
    """Temporarily pin the workspace byte cap (context-locally)."""
    token = _CAP.set(None if max_bytes is None else int(max_bytes))
    try:
        yield
    finally:
        _CAP.reset(token)


# Context-local int32 threshold (the engine contract: no execution state is
# process-global), so concurrent executions can pin different index-dtype
# regimes with zero cross-talk.
_INT32_LIMIT: ContextVar[int] = ContextVar(
    "repro_int32_limit", default=INT32_LIMIT
)


@contextmanager
def hotpath(*, int32_limit: int) -> Iterator[None]:
    """Temporarily pin the int32 threshold of :func:`index_dtype`
    (context-locally)::

        with hotpath(int32_limit=0):
            pandora(u, v, w)   # forced int64 internally
    """
    token = _INT32_LIMIT.set(int(int32_limit))
    try:
        yield
    finally:
        _INT32_LIMIT.reset(token)


def index_dtype(n_elements: int) -> np.dtype:
    """Index dtype for a problem with ``n_elements`` addressable items.

    ``n_elements`` should be ``n_edges + n_vertices`` of the tree being
    processed so that every index value (edge index, vertex label, dendrogram
    node id) is representable.
    """
    if n_elements < _INT32_LIMIT.get():
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
