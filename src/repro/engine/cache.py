"""Content-keyed artifact cache for the engine layer.

Keys are derived from the *content* of the inputs (array bytes, scalar
parameters), not from object identity, so two calls with equal inputs hit
the same entry no matter where the arrays came from.  cuSLINK packages
single-linkage as a reusable end-to-end system precisely so intermediate
products (kNN graphs, MSTs) can be shared across queries; this cache is the
reproduction's version of that reuse seam.

Thread safety: all map operations take an internal lock, so the engine's
thread-pool serving path can share one cache.  A miss computes *outside*
the lock (two racing computations of the same key are benign -- both are
correct and the first inserted wins), keeping lock hold times O(1).

Values are treated as immutable by contract: callers must never mutate a
cached artifact (the engine only stores result objects -- dendrograms,
EMST results, kNN tables -- whose contracts already forbid mutation).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any

import numpy as np

from ..obs.metrics import REGISTRY as _REGISTRY

__all__ = ["content_key", "ArtifactCache"]

#: Fault-injection / cooperative-deadline hook (``repro.engine.faults``
#: installs it on import); ``None`` keeps the seam at one identity check.
_FAULT_HOOK = None

# Observability mirror of the per-instance ints below (process-wide, so
# every cache in the process lands in one series per event); the cached
# child handles keep the hot path at one lock + one float add.
_EVENTS = _REGISTRY.counter(
    "repro_cache_events_total",
    "Artifact-cache events across all caches in the process.",
    ("event",),
)
_OBS_HIT = _EVENTS.labels(event="hit")
_OBS_MISS = _EVENTS.labels(event="miss")
_OBS_EVICTION = _EVENTS.labels(event="eviction")
_OBS_PUT_FAULT = _EVENTS.labels(event="put_fault")


def content_key(*parts: Any) -> tuple:
    """A hashable content fingerprint of heterogeneous key parts.

    Arrays contribute a blake2b digest of their raw bytes plus dtype and
    shape; scalars, strings, and tuples/lists thereof contribute their
    values.  The digest makes keys O(1)-sized regardless of input size.
    """
    out: list[Any] = []
    for part in parts:
        if isinstance(part, np.ndarray):
            h = hashlib.blake2b(digest_size=16)
            h.update(np.ascontiguousarray(part).view(np.uint8).data)
            out.append(("ndarray", str(part.dtype), part.shape, h.hexdigest()))
        elif isinstance(part, (tuple, list)):
            out.append(content_key(*part))
        elif part is None or isinstance(part, (bool, int, float, str, bytes)):
            out.append(part)
        else:
            raise TypeError(
                f"unhashable cache key part of type {type(part).__name__}"
            )
    return tuple(out)


class ArtifactCache:
    """Bounded LRU map from content keys to computed artifacts."""

    def __init__(self, max_entries: int = 64) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = int(max_entries)
        self._entries: OrderedDict[tuple, Any] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.put_faults = 0

    def get(self, key: tuple, default: Any = None) -> Any:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                hit = True
                value = self._entries[key]
            else:
                self.misses += 1
                hit = False
                value = default
        (_OBS_HIT if hit else _OBS_MISS).inc()
        return value

    def put(self, key: tuple, value: Any) -> Any:
        """Insert ``value`` (first writer wins); returns the stored value.

        Degrades gracefully under injected faults: a classified failure at
        the ``cache.put`` site is swallowed and counted (``put_faults``) and
        the value is returned *uncached* -- the cache is an optimization, so
        its own failures must never fail a job.  Deadline expiry is the one
        exception: it propagates, because it is about the job, not the cache.
        """
        if _FAULT_HOOK is not None:
            try:
                _FAULT_HOOK("cache.put")
            except TimeoutError:
                raise
            except Exception:
                with self._lock:
                    self.put_faults += 1
                _OBS_PUT_FAULT.inc()
                return value
        evicted = 0
        try:
            with self._lock:
                existing = self._entries.get(key)
                if existing is not None:
                    self._entries.move_to_end(key)
                    return existing
                self._entries[key] = value
                while len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)
                    self.evictions += 1
                    evicted += 1
                return value
        finally:
            if evicted:
                _OBS_EVICTION.inc(evicted)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._entries

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "put_faults": self.put_faults,
            }
