"""Outside-in layer trace.

Spans are recorded from the benchmark's own code, around the calls it
makes into each layer and -- by temporarily rebinding module attributes --
around the calls one layer makes into the next.  Nothing in the program is
edited; the wrappers are removed when the trace ends.  Spans stay in memory
and are written out once, at the end of the run.

A layer's *self time* is its span's duration minus the part covered by
its child spans, so the self times of one request add up to the request's
traced duration.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable


class Tracer:
    """In-memory span recorder for one single-threaded request loop."""

    def __init__(self) -> None:
        # [name, start, end, parent index]
        self.spans: list[list[Any]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append(
            [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        )
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def wrap(self, module: Any, attr: str, name: str,
             count: Callable[..., float] | None = None) -> None:
        """Record a ``name`` span around every call to ``module.attr``.

        A missing attribute is skipped (its layer then reads zero), so the
        trace keeps working when the program's internals are renamed.
        """
        fn = getattr(module, attr, None)
        if fn is None:
            return

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                self.count(name, count(*args, **kwargs))
            with self.span(name):
                return fn(*args, **kwargs)

        setattr(module, attr, traced)
        self._patched.append((module, attr, fn))

    def unwrap(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def self_seconds(self) -> dict[str, float]:
        """Self time summed per span name over everything recorded."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            out[name] += end - start
            if parent >= 0:
                out[self.spans[parent][0]] -= end - start
        return dict(out)

    def export(self, first: int) -> list[dict]:
        """The spans from index ``first`` on, as plain data relative to the
        first one's start."""
        spans = self.spans[first:]
        t0 = spans[0][1] if spans else 0.0
        return [
            {"name": name, "start_ms": (s - t0) * 1e3, "end_ms": (e - t0) * 1e3,
             "parent": p - first if p >= first else None}
            for name, s, e, p in spans
        ]
