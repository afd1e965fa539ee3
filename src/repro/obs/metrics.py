"""Process-wide, thread-safe metrics registry: counters, gauges, histograms.

The serving stack measures everything already -- cost models, phase
timings, health counters, pool stats -- but each subsystem exposes its
numbers through its own ad-hoc dict.  This module is the common substrate
those numbers are *mirrored* into: one process-wide
:class:`MetricsRegistry` (module-global :data:`REGISTRY`) holding named
metrics with label sets, snapshottable as plain data and renderable in
the Prometheus text exposition format with zero dependencies.

Design rules
------------
* **Mirror, never own.**  Instrumented seams keep their authoritative
  counters (``HealthCounters``, ``ArtifactCache.stats()``, pool stats);
  the registry receives the same increments at the same call sites, so a
  snapshot reconciles exactly with the source-of-truth dicts (tested in
  ``tests/test_obs.py``).
* **Hot-path cost is one lock + one float add.**  ``labels(...)``
  resolves a label set to a child handle once; the handle's ``inc`` /
  ``set`` / ``observe`` allocate nothing.  The convenience forms
  (``counter.inc(1, backend="numpy")``) allocate one small tuple to look
  the child up and are meant for dispatcher-granularity call sites, never
  inner loops.  Backend kernels are **not** instrumented at all -- the
  observability layer sits at dispatcher/phase granularity so kernel
  traces stay bit-identical.
* **Explicit labels.**  Every increment names its label values; an
  omitted label reads as ``""``.  There is no ambient label context, so
  a series is decided at its call site alone.
* **Global kill switch.**  :func:`set_enabled` (or ``REPRO_OBS=0`` in the
  environment) turns every increment and span into a no-op; the serving
  benchmark measures obs-on vs obs-off and gates the overhead at <= 3%.

Histogram buckets are fixed and log-spaced (:func:`log_bounds`) so two
processes -- or two runs -- always produce mergeable histograms.
"""

from __future__ import annotations

import bisect
import math
import os
import threading
from typing import Any, Mapping, Sequence

__all__ = [
    "enabled",
    "set_enabled",
    "log_bounds",
    "DEFAULT_TIME_BOUNDS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "registry",
    "render_prometheus",
]

#: Global observability switch.  ``REPRO_OBS=0`` disables instrumentation
#: at import time; :func:`set_enabled` flips it at run time (the serving
#: benchmark uses this to measure the obs-on/obs-off ratio it gates).
_ENABLED: bool = os.environ.get("REPRO_OBS", "1").strip().lower() not in (
    "0", "false", "off", "no",
)


def enabled() -> bool:
    """Whether instrumentation (metrics *and* spans) is currently on."""
    return _ENABLED


def set_enabled(on: bool) -> bool:
    """Set the global observability switch; returns the previous value."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(on)
    return previous


# ---------------------------------------------------------------------------
# Histogram bounds.
# ---------------------------------------------------------------------------

def log_bounds(
    lo: float, hi: float, per_decade: int = 3
) -> tuple[float, ...]:
    """Fixed log-spaced bucket upper bounds covering ``[lo, hi]``.

    Bounds sit at ``10 ** (k / per_decade)`` for consecutive integers
    ``k``, starting at the largest bound <= ``lo`` and ending at the
    smallest bound >= ``hi`` -- so the same arguments always yield the
    same grid and histograms from different processes merge bucket-wise.
    """
    if lo <= 0 or hi <= lo:
        raise ValueError("need 0 < lo < hi for log-spaced bounds")
    if per_decade < 1:
        raise ValueError("per_decade must be >= 1")
    k_lo = math.floor(math.log10(lo) * per_decade + 1e-9)
    k_hi = math.ceil(math.log10(hi) * per_decade - 1e-9)
    return tuple(
        round(10.0 ** (k / per_decade), 12) for k in range(k_lo, k_hi + 1)
    )


#: Default latency grid: 100 microseconds to 100 seconds, 3 buckets per
#: decade -- wide enough for a cache hit and a million-edge fit alike.
DEFAULT_TIME_BOUNDS: tuple[float, ...] = log_bounds(1e-4, 100.0, 3)


# ---------------------------------------------------------------------------
# Metric children: the zero-allocation hot-path handles.
# ---------------------------------------------------------------------------

class _CounterChild:
    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        if not _ENABLED:
            return
        with self._lock:
            self.value += n


class _GaugeChild:
    __slots__ = ("_lock", "value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self.value = 0.0

    def set(self, v: float) -> None:
        if not _ENABLED:
            return
        with self._lock:
            self.value = float(v)

    def inc(self, n: float = 1.0) -> None:
        if not _ENABLED:
            return
        with self._lock:
            self.value += n

    def dec(self, n: float = 1.0) -> None:
        self.inc(-n)


class _HistogramChild:
    __slots__ = ("_lock", "_bounds", "counts", "sum", "count")

    def __init__(self, lock: threading.Lock, bounds: tuple[float, ...]) -> None:
        self._lock = lock
        self._bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, v: float) -> None:
        if not _ENABLED:
            return
        i = bisect.bisect_left(self._bounds, v)
        with self._lock:
            self.counts[i] += 1
            self.sum += v
            self.count += 1


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------

class _Metric:
    """Shared structure of the three metric kinds (one per name)."""

    kind = "untyped"

    def __init__(
        self, name: str, help: str, labelnames: Sequence[str]
    ) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], Any] = {}

    def _new_child(self) -> Any:  # pragma: no cover - overridden
        raise NotImplementedError

    def _key(self, labels: Mapping[str, Any]) -> tuple[str, ...]:
        """The full label-value tuple; an omitted label reads as ``""``."""
        return tuple(
            "" if labels.get(ln) is None else str(labels[ln])
            for ln in self.labelnames
        )

    def labels(self, **labels: Any) -> Any:
        """The child handle for one label set (create on first use).

        The handle is cached; hold it where an increment sits on a hot
        path (``child.inc()`` allocates nothing).
        """
        key = self._key(labels)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = self._new_child()
                    self._children[key] = child
        return child

    def series(self) -> list[tuple[dict[str, str], Any]]:
        """``(labels-dict, child)`` pairs, in first-creation order."""
        with self._lock:
            items = list(self._children.items())
        return [
            (dict(zip(self.labelnames, key)), child) for key, child in items
        ]


class Counter(_Metric):
    """Monotonically increasing value (per label set)."""

    kind = "counter"

    def _new_child(self) -> _CounterChild:
        return _CounterChild(self._lock)

    def inc(self, n: float = 1.0, **labels: Any) -> None:
        if not _ENABLED:
            return
        if n < 0:
            raise ValueError("counters only go up")
        self.labels(**labels).inc(n)


class Gauge(_Metric):
    """Point-in-time value that can go up and down (per label set)."""

    kind = "gauge"

    def _new_child(self) -> _GaugeChild:
        return _GaugeChild(self._lock)

    def set(self, v: float, **labels: Any) -> None:
        if not _ENABLED:
            return
        self.labels(**labels).set(v)

    def inc(self, n: float = 1.0, **labels: Any) -> None:
        if not _ENABLED:
            return
        self.labels(**labels).inc(n)

    def dec(self, n: float = 1.0, **labels: Any) -> None:
        if not _ENABLED:
            return
        self.labels(**labels).dec(n)


class Histogram(_Metric):
    """Fixed-bucket distribution (per label set); see :func:`log_bounds`."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str],
        bounds: Sequence[float] | None = None,
    ) -> None:
        super().__init__(name, help, labelnames)
        b = tuple(bounds) if bounds is not None else DEFAULT_TIME_BOUNDS
        if list(b) != sorted(b) or len(set(b)) != len(b):
            raise ValueError("histogram bounds must be strictly increasing")
        self.bounds = b

    def _new_child(self) -> _HistogramChild:
        return _HistogramChild(self._lock, self.bounds)

    def observe(self, v: float, **labels: Any) -> None:
        if not _ENABLED:
            return
        self.labels(**labels).observe(v)


# ---------------------------------------------------------------------------
# Registry.
# ---------------------------------------------------------------------------

class MetricsRegistry:
    """Named metrics, get-or-create, snapshot, Prometheus rendering.

    ``counter`` / ``gauge`` / ``histogram`` are idempotent per name: the
    first call creates the metric, later calls return it (and raise
    ``ValueError`` on a kind or label-set mismatch -- two call sites
    silently disagreeing about a metric is a bug, not a merge).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    def _get_or_create(self, cls: type, name: str, help: str,
                       labelnames: Sequence[str], **kwargs: Any) -> Any:
        labelnames = tuple(labelnames)
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.labelnames != labelnames:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels {existing.labelnames}"
                    )
                return existing
            metric = cls(name, help, labelnames, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        """Get-or-create the :class:`Counter` called ``name``."""
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        """Get-or-create the :class:`Gauge` called ``name``."""
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  bounds: Sequence[float] | None = None) -> Histogram:
        """Get-or-create the :class:`Histogram` called ``name``."""
        return self._get_or_create(
            Histogram, name, help, labelnames, bounds=bounds
        )

    def get(self, name: str) -> _Metric | None:
        """The metric called ``name``, or ``None``."""
        with self._lock:
            return self._metrics.get(name)

    def value(self, name: str, **labels: Any) -> float:
        """Current value of one counter/gauge series (0.0 if absent).

        The reconciliation helper tests and the CLI summary use: missing
        metric or never-touched label set reads as zero, like Prometheus
        treats absent series in arithmetic against scalars.
        """
        metric = self.get(name)
        if metric is None or isinstance(metric, Histogram):
            return 0.0
        key = metric._key(labels)
        child = metric._children.get(key)
        return 0.0 if child is None else float(child.value)

    def snapshot(self) -> dict[str, Any]:
        """Plain-data snapshot of every metric and series."""
        with self._lock:
            metrics = list(self._metrics.values())
        out: dict[str, Any] = {}
        for m in metrics:
            series = []
            for labels, child in m.series():
                if isinstance(m, Histogram):
                    with m._lock:
                        series.append({
                            "labels": labels,
                            "count": child.count,
                            "sum": child.sum,
                            "buckets": list(
                                zip(list(m.bounds) + [float("inf")],
                                    list(child.counts))
                            ),
                        })
                else:
                    series.append({"labels": labels, "value": child.value})
            out[m.name] = {
                "type": m.kind,
                "help": m.help,
                "series": series,
            }
        return out

    def render_prometheus(self) -> str:
        """The registry in the Prometheus text exposition format v0.0.4."""
        lines: list[str] = []
        with self._lock:
            metrics = list(self._metrics.values())
        for m in metrics:
            if m.help:
                lines.append(f"# HELP {m.name} {_escape_help(m.help)}")
            lines.append(f"# TYPE {m.name} {m.kind}")
            for labels, child in m.series():
                if isinstance(m, Histogram):
                    with m._lock:
                        counts = list(child.counts)
                        total, s = child.count, child.sum
                    cum = 0
                    for bound, c in zip(
                        list(m.bounds) + [float("inf")], counts
                    ):
                        cum += c
                        le = "+Inf" if math.isinf(bound) else _fmt(bound)
                        lines.append(
                            f"{m.name}_bucket"
                            f"{_labelstr(labels, le=le)} {cum}"
                        )
                    lines.append(f"{m.name}_sum{_labelstr(labels)} {_fmt(s)}")
                    lines.append(f"{m.name}_count{_labelstr(labels)} {total}")
                else:
                    lines.append(
                        f"{m.name}{_labelstr(labels)} {_fmt(child.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def reset(self) -> None:
        """Drop every metric (tests only; handles become orphans)."""
        with self._lock:
            self._metrics.clear()


def _fmt(v: float) -> str:
    if isinstance(v, float) and v.is_integer() and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _labelstr(labels: Mapping[str, str], **extra: str) -> str:
    items = [(k, v) for k, v in labels.items()] + list(extra.items())
    if not items:
        return ""
    body = ",".join(f'{k}="{_escape_label(str(v))}"' for k, v in items)
    return "{" + body + "}"


#: The process-wide registry every instrumented seam mirrors into.
REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide :data:`REGISTRY` (function form for callers that
    prefer not to import a mutable global by name)."""
    return REGISTRY


def render_prometheus() -> str:
    """Render the process-wide registry in the Prometheus text format."""
    return REGISTRY.render_prometheus()
