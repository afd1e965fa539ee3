"""Unified observability: process-wide metrics + per-request trace spans.

Two halves, one switch:

* :mod:`repro.obs.metrics` -- the process-wide :data:`~repro.obs.metrics.
  REGISTRY` of counters, gauges, and log-spaced-bucket histograms that
  every instrumented seam (engine, resilience, cache, shard pool, fault
  injection) mirrors its authoritative counters into; snapshot it as
  plain data or render it with :func:`render_prometheus` (no
  dependencies).
* :mod:`repro.obs.spans` -- context-local trace spans stitching one tree
  per serving request: queue wait, dispatch, plan-phase timings, retries
  and fallbacks, and (for the process executor) the worker-side subtree
  shipped back through the job envelope.

``set_enabled(False)`` (or ``REPRO_OBS=0``) turns the whole layer off;
the serving benchmark gates the obs-on overhead at <= 3%.  Instrumented
code never reaches inside backend kernels -- kernel traces and dendrogram
parents are bit-identical with observability on or off.

Every metric and span name is documented in ``docs/observability.md``.
"""

from .metrics import (
    DEFAULT_TIME_BOUNDS,
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    enabled,
    log_bounds,
    registry,
    render_prometheus,
    set_enabled,
)
from .spans import (
    NULL_SPAN,
    Span,
    clear_spans,
    current_span,
    new_id,
    recent_spans,
    record_tree,
    render_span_tree,
    span,
)

__all__ = [
    "DEFAULT_TIME_BOUNDS",
    "REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "enabled",
    "log_bounds",
    "registry",
    "render_prometheus",
    "set_enabled",
    "NULL_SPAN",
    "Span",
    "clear_spans",
    "current_span",
    "new_id",
    "recent_spans",
    "record_tree",
    "render_span_tree",
    "span",
]
