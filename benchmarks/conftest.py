"""Benchmark-suite configuration.

Sizes are reproduction-scale (tens of thousands of points; the paper uses
millions to hundreds of millions).  Modeled device numbers are extrapolated
to the paper's sizes via ``scale_trace`` where a figure reports full-scale
results; measured Python numbers are reported at reproduction scale.

Set ``REPRO_BENCH_SCALE`` (e.g. ``0.3`` or ``2``) to shrink/grow every
workload; the first run builds EMST caches under ``benchmarks/.cache`` and
is therefore much slower than subsequent runs.
"""

from __future__ import annotations

import os


def scaled(n: int) -> int:
    """Apply the global benchmark size multiplier."""
    return max(2000, int(n * float(os.environ.get("REPRO_BENCH_SCALE", "1"))))


def timed_backends() -> list[str]:
    """Available backends worth timing: every one except the interpreted
    twins (``jit`` is ``False``), which time the Python interpreter rather
    than a backend; their parity is covered by the tier-1 suites."""
    from repro.parallel import available_backends, use_backend

    names = []
    for name, ok in available_backends().items():
        if ok:
            with use_backend(name) as backend:
                if getattr(backend, "jit", True) is not False:
                    names.append(name)
    return names
