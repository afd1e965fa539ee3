"""Shared backend parameterization for the property/parity suites.

Kept out of ``conftest.py`` because ``import conftest`` is ambiguous when
the benchmarks directory (which has its own conftest) is collected in the
same pytest run.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest


def backend_params() -> list:
    """Pytest params covering every registered backend.

    Unavailable backends are marked skip (the numba entry skips gracefully
    in numpy-only environments); ``numba-python`` always runs, so the
    fused-kernel definitions are parity-tested even without numba.
    """
    from repro.parallel import available_backends

    return [
        pytest.param(
            name,
            id=name,
            marks=[] if ok else pytest.mark.skip(
                reason=f"backend {name!r} unavailable (missing dependency)"
            ),
        )
        for name, ok in available_backends().items()
    ]


def dtype_regime_params() -> list:
    """Pytest params for the two index-dtype regimes of the adaptive rule.

    Use with :func:`dtype_regime`: ``int32`` keeps the adaptive default
    (every reproduction-scale test input is below the 2**31 threshold),
    ``int64`` forces wide indices the way a >2**31-element problem would.
    """
    return [pytest.param(r, id=r) for r in ("int32", "int64")]


@contextmanager
def dtype_regime(regime: str):
    """Context pinning one side of the int32/int64 adaptive-dtype rule."""
    from repro.parallel import hotpath
    from repro.parallel.workspace import INT32_LIMIT

    assert regime in ("int32", "int64"), regime
    with hotpath(int32_limit=INT32_LIMIT if regime == "int32" else 0):
        yield


def adversarial_weights(rng, n: int, include_nan: bool = False) -> np.ndarray:
    """Weight arrays that stress the monotone key encoding.

    Heavy duplication (coarse rounding), both zero signs, denormals,
    ``+-inf`` and a negative offset; optionally NaN for policy tests on
    code paths that accept it.
    """
    w = np.round(rng.normal(size=n) * 4) / 4 - 0.5
    if n:
        w[:: 5] = 0.0
        w[1:: 5] = -0.0
        w[2:: 7] = -1e-300          # subnormal-scale negatives
        w[3:: 11] = 5e-324          # smallest positive denormal
        w[4:: 13] = np.inf
        w[5:: 17] = -np.inf
        if include_nan and n > 6:
            w[6:: 19] = np.nan
            w[7:: 23] = -np.nan
    return w
