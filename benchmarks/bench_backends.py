"""Backend comparison: NumPy vs Numba-JIT on the 1M-edge synthetic MST.

Follows up the ROADMAP sort note (the sort phase was ~60% of the optimized
1M-edge run after PR 1): times the full ``pandora()`` pipeline on every
*available* registered execution backend and records, per backend,

* per-phase means/stds over ``REPRO_BENCH_REPEATS`` runs,
* the **sort-phase fraction** of the end-to-end time -- the before/after
  evidence for the numba backend's key-narrowed canonical sort,
* speedups relative to the ``numpy`` backend (total, sort, and
  contraction+expansion combined, the fused scatter/jump kernels' share).

Parity gated: before any timing, every backend's parent array is checked
bit-identical against the numpy backend's, and their kernel traces are
compared at a sub-size (trace comparison at full scale would just burn
memory).  At full size
(>= 500k edges) with numba installed, the run asserts the acceptance bar:
the numba backend beats numpy on contraction+expansion combined.  Smoke
runs (CI, ``REPRO_BENCH_SCALE=0.02``) assert only the correctness gates.

The tracked artifact ``benchmarks/BENCH_backends.json`` records full-size
runs only; scaled-down smoke runs write ``BENCH_backends_smoke.json`` so
they never clobber the trajectory numbers.  Environments without numba
record its entry as ``{"available": false}`` rather than failing -- the
numpy-only CI matrix exercises exactly that path.

Run as pytest (``pytest benchmarks/bench_backends.py``) or directly
(``PYTHONPATH=src python benchmarks/bench_backends.py``).
"""

from __future__ import annotations

import json
import os

import numpy as np

from conftest import scaled, timed_backends
from repro.core.pandora import pandora
from repro.parallel import (
    CostModel,
    available_backends,
    debug_checks_set,
    tracking,
    use_backend,
)
from repro.structures.tree import random_spanning_tree

N_EDGES = scaled(1_000_000)
REPEATS = int(os.environ.get("REPRO_BENCH_REPEATS", "5"))
#: Below this size the speedup bar is not asserted (fixed Python overhead
#: dominates) and the smoke artifact is written instead of the tracked one.
FULL_SIZE = 500_000
#: Kernel traces are compared at this sub-size; the trace is size-invariant
#: in shape, so a small run pins backend-schedule parity cheaply.
TRACE_SIZE = 20_000
_DIR = os.path.dirname(__file__)
ARTIFACT = os.path.join(_DIR, "BENCH_backends.json")
SMOKE_ARTIFACT = os.path.join(_DIR, "BENCH_backends_smoke.json")

PHASES = ("sort", "contraction", "expansion")


def _make_mst(n_edges: int):
    rng = np.random.default_rng(7)
    return random_spanning_tree(n_edges + 1, rng, skew=0.3)


def _trace(u, v, w) -> list[tuple]:
    model = CostModel()
    with tracking(model):
        pandora(u, v, w)
    return [(r.name, r.category, r.work, r.phase) for r in model.records]


def _time_backend(u, v, w, repeats: int) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {p: [] for p in PHASES}
    samples["total"] = []
    pandora(u, v, w)  # warmup: allocator, workspace, JIT compilation
    for _ in range(repeats):
        _, stats = pandora(u, v, w)
        for p in PHASES:
            samples[p].append(stats.phase_seconds[p])
        samples["total"].append(stats.total_seconds)
    return samples


def _summarize(samples: dict[str, list[float]]) -> dict:
    out = {
        p: {"mean": float(np.mean(ts)), "std": float(np.std(ts))}
        for p, ts in samples.items()
    }
    out["sort_fraction"] = round(
        out["sort"]["mean"] / max(out["total"]["mean"], 1e-12), 4
    )
    return out


def run_backend_bench(
    n_edges: int = N_EDGES, repeats: int = REPEATS, artifact: str | None = None
) -> dict:
    """Measure every available backend; write the artifact; return report."""
    if artifact is None:
        artifact = ARTIFACT if n_edges >= FULL_SIZE else SMOKE_ARTIFACT
    u, v, w = _make_mst(n_edges)
    su, sv, sw = _make_mst(min(n_edges, TRACE_SIZE))

    # The interpreted twins are parity/debugging tools; they are
    # deliberately not timed at benchmark scale.
    timed = timed_backends()
    assert timed[0] == "numpy"

    # Correctness gates before timing: bit-identical parents at full size,
    # identical kernel traces at the sub-size, for every timed backend.
    ref_dend, _ = pandora(u, v, w)
    ref_trace = _trace(su, sv, sw)
    for name in timed[1:]:
        with use_backend(name):
            got_dend, _ = pandora(u, v, w)
            got_trace = _trace(su, sv, sw)
        if not np.array_equal(got_dend.parent, ref_dend.parent):
            raise AssertionError(f"backend {name!r} parents differ from numpy")
        if got_trace != ref_trace:
            raise AssertionError(f"backend {name!r} kernel trace differs")

    variants: dict[str, dict] = {}
    with debug_checks_set(False):
        for name in timed:
            with use_backend(name):
                variants[name] = _summarize(_time_backend(u, v, w, repeats))
    for name, ok in available_backends().items():
        if name not in variants:
            variants[name] = {"available": False} if not ok else {
                "available": True, "timed": False
            }

    report: dict = {
        "bench": "backends",
        "n_edges": int(n_edges),
        "repeats": int(repeats),
        "unit": "seconds",
        "variants": variants,
    }
    if "numba" in timed:
        np_s, nb_s = variants["numpy"], variants["numba"]
        ce_np = np_s["contraction"]["mean"] + np_s["expansion"]["mean"]
        ce_nb = nb_s["contraction"]["mean"] + nb_s["expansion"]["mean"]
        report["numba_speedup_vs_numpy"] = {
            "total": round(np_s["total"]["mean"] / max(nb_s["total"]["mean"], 1e-12), 3),
            "sort": round(np_s["sort"]["mean"] / max(nb_s["sort"]["mean"], 1e-12), 3),
            "contraction_plus_expansion": round(ce_np / max(ce_nb, 1e-12), 3),
        }
        report["sort_fraction"] = {
            "numpy": np_s["sort_fraction"],
            "numba": nb_s["sort_fraction"],
        }
    with open(artifact, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report


def test_backend_bench():
    report = run_backend_bench()
    print(f"\n[backends] n_edges={report['n_edges']} "
          f"variants={list(report['variants'])}")
    full = report["n_edges"] >= FULL_SIZE
    assert os.path.exists(ARTIFACT if full else SMOKE_ARTIFACT)
    speedup = report.get("numba_speedup_vs_numpy")
    if speedup is not None:
        print(f"[backends] numba_speedup={speedup} "
              f"sort_fraction={report['sort_fraction']}")
        if full:
            # Acceptance bar: the fused JIT kernels beat the NumPy backend
            # on the scatter/jump-heavy phases at full size.
            assert speedup["contraction_plus_expansion"] >= 1.0, speedup


if __name__ == "__main__":
    print(json.dumps(run_backend_bench(), indent=2, sort_keys=True))
