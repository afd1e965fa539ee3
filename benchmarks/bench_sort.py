"""Sort-engine benchmark: the key-narrowing + radix subsystem vs references.

The PR-2 phase breakdown (``BENCH_backends.json``) put the numpy backend's
sort phase at ~0.59 of the 1M-edge end-to-end time -- the largest cost
after the PR-1 contraction/expansion speedups.  This bench measures what
the shared :mod:`repro.parallel.sortlib` engine does about it, per backend
and per size (100k / 1M edges):

* **canonical sort** (``edges.sort_desc``): the monotone-u64-key LSD radix
  vs the two-key ``np.lexsort((ids, -w))`` reference, plus the *engine
  gate* pair -- the radix engine and a plain stable ``np.argsort`` timed
  on the same pre-encoded key in ABBA-interleaved pairs, whose median
  per-pair ratio is what the CI smoke gate compares (the engine
  regressing below the argsort it replaced means the pass structure
  stopped paying for itself);
* **chain-stitch sort** (``stitch.chain_sort``): the bounded
  counting/radix sort vs the stable ``np.argsort`` reference;
* **end-to-end**: full ``pandora()`` runs on the numpy backend and on
  :class:`ComparisonSortBackend`, this file's numpy backend with the two
  comparison-sort references in place of the engine -- the sort-phase
  speedup and the new sort_fraction,
  the acceptance numbers of the sortlib PR (>= 1.5x phase speedup and
  sort_fraction < 0.45 at 1M edges, asserted at full size).

Each timed strategy records the :class:`~repro.parallel.sortlib.SortPlan`
it selects, so the artifact documents *why* a number moved.  Correctness
is gated before timing: every radix order must equal its reference order
bit for bit.

Artifacts: full-size runs (>= 500k edges) write the tracked
``benchmarks/BENCH_sort.json``; scaled-down smoke runs (CI,
``REPRO_BENCH_SCALE=0.02``) write ``BENCH_sort_smoke.json``.

Run as pytest (``pytest benchmarks/bench_sort.py``) or directly
(``PYTHONPATH=src python benchmarks/bench_sort.py``).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from conftest import scaled, timed_backends
from repro.core.pandora import pandora
from repro.parallel import (
    NumpyBackend,
    debug_checks_set,
    get_backend,
    use_backend,
)
from repro.parallel.sortlib import (
    plan_bounded,
    plan_unsigned,
    stable_argsort_unsigned,
)
from repro.structures.tree import random_spanning_tree

SIZES = sorted({scaled(100_000), scaled(1_000_000)})
REPEATS = int(os.environ.get("REPRO_BENCH_REPEATS", "5"))
#: Below this size the acceptance bars are not asserted and the smoke
#: artifact is written instead of the tracked one.
FULL_SIZE = 500_000
#: Smoke-gate slack: the radix canonical sort must not be slower than the
#: plain stable argsort of the same narrowed key by more than this factor.
ARGSORT_GATE_SLACK = 1.25
#: The smoke gate's timing: at least this many ABBA-interleaved pairs, each
#: sample a batch of calls lasting at least this many seconds.
GATE_PAIRS = 9
GATE_SAMPLE_S = 2e-3
_DIR = os.path.dirname(__file__)
ARTIFACT = os.path.join(_DIR, "BENCH_sort.json")
SMOKE_ARTIFACT = os.path.join(_DIR, "BENCH_sort_smoke.json")


class ComparisonSortBackend(NumpyBackend):
    """The numpy backend with the comparison sorts the radix engine
    replaced: the two-key ``lexsort((ids, -w))`` canonical order and a
    stable ``np.argsort`` of bounded keys (same orders, same records)."""

    name = "numpy-comparison-sort"

    def canonical_sort_order(self, weights, ids, name="edges.sort_desc"):
        self._emit(name, "sort", weights.size)
        return np.lexsort((ids, -weights))

    def argsort_bounded(self, keys, min_key, max_key, name="argsort"):
        self._emit(name, "sort", keys.size)
        return np.argsort(keys, kind="stable")


def _timeit(fn, repeats: int) -> dict:
    fn()  # warmup: workspace growth, JIT compilation
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return {"mean": float(np.mean(samples)), "std": float(np.std(samples)),
            "min": float(np.min(samples))}


def _make_inputs(n: int):
    rng = np.random.default_rng(7)
    u, v, w = random_spanning_tree(n + 1, rng, skew=0.3)
    ids = np.arange(n, dtype=np.int64)
    # Chain-shaped stitch keys: 2*anchor + side with a root-chain tail of
    # -1s (the stitch sort's actual key distribution shape).
    anchor = rng.integers(0, n, size=n)
    key = 2 * anchor + rng.integers(0, 2, size=n)
    key[rng.random(n) < 0.02] = -1
    return u, v, w, ids, key


def _bench_backend_sorts(name: str, w, ids, key, n: int, repeats: int) -> dict:
    with use_backend(name):
        backend = get_backend()
        # correctness gates before timing
        ref_canon = np.lexsort((ids, -w))
        ref_chain = np.argsort(key, kind="stable")
        radix_canon = backend.canonical_sort_order(w, ids, name=None)
        radix_chain = backend.argsort_bounded(key, -1, 2 * n + 1, name=None)
        if not np.array_equal(radix_canon, ref_canon):
            raise AssertionError(f"{name}: canonical radix order != lexsort")
        if not np.array_equal(radix_chain, ref_chain):
            raise AssertionError(f"{name}: chain radix order != argsort")

        out = {
            "canonical": {
                "radix": _timeit(
                    lambda: backend.canonical_sort_order(w, ids, name=None),
                    repeats,
                ),
                "lexsort_reference": _timeit(
                    lambda: np.lexsort((ids, -w)), repeats
                ),
                "strategy": plan_unsigned(n, 64).describe(),
            },
            "chain": {
                "radix": _timeit(
                    lambda: backend.argsort_bounded(
                        key, -1, 2 * n + 1, name=None
                    ),
                    repeats,
                ),
                "argsort_reference": _timeit(
                    lambda: np.argsort(key, kind="stable"), repeats
                ),
                "strategy": plan_bounded(n, -1, 2 * n + 1).describe(),
            },
        }
        for site in ("canonical", "chain"):
            ref_key = ("lexsort_reference" if site == "canonical"
                       else "argsort_reference")
            out[site]["speedup"] = round(
                out[site][ref_key]["mean"]
                / max(out[site]["radix"]["mean"], 1e-12), 3
            )
    return out


def _bench_engine_gate(w, n: int, repeats: int) -> dict:
    """The CI regression gate's pair: the radix engine vs a plain stable
    ``np.argsort``, both on the *same* pre-encoded u64 key.

    Using one shared key isolates the pass structure itself (encoding cost
    and strategy crossover noise would otherwise dominate at smoke sizes);
    the gate asserts the engine never loses to the argsort it replaced.
    The two are timed in ABBA-interleaved pairs (at least
    ``GATE_PAIRS``), each sample a batch of calls lasting at least
    ``GATE_SAMPLE_S``, so a load phase of the machine hits both sides of a
    pair; ``median_ratio`` is the median of the per-pair
    ``radix_engine / argsort`` ratios.
    """
    from repro.parallel.sortlib import encode_weights_descending

    encoded = encode_weights_descending(w).copy()
    sides = {
        "radix_engine": lambda: stable_argsort_unsigned(encoded),
        "argsort": lambda: np.argsort(encoded, kind="stable"),
    }
    calls = {}
    for name, fn in sides.items():
        fn()  # warmup: workspace growth, JIT compilation
        t0 = time.perf_counter()
        fn()
        calls[name] = max(1, int(GATE_SAMPLE_S
                                 / max(time.perf_counter() - t0, 1e-9)))

    samples: dict = {name: [] for name in sides}
    order = list(sides)
    for i in range(max(repeats, GATE_PAIRS)):
        for name in order if i % 2 == 0 else order[::-1]:
            t0 = time.perf_counter()
            for _ in range(calls[name]):
                sides[name]()
            samples[name].append((time.perf_counter() - t0) / calls[name])
    ratios = [a / b for a, b in zip(samples["radix_engine"],
                                    samples["argsort"])]
    out: dict = {
        name: {"mean": float(np.mean(ts)), "std": float(np.std(ts)),
               "min": float(np.min(ts))}
        for name, ts in samples.items()
    }
    out["pair_ratios"] = [round(r, 4) for r in ratios]
    out["median_ratio"] = round(float(np.median(ratios)), 4)
    return out


def _bench_e2e(u, v, w, repeats: int) -> dict:
    def phase_run():
        _, stats = pandora(u, v, w)
        return stats

    def sample(repeats):
        phase_run()  # warmup
        sort_s, total_s = [], []
        for _ in range(repeats):
            stats = phase_run()
            sort_s.append(stats.phase_seconds["sort"])
            total_s.append(stats.total_seconds)
        return {
            "sort": {"mean": float(np.mean(sort_s)),
                     "std": float(np.std(sort_s))},
            "total": {"mean": float(np.mean(total_s)),
                      "std": float(np.std(total_s))},
            "sort_fraction": round(
                float(np.mean(sort_s)) / max(float(np.mean(total_s)), 1e-12),
                4,
            ),
        }

    reference = ComparisonSortBackend()
    radix_parent = pandora(u, v, w)[0].parent
    with use_backend(reference):
        if not np.array_equal(pandora(u, v, w)[0].parent, radix_parent):
            raise AssertionError("e2e: radix parents != comparison-sort")
    out = {"radix": sample(repeats)}
    with use_backend(reference):
        out["reference"] = sample(repeats)
    out["sort_phase_speedup"] = round(
        out["reference"]["sort"]["mean"]
        / max(out["radix"]["sort"]["mean"], 1e-12), 3
    )
    out["total_speedup"] = round(
        out["reference"]["total"]["mean"]
        / max(out["radix"]["total"]["mean"], 1e-12), 3
    )
    return out


def run_sort_bench(
    sizes: list[int] | None = None,
    repeats: int = REPEATS,
    artifact: str | None = None,
) -> dict:
    if sizes is None:
        sizes = SIZES
    full = max(sizes) >= FULL_SIZE
    if artifact is None:
        artifact = ARTIFACT if full else SMOKE_ARTIFACT

    timed = timed_backends()
    report: dict = {
        "bench": "sort",
        "repeats": int(repeats),
        "unit": "seconds",
        "backends": timed,
        "sizes": {},
    }
    with debug_checks_set(False):
        for n in sizes:
            u, v, w, ids, key = _make_inputs(n)
            entry: dict = {"backends": {}}
            for name in timed:
                entry["backends"][name] = _bench_backend_sorts(
                    name, w, ids, key, n, repeats
                )
            entry["engine_gate"] = _bench_engine_gate(w, n, repeats)
            entry["e2e_numpy"] = _bench_e2e(u, v, w, repeats)
            report["sizes"][str(n)] = entry

    with open(artifact, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report


def test_sort_bench():
    report = run_sort_bench()
    full = max(int(k) for k in report["sizes"]) >= FULL_SIZE
    assert os.path.exists(ARTIFACT if full else SMOKE_ARTIFACT)
    for n_str, entry in report["sizes"].items():
        np_canon = entry["backends"]["numpy"]["canonical"]
        e2e = entry["e2e_numpy"]
        print(f"\n[sort] n={n_str} canonical: radix="
              f"{np_canon['radix']['mean']:.4f}s "
              f"lexsort={np_canon['lexsort_reference']['mean']:.4f}s "
              f"({np_canon['speedup']}x, {np_canon['strategy']}) | "
              f"e2e sort speedup={e2e['sort_phase_speedup']}x "
              f"sort_fraction={e2e['radix']['sort_fraction']}")
        # Regression gate (every size, including CI smoke): the radix pass
        # structure must not lose to a plain stable argsort of the same
        # pre-encoded key.  Compared on the median of interleaved per-pair
        # ratios, which a load phase of a shared machine moves on both
        # sides alike, where two independent ``min``s need not.
        gate = entry["engine_gate"]
        assert gate["median_ratio"] <= ARGSORT_GATE_SLACK, (n_str, gate)
        if int(n_str) >= FULL_SIZE:
            # Acceptance bars of the sortlib PR at full size.
            assert e2e["sort_phase_speedup"] >= 1.5, e2e
            assert e2e["radix"]["sort_fraction"] < 0.45, e2e


if __name__ == "__main__":
    print(json.dumps(run_sort_bench(), indent=2, sort_keys=True))
