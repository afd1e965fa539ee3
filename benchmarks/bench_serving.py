"""Serving throughput: ``Engine.fit_many`` scaling across pool workers.

The PR-4 engine recorded its pool-vs-serial ratio without gating it: numpy
kernels are largely GIL-serialized, so the pool could not win.  The
``numba-parallel`` backend exists to change that -- its kernels are
compiled ``nogil=True`` -- and this benchmark is where the claim is
measured and enforced: ``fit_many`` over ``SERVE_JOBS`` distinct MSTs at
1/2/4/8 workers, recorded as jobs/second plus ratios against the 1-worker
rate (artifact ``benchmarks/BENCH_serving.json``; smoke runs write
``BENCH_serving_smoke.json``).

Acceptance bar (asserted only where it is measurable: numba installed,
>= 4 cores, and at least ``GATE_MIN_EDGES`` per job -- below that, kernels
run for microseconds and the ratio measures GIL-held Python orchestration,
not the backend): on the ``numba-parallel`` backend the 4-worker
throughput is **>= 2x** the 1-worker rate at full size, >= 1.3x between
``GATE_MIN_EDGES`` and full size (``tests/test_serving.py`` wires the
same 1.3x gate into the engine CI job at 60k edges per job).
Environments without numba or without the cores record the measured
ratios ungated -- the numpy column documents exactly the GIL-serialization
this backend fixes.

Correctness is gated unconditionally before any timing: every
``fit_many`` handle must be bit-identical to the serial ``pandora()``
parents, at every worker count.

A second, backend-independent bar guards the resilience layer (PR 6):
running the same 4-worker batch under a default :class:`ServePolicy` --
envelopes, context snapshots, armed fault hooks, but **no injected
faults** -- must cost at most ``POLICY_OVERHEAD_GATE`` (3%) over the
plain raise-first path.  Like the scaling gate it is recorded at every
size but asserted only at >= ``GATE_MIN_EDGES``, where per-job kernel
time is large enough that the ratio measures the hooks rather than
timer noise.

A third bar guards the PR-10 observability layer: the same 4-worker
policy batch with ``repro.obs`` enabled (metric mirrors at every seam,
one span tree per request) against ``repro.obs.set_enabled(False)`` must
cost at most ``OBS_OVERHEAD_GATE`` (3%).  Asserted at the same
``GATE_MIN_EDGES`` floor.

A fourth column measures the PR-8 process fault domain: ``fit_many`` with
``executor="process"`` (the supervised :class:`ShardPool`) at
``PROCESS_SHARDS`` shards, jobs/second against the 1-shard rate, plus a
supervisor-overhead gate -- the supervised pool (heartbeats, scan ticks,
re-dispatch accounting, per-job pickling discipline) must cost at most
``SUPERVISOR_OVERHEAD_GATE`` (5%) over a bare
``concurrent.futures.ProcessPoolExecutor`` running the identical jobs at
the same worker count.  Each repeat uses a *distinct* problem set (child
Engines carry content-keyed artifact caches, so re-submitting one set
would time cache hits), with a separate warm set spawning workers and
warming child JIT state before any timing.  Parity against serial
``pandora()`` parents is asserted for every set on both pools; the ratio
is asserted only at >= ``GATE_MIN_EDGES`` and >= 2 cores, where per-job
kernel time dominates IPC noise.

Note on threading layers: with intra-kernel ``prange`` active, concurrent
parallel regions want numba's ``tbb`` threading layer (the default
``workqueue`` is thread-safe but serializes regions across jobs); the CI
jobs install ``tbb``.  The measured ``threading_layer`` is recorded in the
artifact.

Run as pytest (``pytest benchmarks/bench_serving.py``) or directly
(``PYTHONPATH=src python benchmarks/bench_serving.py``).
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from conftest import scaled
from repro.core.pandora import pandora
from repro.engine import Engine
from repro.engine.engine import _fit_problem
from repro.engine.resilience import ServePolicy
from repro.parallel import backend_available, debug_checks_set, use_backend
from repro.structures.tree import random_spanning_tree

SERVE_JOBS = 8
WORKER_COUNTS = (1, 2, 4, 8)
N_EDGES = scaled(150_000)
REPEATS = int(os.environ.get("REPRO_BENCH_REPEATS", "3"))
#: Below this many edges per job the run is a smoke run: the artifact goes
#: to the smoke file and the gate drops to the smoke ratio.
FULL_SIZE = 100_000
FULL_GATE = 2.0
SMOKE_GATE = 1.3
#: Below this many edges per job the gate is recorded but never asserted:
#: kernels run for microseconds there and GIL-held Python orchestration
#: dominates, so the ratio measures overhead, not the backend.  The
#: smoke-scale scaling gate lives in tests/test_serving.py at 60k edges.
GATE_MIN_EDGES = 50_000
#: Max allowed slowdown of policy-enabled serving (default ServePolicy,
#: no faults injected) over the plain raise-first path at 4 workers.
POLICY_OVERHEAD_GATE = 1.03
POLICY_WORKERS = 4
#: Max allowed slowdown of the observability layer (metrics mirrors +
#: request span trees, PR 10) on the policy path at 4 workers: the same
#: batch with ``repro.obs`` enabled (the default) against
#: ``set_enabled(False)``.  The ISSUE budget is 3%.
OBS_OVERHEAD_GATE = 1.03
#: Shard counts for the process-executor column (jobs/second each).
PROCESS_SHARDS = (1, 2, 4)
#: Max allowed slowdown of the supervised ShardPool over a bare
#: ProcessPoolExecutor doing identical jobs at the same worker count.
SUPERVISOR_OVERHEAD_GATE = 1.05
PROCESS_OVERHEAD_SHARDS = 2

_DIR = os.path.dirname(__file__)
ARTIFACT = os.path.join(_DIR, "BENCH_serving.json")
SMOKE_ARTIFACT = os.path.join(_DIR, "BENCH_serving_smoke.json")


def _problems(n_jobs: int, n_edges: int) -> list[tuple]:
    out = []
    for i in range(n_jobs):
        rng = np.random.default_rng(900 + i)
        out.append(random_spanning_tree(n_edges + 1, rng,
                                        skew=0.1 + 0.05 * i))
    return out


def _threading_layer() -> str | None:
    """Numba's active threading layer, forcing initialization if needed."""
    try:
        import numba

        numba.njit(parallel=True, nogil=True)(
            lambda x: x.sum()
        )(np.zeros(1))
        return str(numba.threading_layer())
    except Exception:  # noqa: BLE001 - purely informational
        return None


def _stats(samples: list, n_jobs: int) -> dict:
    best = min(samples)
    return {
        "seconds": {"best": best, "mean": float(np.mean(samples)),
                    "std": float(np.std(samples))},
        "jobs_per_second": round(n_jobs / best, 3),
    }


def _check_parity(handles, refs, label: str) -> None:
    for i, (ref, handle) in enumerate(zip(refs, handles)):
        if not np.array_equal(handle.parent, ref):
            raise AssertionError(
                f"{label}: job {i} parents differ from serial pandora()"
            )


def _process_problem_sets(n_edges: int, repeats: int):
    """``repeats`` timed problem sets plus one warm set, all distinct
    content: child Engines cache by content key, so re-timing one set
    would measure cache hits instead of serving."""
    sets = [
        [
            random_spanning_tree(
                n_edges + 1, np.random.default_rng(5000 + 97 * s + i),
                skew=0.1 + 0.05 * i,
            )
            for i in range(SERVE_JOBS)
        ]
        for s in range(repeats + 1)
    ]
    return sets[:-1], sets[-1]


def _bare_init(backend_name: str) -> None:
    """Initializer of the bare comparison pool: the backend pin and worker
    engine ShardPool workers boot with, minus all supervision."""
    from repro.engine.worker import _worker_engine
    from repro.parallel import set_default_backend

    set_default_backend(backend_name)
    _worker_engine()


def _bare_fit(payload: tuple):
    from repro.engine.worker import _run_fit

    return _run_fit(payload)


def _measure_process_pool(problem_sets, refs_per_set, warm_set,
                          shards: int) -> dict:
    engine = Engine(executor="process", shards=shards)
    try:
        engine.fit_many(warm_set)  # spawn workers, warm child JIT/caches
        samples = []
        for problems, refs in zip(problem_sets, refs_per_set):
            t0 = time.perf_counter()
            out = engine.fit_many(problems)
            samples.append(time.perf_counter() - t0)
            _check_parity(out, refs, f"shardpool shards={shards}")
    finally:
        engine.shutdown()
    return _stats(samples, SERVE_JOBS)


def _measure_bare_pool(problem_sets, refs_per_set, warm_set, workers: int,
                       backend_name: str, start_method: str) -> dict:
    ctx = mp.get_context(start_method)
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx,
                             initializer=_bare_init,
                             initargs=(backend_name,)) as pool:
        list(pool.map(_bare_fit, [_fit_problem(p) for p in warm_set]))
        samples = []
        for problems, refs in zip(problem_sets, refs_per_set):
            payloads = [_fit_problem(p) for p in problems]
            t0 = time.perf_counter()
            out = list(pool.map(_bare_fit, payloads))
            samples.append(time.perf_counter() - t0)
            _check_parity(out, refs, f"bare pool workers={workers}")
    return _stats(samples, SERVE_JOBS)


def _measure(problems, workers: int, repeats: int, serial_ref,
             policy: ServePolicy | None = None) -> dict:
    samples = []
    for _ in range(repeats):
        # Fresh engine per run: the content cache would otherwise make
        # every repeat free.
        engine = Engine(cache_entries=2 * len(problems))
        t0 = time.perf_counter()
        out = engine.fit_many(problems, max_workers=workers, policy=policy)
        samples.append(time.perf_counter() - t0)
        handles = [r.unwrap() for r in out] if policy is not None else out
        for i, (ref, handle) in enumerate(zip(serial_ref, handles)):
            if not np.array_equal(handle.parent, ref):
                raise AssertionError(
                    f"fit_many parents differ from serial at job {i}, "
                    f"workers={workers}, policy={policy is not None}"
                )
    best = min(samples)
    return {
        "seconds": {"best": best, "mean": float(np.mean(samples)),
                    "std": float(np.std(samples))},
        "jobs_per_second": round(len(problems) / best, 3),
    }


def run_serving_bench(
    n_edges: int = N_EDGES, repeats: int = REPEATS, artifact: str | None = None
) -> dict:
    if artifact is None:
        artifact = ARTIFACT if n_edges >= FULL_SIZE else SMOKE_ARTIFACT
    backend_name = ("numba-parallel" if backend_available("numba-parallel")
                    else "numpy")
    problems = _problems(SERVE_JOBS, n_edges)

    with use_backend(backend_name) as backend, debug_checks_set(False):
        if hasattr(backend, "warmup"):
            backend.warmup()
        serial_ref = [pandora(u, v, w)[0].parent for u, v, w in problems]
        # Warm every pool thread's JIT/workspace state before timing.
        Engine(cache_entries=2 * SERVE_JOBS).fit_many(
            problems, max_workers=max(WORKER_COUNTS)
        )
        by_workers = {
            w: _measure(problems, w, repeats, serial_ref)
            for w in WORKER_COUNTS
        }
        # Resilience-overhead column: the same batch under a default
        # ServePolicy (envelopes + armed hooks, zero injected faults)
        # against the plain raise-first path, interleaved fresh plain
        # runs so both sides see the same machine state.
        policy_runs = _measure(problems, POLICY_WORKERS, repeats,
                               serial_ref, policy=ServePolicy())
        plain_runs = _measure(problems, POLICY_WORKERS, repeats, serial_ref)

        # Observability-overhead column (PR 10): the identical policy
        # batch with the obs layer switched off.  ``policy_runs`` above
        # ran with obs on (the default), so the ratio isolates the
        # metric mirrors + span-tree cost at dispatcher granularity.
        from repro.obs import clear_spans, enabled, set_enabled

        assert enabled(), "obs must be on for the overhead baseline"
        set_enabled(False)
        try:
            obs_off_runs = _measure(problems, POLICY_WORKERS, repeats,
                                    serial_ref, policy=ServePolicy())
        finally:
            set_enabled(True)
            clear_spans()

        # Process-executor column: the supervised ShardPool at 1/2/4
        # shards plus the bare-ProcessPoolExecutor comparison at the
        # overhead shard count.
        start_method = ("fork" if "fork" in mp.get_all_start_methods()
                        else "spawn")
        proc_sets, proc_warm = _process_problem_sets(n_edges, repeats)
        proc_refs = [
            [pandora(u, v, w)[0].parent for u, v, w in problem_set]
            for problem_set in proc_sets
        ]
        by_shards = {
            k: _measure_process_pool(proc_sets, proc_refs, proc_warm, k)
            for k in PROCESS_SHARDS
        }
        bare_runs = _measure_bare_pool(
            proc_sets, proc_refs, proc_warm, PROCESS_OVERHEAD_SHARDS,
            backend_name, start_method,
        )

    base = by_workers[WORKER_COUNTS[0]]["jobs_per_second"]
    scaling = {
        str(w): round(by_workers[w]["jobs_per_second"] / max(base, 1e-12), 3)
        for w in WORKER_COUNTS
    }
    cpus = os.cpu_count() or 1
    gate = FULL_GATE if n_edges >= FULL_SIZE else SMOKE_GATE
    gated = (backend_name == "numba-parallel" and cpus >= 4
             and n_edges >= GATE_MIN_EDGES)
    overhead = (policy_runs["seconds"]["best"]
                / max(plain_runs["seconds"]["best"], 1e-12))
    obs_overhead = (policy_runs["seconds"]["best"]
                    / max(obs_off_runs["seconds"]["best"], 1e-12))
    proc_base = by_shards[PROCESS_SHARDS[0]]["jobs_per_second"]
    supervisor_overhead = (
        by_shards[PROCESS_OVERHEAD_SHARDS]["seconds"]["best"]
        / max(bare_runs["seconds"]["best"], 1e-12)
    )
    report = {
        "bench": "serving",
        "backend": backend_name,
        "releases_gil": bool(getattr(backend, "releases_gil", False)),
        "cpu_count": cpus,
        "threading_layer": _threading_layer(),
        "n_jobs": SERVE_JOBS,
        "n_edges_per_job": int(n_edges),
        "repeats": int(repeats),
        "unit": "jobs/second (best of repeats)",
        "by_workers": {str(w): by_workers[w] for w in WORKER_COUNTS},
        "scaling_vs_1_worker": scaling,
        "parity": True,
        "gate": {"workers": 4, "min_ratio": gate, "asserted": gated},
        "policy_overhead": {
            "workers": POLICY_WORKERS,
            "plain": plain_runs,
            "policy": policy_runs,
            "overhead_ratio": round(overhead, 4),
            "max_ratio": POLICY_OVERHEAD_GATE,
            # Backend-independent: the hook/envelope cost exists on every
            # backend, so only the size floor conditions the assertion.
            "asserted": n_edges >= GATE_MIN_EDGES,
        },
        "obs_overhead": {
            "workers": POLICY_WORKERS,
            "obs_off": obs_off_runs,
            "obs_on": policy_runs,
            "overhead_ratio": round(obs_overhead, 4),
            "max_ratio": OBS_OVERHEAD_GATE,
            # Same floor as the policy gate: below it the batch is
            # timer-noise-dominated and the ratio means nothing.
            "asserted": n_edges >= GATE_MIN_EDGES,
        },
        "process_pool": {
            "start_method": start_method,
            "by_shards": {str(k): by_shards[k] for k in PROCESS_SHARDS},
            "scaling_vs_1_shard": {
                str(k): round(by_shards[k]["jobs_per_second"]
                              / max(proc_base, 1e-12), 3)
                for k in PROCESS_SHARDS
            },
            "supervisor_overhead": {
                "shards": PROCESS_OVERHEAD_SHARDS,
                "bare": bare_runs,
                "pool": by_shards[PROCESS_OVERHEAD_SHARDS],
                "overhead_ratio": round(supervisor_overhead, 4),
                "max_ratio": SUPERVISOR_OVERHEAD_GATE,
                # Below the size floor the jobs are IPC-dominated and the
                # ratio measures pipe scheduling, not the supervisor; on
                # one core the two pools contend non-deterministically.
                "asserted": n_edges >= GATE_MIN_EDGES and cpus >= 2,
            },
        },
    }
    with open(artifact, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report


def test_serving_bench():
    report = run_serving_bench()
    print(f"\n[serving] backend={report['backend']} "
          f"cpus={report['cpu_count']} layer={report['threading_layer']} "
          f"jobs={report['n_jobs']}x{report['n_edges_per_job']} edges")
    print(f"[serving] scaling_vs_1_worker={report['scaling_vs_1_worker']}")
    overhead = report["policy_overhead"]
    print(f"[serving] policy_overhead_ratio={overhead['overhead_ratio']} "
          f"at {overhead['workers']} workers "
          f"(gate <= {overhead['max_ratio']}, "
          f"asserted={overhead['asserted']})")
    obs = report["obs_overhead"]
    print(f"[serving] obs_overhead_ratio={obs['overhead_ratio']} "
          f"at {obs['workers']} workers (gate <= {obs['max_ratio']}, "
          f"asserted={obs['asserted']})")
    proc = report["process_pool"]
    sup = proc["supervisor_overhead"]
    print(f"[serving] process scaling_vs_1_shard={proc['scaling_vs_1_shard']} "
          f"({proc['start_method']})")
    print(f"[serving] supervisor_overhead_ratio={sup['overhead_ratio']} "
          f"at {sup['shards']} shards (gate <= {sup['max_ratio']}, "
          f"asserted={sup['asserted']})")
    full = report["n_edges_per_job"] >= FULL_SIZE
    assert os.path.exists(ARTIFACT if full else SMOKE_ARTIFACT)
    gate = report["gate"]
    if gate["asserted"]:
        ratio = report["scaling_vs_1_worker"]["4"]
        assert ratio >= gate["min_ratio"], (
            f"numba-parallel fit_many at 4 workers only {ratio}x the "
            f"1-worker rate (gate {gate['min_ratio']}x)"
        )
    if overhead["asserted"]:
        assert overhead["overhead_ratio"] <= overhead["max_ratio"], (
            f"default ServePolicy costs {overhead['overhead_ratio']}x the "
            f"plain path at {overhead['workers']} workers with no faults "
            f"(gate {overhead['max_ratio']}x)"
        )
    if obs["asserted"]:
        assert obs["overhead_ratio"] <= obs["max_ratio"], (
            f"observability layer costs {obs['overhead_ratio']}x the "
            f"obs-off policy path at {obs['workers']} workers "
            f"(gate {obs['max_ratio']}x)"
        )
    if sup["asserted"]:
        assert sup["overhead_ratio"] <= sup["max_ratio"], (
            f"supervised ShardPool costs {sup['overhead_ratio']}x a bare "
            f"ProcessPoolExecutor at {sup['shards']} shards "
            f"(gate {sup['max_ratio']}x)"
        )


if __name__ == "__main__":
    print(json.dumps(run_serving_bench(), indent=2, sort_keys=True))
