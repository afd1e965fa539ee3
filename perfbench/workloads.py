"""The three workloads: ``hdbscan``, ``dendrogram`` and ``serve``.

Each is a closed loop with one client: the next request is issued when the
previous one returns.  Every input is first run once untimed (lazy set-up,
workspace pools and caches fill), then requests cycle through the inputs
until the run's time is up.  Every output, warm-up included, is checked
against a reference made before the loop.

With ``trace`` set, the same loop records the per-layer trace instead of
the end-to-end figures; see ``layers.py`` and ``README.md``.
"""

from __future__ import annotations

import importlib
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import inputs
import oracles
from layers import Tracer

# Inputs are small enough that one request takes under a tenth of a second
# on a small CPU box, so a run holds hundreds of requests, and that their
# arrays stay in cache: on a shared machine, memory-bound requests vary
# more from run to run.
HDBSCAN = dict(n=1500, clouds=6, mpts=4, min_cluster_size=15, leaf_size=96)
DENDROGRAM = dict(m=25_000, trees=4)
SERVE = dict(m=25_000, trees=4, batch=8, shards=2)

PANDORA_PHASES = ("sort", "contraction", "expansion", "stitch")
# Spans the hdbscan trace records, reported as self time per request.
SPANNED_LAYERS = (
    "kdtree.build", "knn.query", "emst.seed", "emst.aggregate", "emst.traverse",
    "emst.leaf_pairs", "emst.resolve", "emst.guard", "extract.condense",
    "extract.select", "extract.labels",
)

# step(i) runs request number i and returns
# (latency_s, operations attempted, operations failed, output correct).
Step = Callable[[int], tuple[float, int, int, bool]]


@dataclass
class Outcome:
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    layers: dict[str, float] = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)  # last traced request or batch


def _attempt(step: Step, i: int) -> tuple[float, int, int, bool] | None:
    """``step(i)``, or None if it raised: a request that raises counts as
    one failed, incorrect operation and the loop goes on."""
    try:
        return step(i)
    except Exception:
        traceback.print_exc()
        return None


def _warm(step: Step, n_inputs: int) -> bool:
    """Run every input once, untimed; True if all were correct."""
    ok = True
    for i in range(n_inputs):
        _, _, failed, correct = _attempt(step, i) or (None, 1, 1, False)
        ok &= correct and not failed
    return ok


def _closed_loop(step: Step, seconds: float, warm_ok: bool) -> Outcome:
    out = Outcome(correct=warm_ok)
    t_end = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < t_end:
        latency, attempted, failed, ok = _attempt(step, i) or (None, 1, 1, False)
        if latency is not None:
            out.latencies.append(latency)
        out.attempted += attempted
        out.failed += failed
        out.correct &= ok
        i += 1
    return out


def _pandora_layers(phase_seconds: dict[str, float], n: int) -> dict[str, float]:
    return {f"pandora.{k}_ms": s * 1e3 / n for k, s in phase_seconds.items()}


# ---------------------------------------------------------------------------
# hdbscan: point cloud -> flat labels through the library's front door.
# ---------------------------------------------------------------------------

def _hdbscan_by_layer(points, tr: Tracer, cfg: dict):
    """The ``hdbscan()`` pipeline called layer by layer, each in a span."""
    from repro.core.pandora import pandora
    from repro.hdbscan.condensed import condense_tree
    from repro.hdbscan.labels import extract_labels
    from repro.hdbscan.stability import select_clusters
    from repro.spatial.emst import emst, knn_graph
    from repro.spatial.kdtree import KDTree

    n = points.shape[0]
    with tr.span("kdtree.build"):
        tree = KDTree.build(points, leaf_size=cfg["leaf_size"])
    with tr.span("knn.query"):
        # The column count emst() queries for itself: mpts, widened to
        # its default 8 seeding columns.
        knn = knn_graph(points, max(cfg["mpts"], min(8, n)), tree=tree)
    with tr.span("emst"):
        mst = emst(points, mpts=cfg["mpts"], leaf_size=cfg["leaf_size"], knn=knn)
    with tr.span("pandora"):
        dend, stats = pandora(mst.u, mst.v, mst.w, n)
    with tr.span("extract.condense"):
        condensed = condense_tree(dend, cfg["min_cluster_size"])
    with tr.span("extract.select"):
        selected = select_clusters(condensed, False)
    with tr.span("extract.labels"):
        flat = extract_labels(condensed, selected)
    return flat.labels, mst, stats


def run_hdbscan(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.hdbscan.pipeline import hdbscan

    # The module, not the function ``repro.spatial`` re-exports by that name.
    emst_mod = importlib.import_module("repro.spatial.emst")

    cfg = HDBSCAN
    clouds = inputs.point_clouds(seed, cfg["clouds"], cfg["n"])
    want_w = [oracles.mutual_reachability_mst_weight(p, cfg["mpts"])
              for p in clouds]
    want_labels = [
        hdbscan(p, mpts=cfg["mpts"], min_cluster_size=cfg["min_cluster_size"],
                dendrogram_algorithm="unionfind").labels
        for p in clouds
    ]

    def correct(i, labels, mst) -> bool:
        return (np.array_equal(labels, want_labels[i])
                and oracles.weight_matches(float(mst.w.sum()), want_w[i]))

    def step(i):
        i %= len(clouds)
        t0 = time.perf_counter()
        res = hdbscan(clouds[i], mpts=cfg["mpts"],
                      min_cluster_size=cfg["min_cluster_size"],
                      leaf_size=cfg["leaf_size"])
        return time.perf_counter() - t0, 1, 0, correct(i, res.labels, res.mst)

    warm_ok = _warm(step, len(clouds))
    if not trace:
        return _closed_loop(step, seconds, warm_ok)

    tr = Tracer()
    phases = dict.fromkeys(PANDORA_PHASES, 0.0)
    counts = {"emst.rounds": 0, "pandora.levels": 0}
    last_root = [0]

    def traced_step(i):
        i %= len(clouds)
        last_root[0] = len(tr.spans)
        t0 = time.perf_counter()
        with tr.span("request"):
            labels, mst, stats = _hdbscan_by_layer(clouds[i], tr, cfg)
        latency = time.perf_counter() - t0
        for name in PANDORA_PHASES:
            phases[name] += stats.phase_detail.get(name, 0.0)
        counts["emst.rounds"] += mst.n_rounds
        counts["pandora.levels"] += stats.n_levels
        return latency, 1, 0, correct(i, labels, mst)

    tr.wrap(emst_mod, "spatial_seed_scan", "emst.seed")
    tr.wrap(emst_mod, "spatial_node_reduce", "emst.aggregate")
    tr.wrap(emst_mod, "_traverse", "emst.traverse")
    tr.wrap(emst_mod, "spatial_leaf_pairs", "emst.leaf_pairs",
            count=lambda tree, leaf_a, *rest: len(leaf_a))
    tr.wrap(emst_mod, "_resolve_candidates", "emst.resolve")
    tr.wrap(emst_mod, "_forest_guard", "emst.guard")
    try:
        out = _closed_loop(traced_step, seconds, warm_ok)
    finally:
        tr.unwrap()
    n = len(out.latencies)
    self_s = tr.self_seconds()
    ms = {name: s * 1e3 / n for name, s in self_s.items()}
    out.layers = {f"{name}_ms": ms.get(name, 0.0) for name in SPANNED_LAYERS}
    out.layers.update({
        "emst.other_ms": ms.get("emst", 0.0),
        "emst.rounds": counts["emst.rounds"] / n,
        "emst.leaf_pairs": tr.counts.get("emst.leaf_pairs", 0.0) / n,
        **_pandora_layers(phases, n),
        "pandora.levels": counts["pandora.levels"] / n,
        # Share of request time inside a named layer (the rest is the
        # benchmark's own glue between the calls).
        "trace.coverage": 1.0 - self_s.get("request", 0.0) / sum(out.latencies),
    })
    out.spans = tr.export(last_root[0])
    return out


# ---------------------------------------------------------------------------
# dendrogram: MST edges -> dendrogram parents (PANDORA).
# ---------------------------------------------------------------------------

def run_dendrogram(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.core.baselines.bottomup import dendrogram_bottomup
    from repro.core.pandora import pandora

    cfg = DENDROGRAM
    trees = inputs.spanning_trees(seed, cfg["trees"], cfg["m"])
    want = [dendrogram_bottomup(u, v, w).parent for u, v, w in trees]
    phases = dict.fromkeys(PANDORA_PHASES, 0.0)
    levels = [0]

    def step(i):
        i %= len(trees)
        u, v, w = trees[i]
        t0 = time.perf_counter()
        dend, stats = pandora(u, v, w)
        latency = time.perf_counter() - t0
        for name in PANDORA_PHASES:
            phases[name] += stats.phase_detail.get(name, 0.0)
        levels[0] += stats.n_levels
        return latency, 1, 0, np.array_equal(dend.parent, want[i])

    warm_ok = _warm(step, len(trees))
    phases.update(dict.fromkeys(PANDORA_PHASES, 0.0))
    levels[0] = 0
    out = _closed_loop(step, seconds, warm_ok)
    if trace:
        n = len(out.latencies)
        out.layers = {
            **_pandora_layers(phases, n),
            "pandora.levels": levels[0] / n,
            "trace.coverage": sum(phases.values()) / sum(out.latencies),
        }
    return out


# ---------------------------------------------------------------------------
# serve: batches of MSTs through Engine.fit_many on the process executor.
# ---------------------------------------------------------------------------

def run_serve(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.core.baselines.bottomup import dendrogram_bottomup
    from repro.engine import Engine
    from repro.engine.resilience import ServePolicy
    from repro.obs import clear_spans

    cfg = SERVE
    trees = inputs.spanning_trees(seed, cfg["trees"], cfg["m"])
    want = [dendrogram_bottomup(u, v, w).parent for u, v, w in trees]
    policy = ServePolicy()
    totals = dict.fromkeys(("queue", "shard", "transport", "jobs"), 0.0)
    phases = dict.fromkeys(PANDORA_PHASES, 0.0)
    out_spans: list[dict] = []

    def batch(i):
        # Scaling weights by a power of two keeps their order, and so the
        # dendrogram, exactly, but gives every job new content: the
        # engine's content-keyed caches never hit.
        jobs, which = [], []
        for j in range(cfg["batch"]):
            k = i * cfg["batch"] + j
            u, v, w = trees[k % len(trees)]
            jobs.append((u, v, w * 2.0 ** (k % 512 - 256)))
            which.append(k % len(trees))
        return jobs, which

    engine = Engine(executor="process", shards=cfg["shards"])
    try:
        def step(i):
            jobs, which = batch(i)
            clear_spans()
            t0 = time.perf_counter()
            results = engine.fit_many(jobs, policy=policy)
            latency = time.perf_counter() - t0
            failed = sum(r.status != "ok" for r in results)
            ok = all(r.status == "ok" and np.array_equal(r.value.parent, want[t])
                     for r, t in zip(results, which))
            if trace:
                out_spans[:] = engine.metrics(spans=len(jobs))["spans"]
                for root in out_spans:
                    _account_request(root, totals, phases)
            return latency, len(jobs), failed, ok

        warm_ok = _warm(step, 1)
        totals.update(dict.fromkeys(totals, 0.0))
        phases.update(dict.fromkeys(PANDORA_PHASES, 0.0))
        out = _closed_loop(step, seconds, warm_ok)
    finally:
        engine.shutdown()
    if trace:
        jobs = max(totals["jobs"], 1.0)
        out.layers = {
            "serve.queue_wait_ms": totals["queue"] * 1e3 / jobs,
            "serve.shard_ms": totals["shard"] * 1e3 / jobs,
            "serve.transport_ms": totals["transport"] * 1e3 / jobs,
            **_pandora_layers(phases, jobs),
            # Share of the shards' batch time spent running a job.
            "serve.shard_busy": totals["shard"]
            / (cfg["shards"] * sum(out.latencies)),
        }
        out.spans = out_spans
    return out


def _account_request(root: dict, totals: dict, phases: dict) -> None:
    """Split one process-executor request span into queue wait, in-worker
    time and the rest (pickling, pipes and the supervisor's hand-offs)."""
    queue = sum(c["duration_s"] for c in root["children"] if c["name"] == "queue")
    shard = sum(c["duration_s"] for c in root["children"]
                if c["name"].startswith("shard:"))
    totals["queue"] += queue
    totals["shard"] += shard
    totals["transport"] += root["duration_s"] - queue - shard
    totals["jobs"] += 1
    stack = list(root["children"])
    while stack:
        sp = stack.pop()
        name = sp["name"].removeprefix("phase:")
        if sp["name"].startswith("phase:") and name in phases:
            phases[name] += sp["duration_s"]
        stack.extend(sp["children"])


WORKLOADS = {
    "hdbscan": run_hdbscan,
    "dendrogram": run_dendrogram,
    "serve": run_serve,
}
