"""Shared benchmark harness: cached workloads, runners, model pricing.

Benchmarks regenerate the paper's tables/figures from three ingredients:

* **measured** wall-clock times of the Python implementations (the
  vectorized PANDORA vs the inherently sequential union-find baseline --
  the same parallel-vs-sequential contrast the paper measures);
* **modeled** device times from the kernel traces, priced on the calibrated
  :class:`DeviceSpec`s (EPYC 7A53 / MI250X / A100), which is how GPU-shaped
  results are produced without GPU hardware (see DESIGN.md substitutions);
* dataset proxies from :mod:`repro.data`.

MSTs are cached on disk (``benchmarks/.cache``) because the EMST dominates
workload preparation time and every dendrogram bench shares it.
"""

from __future__ import annotations

import os
import time

import numpy as np

from ..core.pandora import pandora
from ..data.registry import load_dataset
from ..hdbscan.pipeline import DENDROGRAM_ALGORITHMS
from ..parallel.machine import (
    CPU_EPYC_7A53,
    GPU_A100,
    GPU_MI250X,
    CostModel,
    DeviceSpec,
    tracking,
)
from ..spatial.emst import emst

__all__ = [
    "CACHE_DIR",
    "get_mst",
    "time_dendrogram",
    "pandora_trace",
    "emst_trace",
    "emst_trace_cached",
    "modeled_emst",
    "modeled_unionfind_mt",
    "DEVICE_TRIO",
    "SEQ_UF_RATE",
]

CACHE_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "..",
                         "benchmarks", ".cache")

DEVICE_TRIO = {
    "epyc7a53": CPU_EPYC_7A53,
    "mi250x": GPU_MI250X,
    "a100": GPU_A100,
}

#: Single-core union-find edge processing rate (edges/second).  The paper's
#: UnionFind-MT baseline parallelizes only the sort; the union-find loop is
#: sequential, and this constant prices it (a path-halving find/union pair
#: costs ~65ns on a modern core once the tree exceeds cache).
SEQ_UF_RATE = 1.5e7

_MEM_CACHE: dict[tuple, tuple] = {}


def get_mst(
    dataset: str, n: int, mpts: int = 2, seed: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Mutual-reachability MST of a registry dataset, disk + memory cached."""
    key = (dataset, n, mpts, seed)
    if key in _MEM_CACHE:
        return _MEM_CACHE[key]
    os.makedirs(CACHE_DIR, exist_ok=True)
    path = os.path.join(CACHE_DIR, f"{dataset}_{n}_{mpts}_{seed}.npz")
    if os.path.exists(path):
        z = np.load(path)
        out = (z["u"], z["v"], z["w"], int(z["nv"]))
    else:
        pts = load_dataset(dataset, n=n, seed=seed)
        r = emst(pts, mpts=mpts)
        out = (r.u, r.v, r.w, pts.shape[0])
        np.savez_compressed(path, u=r.u, v=r.v, w=r.w, nv=pts.shape[0])
    _MEM_CACHE[key] = out
    return out


def time_dendrogram(
    algorithm: str,
    u: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
    n_vertices: int,
    repeats: int = 3,
) -> tuple[float, object]:
    """Best-of-``repeats`` wall time of a dendrogram construction, by its
    :data:`~repro.hdbscan.pipeline.DENDROGRAM_ALGORITHMS` name."""
    fn = DENDROGRAM_ALGORITHMS[algorithm]
    best = np.inf
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn(u, v, w, n_vertices)
        dt = time.perf_counter() - t0
        best = min(best, dt)
    # pandora also returns its stats
    return best, result[0] if isinstance(result, tuple) else result


def pandora_trace(
    u: np.ndarray, v: np.ndarray, w: np.ndarray, n_vertices: int
) -> CostModel:
    """Kernel trace of one PANDORA run (phases sort/contraction/expansion)."""
    model = CostModel()
    with tracking(model):
        pandora(u, v, w, n_vertices)
    return model


def emst_trace(points: np.ndarray, mpts: int = 2) -> CostModel:
    """Kernel trace of the EMST (everything tagged phase ``mst``)."""
    model = CostModel()
    with tracking(model):
        with model.phase("mst"):
            emst(points, mpts=mpts)
    return model


def emst_trace_cached(dataset: str, n: int, mpts: int = 2, seed: int = 0) -> CostModel:
    """Disk-cached EMST kernel trace for a registry dataset.

    Tracing requires running the full EMST, which dominates bench time;
    the (name, category, work, phase) record list is persisted alongside
    the MST cache.
    """
    os.makedirs(CACHE_DIR, exist_ok=True)
    path = os.path.join(CACHE_DIR, f"trace_{dataset}_{n}_{mpts}_{seed}.npz")
    model = CostModel()
    if os.path.exists(path):
        z = np.load(path, allow_pickle=False)
        names = z["names"]
        cats = z["cats"]
        works = z["works"]
        phases = z["phases"]
        from ..parallel.machine import KernelRecord

        model.records = [
            KernelRecord(str(nm), str(ct), int(wk), str(ph))
            for nm, ct, wk, ph in zip(names, cats, works, phases)
        ]
        return model
    pts = load_dataset(dataset, n=n, seed=seed)
    model = emst_trace(pts, mpts=mpts)
    np.savez_compressed(
        path,
        names=np.array([r.name for r in model.records]),
        cats=np.array([r.category for r in model.records]),
        works=np.array([r.work for r in model.records], dtype=np.int64),
        phases=np.array([r.phase for r in model.records]),
    )
    return model


def modeled_emst(n_points: int, spec: DeviceSpec, mpts: int = 2) -> float:
    """Modeled EMST time, anchored to ArborX's reported throughput.

    The *dendrogram* figures use our own kernel traces; the EMST is
    different: our NumPy dual-tree necessarily visits many more leaf pairs
    than ArborX's tuned single-tree Boruvka (large leaves, level-synchronous
    bounds), so pricing its trace would overstate absolute MST times by an
    order of magnitude (trace *ratios* between devices remain meaningful and
    are used for Figure 12).  For absolute pipeline compositions (Figures 1
    and 15) we anchor throughput to the rates derivable from the paper's
    Figure 15 (Hacc37M, mpts=2): ~4.5 MPts/s on the 64-core EPYC and
    ~43 MPts/s on MI250X, with the A100 scaled by a typical 1.35x.  The mpts
    growth factor follows the same figure: EMST cost roughly doubles
    (CPU) / triples (GPU) from mpts=2 to 16.
    """
    import math

    if spec.kind == "gpu":
        base = 43e6 * (1.35 if "A100" in spec.name else 1.0)
        growth = 1.0 + 0.7 * math.log2(max(mpts, 2) / 2)
    else:
        base = 4.5e6 * (spec.throughput["map"] / 1.6e10)
        growth = 1.0 + 0.4 * math.log2(max(mpts, 2) / 2)
    return n_points / base * growth


def modeled_unionfind_mt(n_edges: int, spec: DeviceSpec) -> float:
    """Modeled time of the UnionFind-MT baseline on a device.

    Parallel sort (device-rate) + sequential union-find loop (single-core
    rate, irrespective of the device -- the baseline cannot parallelize it;
    it is only meaningful for CPU specs, matching Table 1's inventory).
    """
    import math

    sort_work = n_edges * max(math.log2(max(n_edges, 2)), 1.0)
    sort_t = spec.launch_latency + sort_work / spec.throughput["sort"]
    seq_t = n_edges / SEQ_UF_RATE
    return sort_t + seq_t
