"""End-to-end HDBSCAN* (Section 6.5 of the paper).

Steps, with per-phase wall times matching the paper's breakdown:

1. **mst** -- core distances (kNN) + mutual-reachability EMST via dual-tree
   Boruvka (:mod:`repro.spatial.emst`);
2. **dendrogram** -- single-linkage hierarchy from the MST, with PANDORA by
   default or any baseline by name;
3. **extraction** (optional in the paper, included here) -- condensed tree,
   stability selection, flat labels.

``hdbscan(points)`` is the library's front door for clustering users; the
benchmark harness calls it with different ``dendrogram_algorithm`` values to
reproduce Figures 1 and 15.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..core.baselines.bottomup import dendrogram_bottomup
from ..core.baselines.mixed import dendrogram_mixed
from ..core.pandora import PandoraStats, pandora
from ..parallel.machine import CostModel
from ..spatial.emst import EMSTResult, emst
from ..structures.dendrogram import Dendrogram
from .condensed import CondensedTree, condense_tree
from .labels import FlatClustering, extract_labels
from .stability import select_clusters

__all__ = ["HDBSCANResult", "hdbscan", "DENDROGRAM_ALGORITHMS"]


def _pandora_dendrogram(u, v, w, n_vertices, cost_model):
    dend, stats = pandora(u, v, w, n_vertices, cost_model=cost_model)
    return dend, stats


def _bottomup_dendrogram(u, v, w, n_vertices, cost_model):
    return dendrogram_bottomup(u, v, w, n_vertices), None


def _mixed_dendrogram(u, v, w, n_vertices, cost_model):
    return dendrogram_mixed(u, v, w, n_vertices), None


DENDROGRAM_ALGORITHMS: dict[str, Callable] = {
    "pandora": _pandora_dendrogram,
    "bottomup": _bottomup_dendrogram,
    "unionfind": _bottomup_dendrogram,  # the paper's baseline name
    "mixed": _mixed_dendrogram,
}


@dataclass
class HDBSCANResult:
    """Everything the pipeline produces, phases included."""

    labels: np.ndarray
    probabilities: np.ndarray
    dendrogram: Dendrogram
    condensed: CondensedTree
    flat: FlatClustering
    mst: EMSTResult
    pandora_stats: PandoraStats | None
    phase_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def n_clusters(self) -> int:
        return self.flat.n_clusters

    @property
    def total_seconds(self) -> float:
        return sum(self.phase_seconds.values())


def hdbscan(
    points: np.ndarray,
    mpts: int = 2,
    min_cluster_size: int = 5,
    dendrogram_algorithm: str = "pandora",
    allow_single_cluster: bool = False,
    leaf_size: int = 96,
    cost_model: CostModel | None = None,
    mst: EMSTResult | None = None,
) -> HDBSCANResult:
    """Hierarchical density-based clustering of a point cloud.

    Parameters
    ----------
    points:
        ``(n, d)`` float array.
    mpts:
        Core-distance neighbor count (the paper's sole HDBSCAN* parameter;
        its Figure 15 sweeps 2/4/8/16).
    min_cluster_size:
        Condensed-tree minimum cluster size for flat extraction.
    dendrogram_algorithm:
        ``"pandora"`` (default), ``"bottomup"``/``"unionfind"``, ``"mixed"``.
    allow_single_cluster:
        Permit the root cluster to be selected.
    leaf_size:
        kd-tree leaf size for the EMST.
    cost_model:
        Optional kernel-trace sink for device-model pricing.
    mst:
        Optional precomputed mutual-reachability EMST of ``points`` at this
        ``mpts`` (e.g. an :class:`~repro.engine.Engine` cache artifact);
        skips the in-pipeline EMST build and records a zero ``mst`` phase.
        The caller is responsible for parameter consistency.

    Returns
    -------
    HDBSCANResult
        Flat ``labels``/``probabilities`` (noise is ``-1``), the
        single-linkage :class:`~repro.structures.dendrogram.Dendrogram`,
        the condensed tree and flat clustering, the mutual-reachability
        :class:`~repro.spatial.emst.EMSTResult`, PANDORA stats when that
        algorithm ran, and per-phase wall times in ``phase_seconds``
        (``mst`` / ``dendrogram`` / ``extraction``).

    Raises
    ------
    ValueError
        If ``points`` is not a 2-d array or ``dendrogram_algorithm`` is
        not one of :data:`DENDROGRAM_ALGORITHMS`.
    InvalidGraphError
        If ``points`` has ``d = 0``, a non-finite coordinate, or
        coordinates whose squared distances overflow float64 (checked
        whatever the debug-checks setting).
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"points must be (n, d), got shape {points.shape}")
    try:
        dendro_fn = DENDROGRAM_ALGORITHMS[dendrogram_algorithm]
    except KeyError:
        raise ValueError(
            f"unknown dendrogram algorithm {dendrogram_algorithm!r}; "
            f"choose from {sorted(DENDROGRAM_ALGORITHMS)}"
        ) from None

    phases: dict[str, float] = {}

    t0 = time.perf_counter()
    if mst is None:
        mst = emst(points, mpts=mpts, leaf_size=leaf_size)
    phases["mst"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    dend, pstats = dendro_fn(mst.u, mst.v, mst.w, points.shape[0], cost_model)
    phases["dendrogram"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    condensed = condense_tree(dend, min_cluster_size)
    selected = select_clusters(condensed, allow_single_cluster)
    flat = extract_labels(condensed, selected)
    phases["extraction"] = time.perf_counter() - t0

    return HDBSCANResult(
        labels=flat.labels,
        probabilities=flat.probabilities,
        dendrogram=dend,
        condensed=condensed,
        flat=flat,
        mst=mst,
        pandora_stats=pstats,
        phase_seconds=phases,
    )
