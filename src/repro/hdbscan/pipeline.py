"""End-to-end HDBSCAN* (Section 6.5 of the paper) as a :class:`~repro.engine.plan.Plan`.

Six phases over named artifacts, grouped into the paper's three timing
buckets (Figures 1 and 15):

1. **knn** (bucket ``mst``) -- kd-tree + kNN self-query
   (:func:`~repro.spatial.emst.knn_graph`, :func:`~repro.spatial.emst.
   knn_columns` columns); provides ``knn``;
2. **emst** (bucket ``mst``) -- mutual-reachability EMST via dual-tree
   Boruvka over that artifact; provides ``mst``;
3. **dendrogram** -- single-linkage hierarchy from the MST, with PANDORA by
   default (its own plan, nested) or any baseline by name; provides
   ``dendrogram`` and ``pandora_stats``;
4. **condense** / **select** / **labels** (bucket ``extraction``; optional
   in the paper, included here) -- condensed tree, stability selection,
   flat labels; provide ``condensed``, ``selected`` and ``flat``.

``hdbscan(points)`` is the library's front door for clustering users; its
``phase_seconds`` are the plan's bucket times.  The benchmark harness calls
it with different ``dendrogram_algorithm`` values to reproduce Figures 1
and 15, and :class:`~repro.engine.Engine` runs a variant whose ``knn`` and
``emst`` phases come from its artifact cache (``Plan.replace``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from ..core.baselines.bottomup import dendrogram_bottomup
from ..core.baselines.mixed import dendrogram_mixed
from ..core.pandora import PandoraStats, pandora
from ..engine.plan import Phase, Plan
from ..parallel.machine import CostModel
from ..spatial.emst import EMSTResult, emst, knn_columns, knn_graph
from ..structures.dendrogram import Dendrogram
from .condensed import CondensedTree, condense_tree
from .labels import FlatClustering, extract_labels
from .stability import select_clusters

__all__ = ["HDBSCANResult", "hdbscan", "hdbscan_plan", "DENDROGRAM_ALGORITHMS"]

#: Dendrogram constructions by name.  ``pandora`` returns
#: ``(dendrogram, stats)``; the baselines return the dendrogram alone.
DENDROGRAM_ALGORITHMS: dict[str, Callable] = {
    "pandora": pandora,
    "bottomup": dendrogram_bottomup,
    "unionfind": dendrogram_bottomup,  # the paper's baseline name
    "mixed": dendrogram_mixed,
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


# ---------------------------------------------------------------------------
# The default plan: knn -> emst -> dendrogram -> condense -> select -> labels.
# ---------------------------------------------------------------------------


def _knn_phase(a: Mapping[str, Any]) -> dict[str, Any]:
    n = a["points"].shape[0]
    if n <= 1:  # emst() answers (or rejects) these without a kNN table
        return {"knn": None}
    k = knn_columns(a["mpts"], n)
    return {"knn": knn_graph(a["points"], k, leaf_size=a["leaf_size"])}


def _emst_phase(a: Mapping[str, Any]) -> dict[str, Any]:
    return {"mst": emst(a["points"], mpts=a["mpts"], leaf_size=a["leaf_size"],
                        knn=a["knn"])}


def _dendrogram_phase(a: Mapping[str, Any]) -> dict[str, Any]:
    mst, n = a["mst"], a["points"].shape[0]
    build = DENDROGRAM_ALGORITHMS[a["dendrogram_algorithm"]]
    if build is pandora:
        dend, stats = pandora(mst.u, mst.v, mst.w, n, cost_model=a["cost_model"])
    else:
        dend, stats = build(mst.u, mst.v, mst.w, n), None
    return {"dendrogram": dend, "pandora_stats": stats}


def _condense_phase(a: Mapping[str, Any]) -> dict[str, Any]:
    return {"condensed": condense_tree(a["dendrogram"], a["min_cluster_size"])}


def _select_phase(a: Mapping[str, Any]) -> dict[str, Any]:
    return {"selected": select_clusters(a["condensed"],
                                        a["allow_single_cluster"])}


def _labels_phase(a: Mapping[str, Any]) -> dict[str, Any]:
    return {"flat": extract_labels(a["condensed"], a["selected"])}


def hdbscan_plan() -> Plan:
    """The default HDBSCAN* plan.

    Inputs: ``points``, ``mpts``, ``leaf_size``, ``min_cluster_size``,
    ``allow_single_cluster``, ``dendrogram_algorithm`` and ``cost_model``
    (which may be ``None``), as :func:`hdbscan` passes them.  Final
    artifacts: ``knn``, ``mst``, ``dendrogram``, ``pandora_stats``,
    ``condensed``, ``selected``, ``flat``.  Recompose with
    :meth:`~repro.engine.plan.Plan.replace`, as the engine does for its
    cached ``knn`` and ``emst`` phases.
    """
    return Plan([
        Phase("knn", _knn_phase, provides=("knn",), bucket="mst"),
        Phase("emst", _emst_phase, requires=("knn",), provides=("mst",),
              bucket="mst"),
        Phase("dendrogram", _dendrogram_phase, requires=("mst",),
              provides=("dendrogram", "pandora_stats")),
        Phase("condense", _condense_phase, requires=("dendrogram",),
              provides=("condensed",), bucket="extraction"),
        Phase("select", _select_phase, requires=("condensed",),
              provides=("selected",), bucket="extraction"),
        Phase("labels", _labels_phase, requires=("selected",),
              provides=("flat",), bucket="extraction"),
    ])


def hdbscan(
    points: np.ndarray,
    mpts: int = 2,
    min_cluster_size: int = 5,
    dendrogram_algorithm: str = "pandora",
    allow_single_cluster: bool = False,
    leaf_size: int = 96,
    cost_model: CostModel | None = None,
    plan: Plan | None = None,
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
    plan:
        Optional recomposed :class:`~repro.engine.plan.Plan`; defaults to
        :func:`hdbscan_plan`.  :class:`~repro.engine.Engine` passes one
        whose ``knn`` and ``emst`` phases read its artifact cache.

    Returns
    -------
    HDBSCANResult
        Flat ``labels``/``probabilities`` (noise is ``-1``), the
        single-linkage :class:`~repro.structures.dendrogram.Dendrogram`,
        the condensed tree and flat clustering, the mutual-reachability
        :class:`~repro.spatial.emst.EMSTResult`, PANDORA stats when that
        algorithm ran, and the plan's bucket wall times in
        ``phase_seconds`` (``mst`` / ``dendrogram`` / ``extraction``).

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
    if dendrogram_algorithm not in DENDROGRAM_ALGORITHMS:
        raise ValueError(
            f"unknown dendrogram algorithm {dendrogram_algorithm!r}; "
            f"choose from {sorted(DENDROGRAM_ALGORITHMS)}"
        )
    result = (plan or hdbscan_plan()).execute(dict(
        points=points, mpts=mpts, leaf_size=leaf_size,
        min_cluster_size=min_cluster_size,
        allow_single_cluster=allow_single_cluster,
        dendrogram_algorithm=dendrogram_algorithm, cost_model=cost_model,
    ))
    a, flat = result.artifacts, result["flat"]
    return HDBSCANResult(
        labels=flat.labels, probabilities=flat.probabilities,
        dendrogram=a["dendrogram"], condensed=a["condensed"], flat=flat,
        mst=a["mst"], pandora_stats=a["pandora_stats"],
        phase_seconds=result.bucket_seconds,
    )
