"""PANDORA driver: the full tree-contraction dendrogram algorithm.

Pipeline (Algorithm 3 + Sections 3.2/3.3), expressed as an explicit
:class:`~repro.engine.plan.Plan` of four composable phases over named,
immutable artifacts:

1. **sort** (bucket ``sort``) -- canonical edge sort (descending weight,
   ties by input id); provides the ``edges`` artifact.
2. **contraction** -- multilevel alpha-contraction (``contract_multilevel``);
   provides ``levels``.
3. **expansion** -- per-edge leaf-chain assignment over the levels;
   provides ``assignment``.
4. **stitch** (bucket ``sort``) -- chain sorting and linking into the final
   parent array; provides ``parent``.  The bucket follows the paper's phase
   accounting, which groups the initial and final sorts together (Section
   6.4.3, Figure 13).

``pandora()`` executes the default plan and returns the
:class:`~repro.structures.dendrogram.Dendrogram` plus a
:class:`PandoraStats` with per-bucket wall times (and per-phase detail);
pass a :class:`~repro.parallel.machine.CostModel` to also capture the
kernel trace for device-model pricing.  Untracked calls use a fresh
per-call throwaway sink, so concurrent executions never share mutable
accounting state (the old module-level ``_NULL_MODEL`` sink was a race).

``dendrogram_single_level()`` is the Section-3.3.1 ablation (one contraction
level, bottom-up walks in the contracted dendrogram), built from the default
plan with its contraction and expansion phases replaced and run through
``pandora()``, so it reports the same stats and phase buckets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Mapping

import numpy as np

from ..engine.plan import Phase, Plan, PlanResult
from ..parallel.backend import get_backend
from ..parallel.machine import CostModel, active_model, tracking
from ..structures.dendrogram import Dendrogram
from ..structures.edgelist import InvalidGraphError, sort_edges_descending
from .contraction import contract_multilevel, max_contraction_levels
from .expansion import assign_chains, expand_single_level, stitch_chains

__all__ = [
    "PandoraStats",
    "pandora",
    "pandora_plan",
    "pandora_parents",
    "dendrogram_single_level",
]


@dataclass
class PandoraStats:
    """Run statistics: phase wall times and contraction hierarchy shape."""

    n_edges: int
    n_vertices: int
    n_levels: int = 0
    level_sizes: list[int] = field(default_factory=list)
    alpha_counts: list[int] = field(default_factory=list)
    n_root_chain: int = 0
    phase_seconds: dict[str, float] = field(default_factory=dict)
    #: Per-plan-phase wall times (finer than the bucketed ``phase_seconds``:
    #: the initial sort and the final stitch are separate entries here).
    phase_detail: dict[str, float] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return sum(self.phase_seconds.values())

    def check_bounds(self) -> None:
        """Assert the Section-4.2 work-optimality bounds on this run."""
        bound = max_contraction_levels(self.n_edges)
        if self.n_levels - 1 > bound:
            raise AssertionError(
                f"{self.n_levels - 1} contractions exceed the "
                f"ceil(log2(n+1)) = {bound} bound"
            )
        for size, n_alpha in zip(self.level_sizes, self.alpha_counts):
            if size > 0 and n_alpha > (size - 1) / 2:
                raise AssertionError(
                    f"alpha count {n_alpha} exceeds (n-1)/2 for level size {size}"
                )


# ---------------------------------------------------------------------------
# The default plan: sort -> contraction -> expansion -> stitch.
# ---------------------------------------------------------------------------


def _sort_phase(a: Mapping[str, Any]) -> dict[str, Any]:
    edges = sort_edges_descending(a["u"], a["v"], a["w"], a["n_vertices"])
    return {"edges": edges}


def _contraction_phase(
    a: Mapping[str, Any], max_levels: int | None = None
) -> dict[str, Any]:
    edges = a["edges"]
    levels = contract_multilevel(edges.u, edges.v, edges.n_vertices, max_levels)
    return {"levels": tuple(levels)}


def _expansion_phase(a: Mapping[str, Any]) -> dict[str, Any]:
    return {"assignment": assign_chains(list(a["levels"]))}


def _stitch_phase(a: Mapping[str, Any]) -> dict[str, Any]:
    edges = a["edges"]
    parent = stitch_chains(
        a["assignment"], edges.n_edges, edges.n_vertices, a["levels"][0].max_inc
    )
    return {"parent": parent}


def pandora_plan() -> Plan:
    """The default PANDORA plan.

    Inputs: ``u``, ``v``, ``w``, ``n_vertices`` (which may be ``None``).
    Final artifacts: ``edges``, ``levels``, ``assignment``, ``parent``.
    Recompose with :meth:`~repro.engine.plan.Plan.replace` to build
    instrumented or ablated variants without touching the driver.
    """
    return Plan([
        Phase("sort", _sort_phase,
              requires=("u", "v", "w", "n_vertices"), provides=("edges",),
              bucket="sort"),
        Phase("contraction", _contraction_phase,
              requires=("edges",), provides=("levels",)),
        Phase("expansion", _expansion_phase,
              requires=("levels",), provides=("assignment",)),
        Phase("stitch", _stitch_phase,
              requires=("edges", "levels", "assignment"),
              provides=("parent",), bucket="sort"),
    ])


def _stats_from(result: PlanResult) -> PandoraStats:
    edges = result["edges"]
    levels = result["levels"]
    stats = PandoraStats(n_edges=edges.n_edges, n_vertices=edges.n_vertices)
    stats.n_levels = len(levels)
    stats.level_sizes = [lv.n_edges for lv in levels]
    stats.alpha_counts = [lv.n_alpha for lv in levels]
    if "assignment" in result.artifacts:  # absent from the ablation
        stats.n_root_chain = result["assignment"].n_root_chain
    stats.phase_seconds = result.bucket_seconds
    stats.phase_detail = {t.name: t.seconds for t in result.timings}
    return stats


def pandora(
    u,
    v,
    w,
    n_vertices: int | None = None,
    cost_model: CostModel | None = None,
    plan: Plan | None = None,
) -> tuple[Dendrogram, PandoraStats]:
    """Construct the single-linkage dendrogram of an MST with PANDORA.

    Parameters
    ----------
    u, v, w:
        MST edges (any order) as endpoint and weight arrays.
    n_vertices:
        Ambient vertex count; inferred from the endpoints when omitted.
    cost_model:
        Optional :class:`CostModel` that receives the kernel trace, tagged
        with phases ``sort`` / ``contraction`` / ``expansion``.  When
        omitted, an enclosing :func:`~repro.parallel.machine.tracking`
        context's model is used if one exists; otherwise a fresh per-call
        throwaway sink (there is deliberately no shared fallback sink).
    plan:
        Optional recomposed :class:`~repro.engine.plan.Plan`; defaults to
        :func:`pandora_plan`.

    Returns
    -------
    (dendrogram, stats)

    Raises
    ------
    InvalidGraphError
        If the edges do not form a spanning tree in canonical form
        (wrong edge count, out-of-range endpoints, cycles, ...).  This
        is a *permanent* classification: the serving layer never
        retries it (see :mod:`repro.engine.resilience`).
    """
    if cost_model is None:
        # Enclosing tracking() context if any, else a per-call sink so
        # phases can always be tagged without shared mutable state.
        cost_model = active_model() or CostModel()
    inputs = {"u": u, "v": v, "w": w, "n_vertices": n_vertices}
    with tracking(cost_model):
        try:
            result = (plan or pandora_plan()).execute(inputs, cost_model)
        except InvalidGraphError:
            raise
        except (AssertionError, IndexError, ValueError) as exc:
            # Malformed (non-tree) inputs surface wherever the pipeline
            # happens to trip over them; normalize the whole family to the
            # single permanent classification (never retried).
            raise InvalidGraphError(
                f"input is not a tree in canonical form: {exc}"
            ) from exc
    dend = Dendrogram(edges=result["edges"], parent=result["parent"])
    return dend, _stats_from(result)


def pandora_parents(
    u: np.ndarray, v: np.ndarray, n_vertices: int
) -> np.ndarray:
    """PANDORA on an already canonically-sorted tree; returns parents only.

    Row k is edge index k.  Used for recursive invocations on contracted
    trees, where weights are implied by the (preserved) index order.
    """
    backend = get_backend()
    levels = contract_multilevel(
        backend.asarray(u, dtype=np.int64),
        backend.asarray(v, dtype=np.int64),
        n_vertices,
    )
    assignment = assign_chains(levels)
    return stitch_chains(assignment, len(u), n_vertices, levels[0].max_inc)


def _single_level_expansion_phase(a: Mapping[str, Any]) -> dict[str, Any]:
    edges, levels = a["edges"], a["levels"]
    if len(levels) == 1:
        # No alpha-edges: the dendrogram is one sorted chain.
        backend = get_backend()
        n, nv = edges.n_edges, edges.n_vertices
        parent = backend.full(n + nv, -1, np.int64)
        parent[n:] = levels[0].max_inc
        if n > 1:
            parent[1:n] = backend.arange(n - 1, np.int64)
        return {"parent": parent}
    t_0, t_1 = levels[0], levels[1]
    # Contracted dendrogram of T_1 (computed exactly, then walked).
    local = pandora_parents(t_1.u, t_1.v, t_1.n_vertices)
    local_edge_parent = local[: t_1.n_edges]
    alpha_edge_parent = np.where(
        local_edge_parent >= 0, t_1.idx[local_edge_parent], -1
    )
    return {"parent": expand_single_level(t_0, t_1, alpha_edge_parent,
                                          t_1.max_inc)}


def dendrogram_single_level(
    u, v, w, n_vertices: int | None = None
) -> tuple[Dendrogram, PandoraStats]:
    """Ablation: PANDORA with a single contraction level (Section 3.3.1).

    The contracted dendrogram is built exactly (with the multilevel
    algorithm), but every contracted edge finds its chain by walking that
    dendrogram bottom-up -- the Theta(n * h_alpha) scheme of Figure 10.
    Produces the identical dendrogram; exists to measure the cost gap.
    Runs :func:`pandora` on :func:`pandora_plan` with its contraction and
    expansion phases replaced; the expansion phase provides ``parent``
    itself, so the plan has no ``stitch`` phase.
    """
    plan = Plan([p for p in pandora_plan() if p.name != "stitch"]).replace(
        "contraction", Phase(
            "contraction", partial(_contraction_phase, max_levels=1),
            requires=("edges",), provides=("levels",)),
    ).replace(
        "expansion", Phase(
            "expansion", _single_level_expansion_phase,
            requires=("edges", "levels"), provides=("parent",)),
    )
    return pandora(u, v, w, n_vertices, plan=plan)
