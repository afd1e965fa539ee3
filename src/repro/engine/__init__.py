"""Concurrency-safe engine layer: plans, artifact cache, serving facade.

Five pieces (see the sibling modules for the full contracts):

* :mod:`repro.engine.plan` -- composable :class:`Plan`/:class:`Phase`
  pipelines over named, immutable artifacts with per-phase timing; the
  PANDORA driver (:func:`repro.core.pandora.pandora_plan`) is expressed as
  one.
* :mod:`repro.engine.cache` -- the content-keyed, thread-safe
  :class:`ArtifactCache`.
* :mod:`repro.engine.engine` -- the :class:`Engine` facade: cached fits,
  batched multi-``mpts`` HDBSCAN*, multi-cut dendrogram queries, and one
  serving loop over a context-snapshotting thread pool or the process
  shard pool.
* :mod:`repro.engine.faults` -- deterministic fault injection and
  cooperative deadlines at named execution seams (importing it arms the
  hooks; never importing it keeps the seams at one ``None`` check).
* :mod:`repro.engine.resilience` -- the :class:`ServePolicy` serving
  layer: classified errors, bounded retries with backoff, deadlines,
  circuit breakers, and graceful backend degradation, returning per-job
  :class:`JobResult` envelopes.
* :mod:`repro.engine.procpool` / :mod:`repro.engine.worker` -- the
  process fault domain: a supervised :class:`ShardPool` of worker
  processes behind ``Engine(executor="process")``, with heartbeats,
  crash/hang detection and respawn, bounded job re-dispatch, poison-job
  quarantine (:class:`PoisonedJobError`), and admission-control load
  shedding (:class:`RejectedError`).

Execution state (backend selection, cost-model stack, hot-path flags,
debug checks) is context-local and workspace pools are per-thread, so any
number of engine jobs -- or plain threads -- run concurrently with zero
cross-talk; see the ROADMAP "Engine contract" and "Resilience contract"
sections.
"""

from .cache import ArtifactCache, content_key
from .plan import Phase, PhaseTiming, Plan, PlanError, PlanResult

__all__ = [
    "ArtifactCache",
    "content_key",
    "Phase",
    "PhaseTiming",
    "Plan",
    "PlanError",
    "PlanResult",
    "Engine",
    "DendrogramHandle",
    "FaultPlan",
    "SiteFaults",
    "WorkerFaults",
    "ServePolicy",
    "JobResult",
    "ShardPool",
    "RejectedError",
    "PoisonedJobError",
]

_LAZY = ("Engine", "DendrogramHandle")
_LAZY_FAULTS = ("FaultPlan", "SiteFaults", "WorkerFaults")
_LAZY_RESILIENCE = ("ServePolicy", "JobResult")
_LAZY_PROCPOOL = ("ShardPool", "RejectedError", "PoisonedJobError")


def __getattr__(name: str):
    # Engine imports repro.core / repro.hdbscan, which themselves import
    # repro.engine.plan; loading it lazily keeps the package import-cycle
    # free (PEP 562).  The faults/resilience names load lazily for a
    # different reason: importing ``faults`` installs the seam hooks, and
    # merely importing ``repro.engine`` must not arm them.
    if name in _LAZY:
        from . import engine as _engine

        return getattr(_engine, name)
    if name in _LAZY_FAULTS:
        from . import faults as _faults

        return getattr(_faults, name)
    if name in _LAZY_RESILIENCE:
        from . import resilience as _resilience

        return getattr(_resilience, name)
    if name in _LAZY_PROCPOOL:
        from . import procpool as _procpool

        return getattr(_procpool, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
