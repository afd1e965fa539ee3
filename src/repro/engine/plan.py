"""Composable execution plans: named phases producing immutable artifacts.

Every multi-phase computation in the library is a :class:`Plan`, in the
spirit of ParChain's framework layer (Yu et al.): an ordered sequence of
:class:`Phase` objects, each of which reads *named artifacts* produced by
earlier phases and contributes new ones.  Executing a plan yields a
:class:`PlanResult` holding the final artifact mapping (read-only) plus
per-phase wall-clock timings -- the library's one timing path for pipeline
phases.  PANDORA (:func:`repro.core.pandora.pandora_plan`), its
single-level ablation, and HDBSCAN* (:func:`repro.hdbscan.pipeline.
hdbscan_plan`, whose ``dendrogram`` phase runs PANDORA's plan) are plans.

Contracts
---------
* **Artifacts are write-once.**  A phase may not overwrite an artifact that
  already exists; every run's artifact is a fresh, owned value (never a
  workspace scratch buffer -- the workspace lifetime rules apply unchanged).
* **Declared dataflow.**  A phase declares ``requires`` and ``provides``;
  :meth:`Plan.execute` validates both at run time, so a recomposed plan
  that breaks the dataflow fails loudly instead of producing garbage.
* **Timing buckets.**  Each phase carries a ``bucket`` label for wall-time
  and cost-model attribution.  Several phases may share a bucket: PANDORA's
  final chain-stitch sort is accounted to the ``sort`` bucket together with
  the initial edge sort, exactly as the paper's phase breakdown groups them
  (Section 6.4.3).  When a kernel trace is being recorded, records emitted
  inside a phase are tagged with the bucket in the active model (the
  innermost tag wins, so PANDORA nested in HDBSCAN*'s ``dendrogram`` phase
  keeps its own buckets).
* **Spans.**  When a request span is open, each phase runs inside its own
  ``phase:<name>`` span, which is the current span while the phase runs:
  a plan executed inside a phase (PANDORA inside HDBSCAN*'s
  ``dendrogram``) nests its phase spans under that phase.

Plans are immutable; :meth:`Plan.replace` / :meth:`Plan.extend` derive new
plans, which is how ablations or instrumented variants are composed without
mutating the default pipeline.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Callable, Iterator, Mapping, Sequence

from ..obs.metrics import REGISTRY as _REGISTRY
from ..obs.spans import current_span as _current_span
from ..obs.spans import span as _span
from ..parallel.machine import active_model

__all__ = ["Phase", "Plan", "PlanError", "PhaseTiming", "PlanResult"]

# Per-phase wall time, observed once per executed phase (dispatcher
# granularity: nothing inside kernels is touched, so traces stay
# bit-identical with observability on).
_M_PHASE = _REGISTRY.histogram(
    "repro_phase_seconds",
    "Wall-clock seconds per executed plan phase.",
    ("phase",),
)


class PlanError(RuntimeError):
    """A plan's declared dataflow was violated at execution time."""


@dataclass(frozen=True)
class Phase:
    """One named pipeline step.

    Parameters
    ----------
    name:
        Unique phase name within a plan (e.g. ``"stitch"``).
    run:
        ``run(artifacts)`` receives the read-only artifact mapping and
        returns a mapping of the new artifacts it provides.
    requires / provides:
        Declared dataflow, validated by :meth:`Plan.execute`.
    bucket:
        Timing/cost-model attribution label; defaults to ``name``.
    """

    name: str
    run: Callable[[Mapping[str, Any]], Mapping[str, Any]]
    requires: tuple[str, ...] = ()
    provides: tuple[str, ...] = ()
    bucket: str = ""

    def __post_init__(self) -> None:
        if not self.bucket:
            object.__setattr__(self, "bucket", self.name)


@dataclass(frozen=True)
class PhaseTiming:
    """Wall-clock record of one executed phase."""

    name: str
    bucket: str
    seconds: float


@dataclass(frozen=True)
class PlanResult:
    """Artifacts and timings of one plan execution."""

    artifacts: Mapping[str, Any]
    timings: tuple[PhaseTiming, ...]

    def __getitem__(self, name: str) -> Any:
        return self.artifacts[name]

    @property
    def bucket_seconds(self) -> dict[str, float]:
        """Wall time accumulated per bucket, in first-execution order."""
        out: dict[str, float] = {}
        for t in self.timings:
            out[t.bucket] = out.get(t.bucket, 0.0) + t.seconds
        return out


class Plan:
    """An immutable ordered sequence of phases."""

    __slots__ = ("_phases",)

    def __init__(self, phases: Sequence[Phase]) -> None:
        names = [p.name for p in phases]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate phase names in plan: {names}")
        self._phases = tuple(phases)

    @property
    def phases(self) -> tuple[Phase, ...]:
        return self._phases

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self._phases)

    def __iter__(self) -> Iterator[Phase]:
        return iter(self._phases)

    def __len__(self) -> int:
        return len(self._phases)

    # -- composition -------------------------------------------------------
    def replace(self, name: str, phase: Phase) -> "Plan":
        """A new plan with the phase called ``name`` swapped out."""
        if name not in self.names:
            raise ValueError(f"no phase named {name!r} in {self.names}")
        return Plan([phase if p.name == name else p for p in self._phases])

    def extend(self, *phases: Phase) -> "Plan":
        """A new plan with extra phases appended."""
        return Plan(self._phases + phases)

    # -- execution ---------------------------------------------------------
    def execute(self, inputs: Mapping[str, Any]) -> PlanResult:
        """Run the phases in order over ``inputs``.

        When a kernel trace is being recorded (an enclosing
        :func:`~repro.parallel.machine.tracking` block), each phase's
        records are tagged with the phase bucket in the active model.
        """
        artifacts: dict[str, Any] = dict(inputs)
        view = MappingProxyType(artifacts)
        timings: list[PhaseTiming] = []
        request_span = _current_span()
        model = active_model()
        for phase in self._phases:
            missing = [r for r in phase.requires if r not in artifacts]
            if missing:
                raise PlanError(
                    f"phase {phase.name!r} requires missing artifacts "
                    f"{missing}; available: {sorted(artifacts)}"
                )
            records_before = len(model.records) if model is not None else 0
            phase_span = (
                _span(f"phase:{phase.name}", bucket=phase.bucket)
                if request_span is not None else nullcontext()
            )
            tag = model.phase(phase.bucket) if model is not None else nullcontext()
            with phase_span as sp, tag:
                t0 = time.perf_counter()
                produced = phase.run(view)
                seconds = time.perf_counter() - t0
                if sp and model is not None:
                    new = model.records[records_before:]
                    sp.annotate(kernels=len(new),
                                work=round(sum(r.work for r in new), 3))
            _M_PHASE.observe(seconds, phase=phase.name)
            produced = dict(produced or {})
            undeclared = [k for k in phase.provides if k not in produced]
            if undeclared:
                raise PlanError(
                    f"phase {phase.name!r} declared but did not provide "
                    f"{undeclared}"
                )
            clobbered = [k for k in produced if k in artifacts]
            if clobbered:
                raise PlanError(
                    f"phase {phase.name!r} would overwrite existing "
                    f"artifacts {clobbered}; artifacts are write-once"
                )
            artifacts.update(produced)
            timings.append(PhaseTiming(phase.name, phase.bucket, seconds))
        return PlanResult(
            artifacts=MappingProxyType(artifacts), timings=tuple(timings)
        )
