"""The analytic backend: closed-form cost models behind ``Backend``.

Prices a schedule with the paper's closed forms
(:func:`repro.core.timing.algorithm_time`, Eq 6 and per-baseline
equivalents) instead of simulating it. The closed form stays authoritative
for ``total_time`` — the reported numbers are bit-identical to calling
``algorithm_time`` directly — while the per-step timeline comes from the
matching :func:`repro.core.timing.analytic_profile` decomposition (the
timeline's own sum agrees with the total to float precision, not bit
exactly, because the closed forms factor the overhead term differently).

Algorithm knobs are recovered from the schedule itself: WRHT's group size
from ``meta["plan"].m``, H-Ring's from ``meta["m"]``; the wavelength budget
``w`` is backend configuration. Lowered summaries go through the shared
cross-run :mod:`~repro.backend.plancache`, keyed by the cost model and
every knob, so the hit/miss/eviction counters and the no-stale-reuse
guarantee behave exactly as on the simulating backends.
"""

from __future__ import annotations

from repro.backend.base import Backend, ExecutionResult, LoweredPlan, LoweredStep, StepRecord
from repro.backend.errors import BackendConfigError
from repro.backend.plancache import PlanCache, PlanCacheCounters, default_plan_cache
from repro.collectives.base import Schedule
from repro.collectives.registry import DISPLAY_NAMES
from repro.core.timing import (
    CLOSED_FORM_ALGORITHMS,
    CostModel,
    algorithm_time,
    analytic_profile,
    reconfig_exposed_time,
)
from repro.faults.models import FaultSet
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.optical.reconfig import ReconfigModel

_DEFAULT_HRING_M = 5


class AnalyticBackend(Backend):
    """Prices schedules with the closed-form models of ``repro.core.timing``."""

    name = "analytic"

    def __init__(
        self,
        model: CostModel,
        *,
        w: int = 64,
        plan_cache: PlanCache | None = None,
        faults: FaultSet | None = None,
        metrics: MetricsRegistry = NULL_METRICS,
        reconfig: ReconfigModel | None = None,
        overlap: bool = True,
    ) -> None:
        """Args:
        model: Cost parameters (line rate, step overhead, O/E/O).
        w: Wavelengths available to wavelength-aware closed forms.
        plan_cache: Cross-run cache (default: the process-wide one).
        faults: Optional fault set for degraded pricing: globally dead
            wavelengths shrink the effective budget the wavelength-aware
            closed forms see. The set also salts the plan-cache key, so
            degraded and healthy prices can never alias.
        metrics: Observability registry (default disabled); cache tallies
            are recorded and a snapshot is attached to results.
        reconfig: Optional MRR tuning model; when enabled, the exposed
            tuning of :func:`repro.core.timing.reconfig_exposed_time` is
            added on top of the closed form (the base ``t_tune`` only —
            closed forms carry no concrete wavelength assignments, so the
            per-wavelength-distance term and claim holding are priced by
            the optical backend alone). Also salts the plan-cache key.
        overlap: Overlap each step's tuning with the previous step's
            transmission (the recurrence) instead of paying it serially.
        """
        self.model = model
        self.w = w
        self.metrics = metrics
        self.reconfig = ReconfigModel() if reconfig is None else reconfig
        self.overlap = overlap
        self.faults = FaultSet() if faults is None else faults
        self.effective_w = w - len(self.faults.dead_wavelengths & frozenset(range(w)))
        if self.effective_w < 1:
            raise BackendConfigError(
                "no usable wavelengths remain under the fault set",
                backend=self.name,
            )
        self.plan_cache = default_plan_cache() if plan_cache is None else plan_cache
        base: tuple = (model, w, "analytic")
        if self.faults:
            base = base + (self.faults,)
        if self.reconfig.enabled:
            base = base + (self.reconfig, overlap)
        self._plan_key_base = base

    def lower(self, schedule: Schedule, *, bytes_per_elem: float = 4.0) -> LoweredPlan:
        """Evaluate the schedule's closed form (cross-run cached).

        Raises:
            BackendConfigError: For a non-positive element width or an
                algorithm without a registered closed form (e.g. DBTree).
        """
        if bytes_per_elem <= 0:
            raise BackendConfigError(
                f"bytes_per_elem must be positive, got {bytes_per_elem!r}",
                backend=self.name,
            )
        counters = PlanCacheCounters()
        if schedule.n_nodes == 1:
            return LoweredPlan(
                backend=self.name,
                algorithm=schedule.algorithm,
                n_nodes=1,
                n_steps=0,
                bytes_per_elem=bytes_per_elem,
                entries=(),
                cache=counters,
                meta={"total_time": 0.0},
            )
        display = DISPLAY_NAMES.get(schedule.algorithm)
        wrht_m = None
        hring_m = _DEFAULT_HRING_M
        scring_pipeline = 1
        if schedule.algorithm == "wrht":
            plan = schedule.meta.get("plan")
            wrht_m = plan.m if plan is not None else None
        elif schedule.algorithm == "hring":
            hring_m = schedule.meta.get("m", _DEFAULT_HRING_M)
        elif schedule.algorithm == "scring":
            scring_pipeline = schedule.meta.get("pipeline", 1)
        if display not in CLOSED_FORM_ALGORITHMS:
            raise BackendConfigError(
                f"no closed-form model for algorithm {schedule.algorithm!r}",
                backend=self.name,
            )
        d_bytes = schedule.total_elems * bytes_per_elem
        use_cache = self.plan_cache.enabled
        priced = None
        if use_cache:
            key = (
                (
                    display, schedule.n_nodes, schedule.total_elems,
                    wrht_m, hring_m, scring_pipeline,
                ),
                self._plan_key_base,
                bytes_per_elem,
            )
            priced = self.plan_cache.get(key)
            if priced is not None:
                counters.hits += 1
            else:
                counters.misses += 1
        if priced is None:
            total = algorithm_time(
                display, schedule.n_nodes, d_bytes, self.model,
                wrht_m=wrht_m, hring_m=hring_m, w=self.effective_w,
                scring_pipeline=scring_pipeline,
            )
            classes = analytic_profile(
                display, schedule.n_nodes, d_bytes,
                wrht_m=wrht_m, hring_m=hring_m, w=self.effective_w,
                scring_pipeline=scring_pipeline,
            )
            if self.reconfig.enabled:
                # Tuning is additive on top of the untouched closed form,
                # so the t_tune=0 total stays bit-identical by structure.
                exposed = reconfig_exposed_time(
                    classes, self.model, self.reconfig.t_tune, self.overlap
                )
                total += exposed
            priced = (
                total,
                tuple((c, self.model.step_time(c.payload_bytes)) for c in classes),
            )
            if use_cache:
                counters.evictions += self.plan_cache.put(key, priced)
        if self.metrics.enabled:
            self.metrics.inc("plan_cache.hits", counters.hits)
            self.metrics.inc("plan_cache.misses", counters.misses)
            self.metrics.inc("plan_cache.evictions", counters.evictions)
        total, priced_classes = priced
        meta = {
            "total_time": total, "wrht_m": wrht_m, "hring_m": hring_m,
            "w": self.effective_w,
        }
        if self.reconfig.enabled:
            meta["reconfig"] = {
                "t_tune": self.reconfig.t_tune,
                "tune_per_channel": 0.0,
                "overlap": self.overlap,
                "exposed_tune_s": reconfig_exposed_time(
                    tuple(c for c, _ in priced_classes),
                    self.model, self.reconfig.t_tune, self.overlap,
                ),
            }
        entries = tuple(
            LoweredStep(
                stage=cls.stage,
                count=cls.count,
                n_transfers=0,
                payload=(cls.payload_bytes, duration),
            )
            for cls, duration in priced_classes
        )
        return LoweredPlan(
            backend=self.name,
            algorithm=schedule.algorithm,
            n_nodes=schedule.n_nodes,
            n_steps=sum(e.count for e in entries),
            bytes_per_elem=bytes_per_elem,
            entries=entries,
            cache=counters,
            meta=meta,
        )

    def execute(self, plan: LoweredPlan) -> ExecutionResult:
        """Report the closed-form total with its per-class timeline."""
        timeline = tuple(
            StepRecord(
                stage=e.stage,
                count=e.count,
                duration=e.payload[1],
                bytes_per_step=e.payload[0],
            )
            for e in plan.entries
        )
        if self.metrics.enabled:
            for record in timeline:
                self.metrics.observe("analytic.step.duration_s", record.duration)
        return ExecutionResult(
            backend=self.name,
            algorithm=plan.algorithm,
            n_steps=plan.n_steps,
            total_time=plan.meta["total_time"],
            total_bytes=sum(r.bytes_per_step * r.count for r in timeline),
            timeline=timeline,
            cache=PlanCacheCounters(**plan.cache.as_dict()),
            meta=dict(plan.meta),
            metrics=self.metrics.snapshot() if self.metrics.enabled else None,
        )
