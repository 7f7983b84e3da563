"""Schedule executor on the electrical fat-tree.

Semantics mirror the optical executor (bulk-synchronous steps) so the two
substrates are compared like-for-like in Fig 7: a step's transfers become
concurrent fluid flows; the step lasts until the slowest flow finishes
(fluid time under max-min sharing, plus 25 µs per traversed router). Step
patterns are priced once and multiplied, exactly as on the optical side.

The executor follows the backend lowering contract
(:mod:`repro.backend.base`): :meth:`ElectricalNetwork.lower` routes each
distinct step pattern and prices its fluid timing (through the shared
cross-run :mod:`repro.backend.plancache`, keyed by the frozen config so a
changed radix/rate/ECMP mode can never reuse a stale plan);
:meth:`ElectricalNetwork.execute_plan` folds the priced entries into the
run timeline. ``execute()`` composes the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

import numpy as np

from repro.backend.base import LoweredPlan, LoweredStep
from repro.backend.errors import BackendConfigError
from repro.backend.plancache import PlanCache, PlanCacheCounters, default_plan_cache
from repro.collectives.base import CommStep, Schedule
from repro.electrical.config import ElectricalSystemConfig
from repro.electrical.fattree import FatTree
from repro.electrical.flows import Flow, FluidSimulation
from repro.electrical.routing import route
from repro.obs.metrics import COUNT_EDGES, NULL_METRICS, MetricsRegistry
from repro.sim.trace import NULL_TRACER, Tracer

BACKEND_NAME = "electrical"


@dataclass(frozen=True)
class ElectricalStepTiming:
    """Timing of one profile entry on the fat-tree.

    Attributes:
        stage: Stage label of the representative step.
        count: Steps sharing this pattern.
        n_flows: Concurrent flows per step.
        duration: Seconds per step.
        max_link_share: Largest number of flows that shared one link
            (1 means congestion-free).
        bytes_per_step: Payload bytes one step moves.
    """

    stage: str
    count: int
    n_flows: int
    duration: float
    max_link_share: int
    bytes_per_step: float


@dataclass(frozen=True)
class ElectricalStepPlan:
    """Priced summary of one step pattern (the lowered payload).

    Attributes:
        duration: Seconds per step (fluid time + router latency).
        n_flows: Concurrent flows per step.
        max_link_share: Largest number of flows sharing one link.
        bytes_per_step: Payload bytes one step moves.
        flows: Per-flow ``(n_routers, payload_bytes)`` in transfer order —
            enough for :mod:`repro.analysis.energy` to price switching
            energy off the same lowering the timing used.
    """

    duration: float
    n_flows: int
    max_link_share: int
    bytes_per_step: float
    flows: tuple[tuple[int, float], ...]


@dataclass
class ElectricalRunResult:
    """Result of pricing a schedule on the electrical substrate.

    Attributes:
        algorithm: Schedule name.
        n_steps: Total communication steps.
        total_time: End-to-end communication seconds.
        total_bytes: Payload bytes moved across all steps.
        step_timings: One entry per profile run.
        cache: Plan-cache hit/miss/eviction tallies for this run.
    """

    algorithm: str
    n_steps: int
    total_time: float
    total_bytes: float
    step_timings: list[ElectricalStepTiming] = field(default_factory=list)
    cache: PlanCacheCounters = field(default_factory=PlanCacheCounters)

    @property
    def max_link_share(self) -> int:
        """Worst link sharing across all steps (congestion indicator)."""
        return max((t.max_link_share for t in self.step_timings), default=0)


class ElectricalNetwork:
    """The electrical interconnect substrate's schedule executor."""

    def __init__(
        self,
        config: ElectricalSystemConfig,
        tracer: Tracer | None = None,
        plan_cache: PlanCache | None = None,
        metrics: MetricsRegistry = NULL_METRICS,
    ) -> None:
        self.config = config
        self.tree = FatTree(config)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self.plan_cache = default_plan_cache() if plan_cache is None else plan_cache
        # "electrical" disambiguates from optical entries in the shared cache.
        self._plan_key_base = (config, "electrical")
        self._fluid = FluidSimulation(self.tree.capacities())

    def lower(self, schedule: Schedule, bytes_per_elem: float = 4.0) -> LoweredPlan:
        """Route and fluid-price every distinct step pattern.

        Raises:
            BackendConfigError: On a schedule/host-count mismatch or
                non-positive element width.
        """
        if schedule.n_nodes > self.config.n_nodes:
            raise BackendConfigError(
                f"schedule spans {schedule.n_nodes} nodes but the fat-tree "
                f"has {self.config.n_nodes} hosts",
                backend=BACKEND_NAME,
            )
        if bytes_per_elem <= 0:
            raise BackendConfigError(
                f"bytes_per_elem must be positive, got {bytes_per_elem!r}",
                backend=BACKEND_NAME,
            )
        counters = PlanCacheCounters()
        use_cache = self.plan_cache.enabled
        priced: dict[Hashable, ElectricalStepPlan] = {}
        entries: list[LoweredStep] = []
        for step, count, key in schedule.lowering_profile():
            plan = priced.get(key)
            replay = plan is not None
            if plan is None:
                plan = self._price_pattern(step, key, bytes_per_elem, use_cache, counters)
                priced[key] = plan
            entries.append(
                LoweredStep(
                    stage=step.stage,
                    count=count,
                    n_transfers=step.n_transfers,
                    payload=plan,
                    replay=replay,
                )
            )
        if self.metrics.enabled:
            self.metrics.inc("plan_cache.hits", counters.hits)
            self.metrics.inc("plan_cache.misses", counters.misses)
            self.metrics.inc("plan_cache.evictions", counters.evictions)
        return LoweredPlan(
            backend=BACKEND_NAME,
            algorithm=schedule.algorithm,
            n_nodes=schedule.n_nodes,
            n_steps=schedule.n_steps,
            bytes_per_elem=bytes_per_elem,
            entries=tuple(entries),
            cache=counters,
        )

    def execute_plan(self, plan: LoweredPlan) -> ElectricalRunResult:
        """Fold a lowered plan into the run timeline (no routing)."""
        result = ElectricalRunResult(
            algorithm=plan.algorithm,
            n_steps=plan.n_steps,
            total_time=0.0,
            total_bytes=0.0,
            cache=PlanCacheCounters(**plan.cache.as_dict()),
        )
        for entry in plan.entries:
            priced: ElectricalStepPlan = entry.payload
            if not entry.replay:
                self.tracer.emit(
                    priced.duration, "electrical.step",
                    stage=entry.stage, n_flows=priced.n_flows,
                    max_link_share=priced.max_link_share,
                    duration=priced.duration,
                )
            result.step_timings.append(
                ElectricalStepTiming(
                    stage=entry.stage, count=entry.count,
                    n_flows=priced.n_flows, duration=priced.duration,
                    max_link_share=priced.max_link_share,
                    bytes_per_step=priced.bytes_per_step,
                )
            )
            result.total_time += priced.duration * entry.count
            result.total_bytes += priced.bytes_per_step * entry.count
            if self.metrics.enabled:
                # Simulated, per distinct profile entry — deterministic.
                self.metrics.observe("electrical.step.duration_s", priced.duration)
                self.metrics.observe(
                    "electrical.step.link_share",
                    float(priced.max_link_share),
                    edges=COUNT_EDGES,
                )
        return result

    def execute(self, schedule: Schedule, bytes_per_elem: float = 4.0) -> ElectricalRunResult:
        """Price ``schedule`` end to end (``lower`` + ``execute_plan``).

        Args:
            schedule: Any schedule whose node ids fit the host count.
            bytes_per_elem: Gradient element width (float32 → 4).
        """
        return self.execute_plan(self.lower(schedule, bytes_per_elem))

    # -- internals ------------------------------------------------------
    def _price_pattern(
        self,
        step: CommStep,
        pattern_key: Hashable,
        bytes_per_elem: float,
        use_cache: bool,
        counters: PlanCacheCounters,
    ) -> ElectricalStepPlan:
        """Fluid-priced summary for one pattern, via the cross-run cache."""
        if use_cache:
            key = (pattern_key, self._plan_key_base, bytes_per_elem)
            cached = self.plan_cache.get(key)
            if cached is not None:
                counters.hits += 1
                return cached
            counters.misses += 1
        with self.metrics.span("electrical.price_pattern"):
            # Routing stays per-pair (graph lookups), but sizes, byte totals
            # and link shares are computed over the step's arrays instead of
            # a per-transfer accumulation loop. ``step_bytes`` keeps the
            # transfer-order sequential sum so the floats are bit-identical
            # to the scalar path (numpy pairwise summation could differ in
            # the last ulp).
            paths = [
                route(self.tree, src, dst, ecmp=self.config.ecmp)
                for src, dst in zip(step.src.tolist(), step.dst.tolist())
            ]
            sizes = step.n_elems.astype(np.float64) * bytes_per_elem
            step_bytes = float(sum(sizes.tolist()))
            flows = [
                Flow(
                    flow_id=i,
                    links=path.links,
                    size=float(sizes[i]),
                    latency=path.n_routers * self.config.router_delay,
                )
                for i, path in enumerate(paths)
            ]
            flow_meta = [
                (path.n_routers, float(sizes[i]))
                for i, path in enumerate(paths)
            ]
            all_links = np.fromiter(
                (link for path in paths for link in path.links), dtype=np.int64
            )
            max_link_share = (
                int(np.bincount(all_links).max()) if all_links.size else 0
            )
            duration = self._fluid.run(flows)
        summary = ElectricalStepPlan(
            duration=duration,
            n_flows=len(flows),
            max_link_share=max_link_share,
            bytes_per_step=step_bytes,
            flows=tuple(flow_meta),
        )
        if use_cache:
            counters.evictions += self.plan_cache.put(key, summary)
        return summary
