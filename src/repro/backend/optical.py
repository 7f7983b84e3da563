"""The optical-ring backend: WDM circuit switching behind ``Backend``.

Wraps :class:`~repro.optical.network.OpticalRingNetwork` (routing, RWA,
round spill-over, MRR reconfiguration pricing) in the two-stage lowering
contract and adapts its run result to the uniform
:class:`~repro.backend.base.ExecutionResult`. Timings are bit-identical to
calling the network directly — the adapter only reshapes records.
"""

from __future__ import annotations

from repro.backend.base import Backend, ExecutionResult, LoweredPlan, StepRecord
from repro.backend.plancache import PlanCache
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.optical.config import OpticalSystemConfig
from repro.optical.network import OpticalRingNetwork
from repro.sim.rng import SeededRng
from repro.sim.trace import Tracer


class OpticalBackend(Backend):
    """Prices schedules on the wavelength-routed optical ring."""

    name = "optical"

    def __init__(
        self,
        config: OpticalSystemConfig,
        *,
        strategy: str = "first_fit",
        rng: SeededRng | None = None,
        plan_cache: PlanCache | None = None,
        collect_events: bool = False,
        metrics: MetricsRegistry = NULL_METRICS,
        overlap: bool = True,
    ) -> None:
        """Args mirror :class:`~repro.optical.network.OpticalRingNetwork`;
        ``collect_events`` additionally harvests the executor's trace into
        ``ExecutionResult.events``; ``metrics`` (default disabled) collects
        observability data and attaches a snapshot to results; ``overlap``
        (default on) lets MRR tuning race the previous round's
        transmission when the config's reconfiguration model is enabled."""
        self.config = config
        self.collect_events = collect_events
        self.metrics = metrics
        self._tracer = Tracer(enabled=True) if collect_events else None
        self._net = OpticalRingNetwork(
            config,
            strategy=strategy,
            rng=rng,
            tracer=self._tracer,
            plan_cache=plan_cache,
            metrics=metrics,
            overlap=overlap,
        )

    @property
    def network(self) -> OpticalRingNetwork:
        """The underlying substrate executor (for advanced use)."""
        return self._net

    def lower(self, schedule, *, bytes_per_elem: float = 4.0) -> LoweredPlan:
        """Route/RWA/price each distinct pattern (cross-run cached).

        With the config's reconfiguration model enabled (``t_tune > 0``)
        this runs the reconfigure-vs-hold estimator
        (:func:`repro.optical.reconfig.choose_plan`) and returns the
        faster plan, decision recorded in ``meta["reconfig"]["decision"]``.
        With the model disabled (the default) it is exactly the network's
        ``lower`` — bit-identical to every pre-reconfig release.
        """
        from repro.optical.reconfig import choose_plan

        return choose_plan(self._net, schedule, bytes_per_elem)

    def verify(self, plan: LoweredPlan, schedule=None) -> list:
        """Verify with full optical evidence (circuits re-derived).

        When the source schedule is available the context also carries the
        statically re-derived circuit rounds, enabling the wavelength-
        conflict and port-budget rules on top of the structural ones.
        """
        from repro.check.context import optical_context
        from repro.check.engine import verify_plan

        if schedule is None:
            return super().verify(plan)
        context = optical_context(
            self._net, schedule, plan, bytes_per_elem=plan.bytes_per_elem
        )
        return verify_plan(context=context, raise_on_error=True)

    def execute(self, plan: LoweredPlan) -> ExecutionResult:
        """Fold the lowered plan into the uniform execution result."""
        if self._tracer is not None:
            self._tracer.clear()
        run = self._net.execute_plan(plan)
        events: tuple = ()
        if self._tracer is not None:
            events = tuple(
                (r.time, r.category, dict(r.payload)) for r in self._tracer
            )
        return _execution_result(
            run,
            meta={"interpretation": self.config.interpretation},
            metrics=self.metrics,
            events=events,
        )


def _execution_result(
    run, *, meta: dict, metrics: MetricsRegistry, events: tuple = ()
) -> ExecutionResult:
    """Reshape one optical run into the uniform result (timings untouched).

    Shared by :meth:`OpticalBackend.execute` and the planning service's
    repair path, which executes on a degraded network of its own.
    """
    return ExecutionResult(
        backend=OpticalBackend.name,
        algorithm=run.algorithm,
        n_steps=run.n_steps,
        total_time=run.total_time,
        total_bytes=run.total_bytes,
        timeline=tuple(
            StepRecord(
                stage=t.stage,
                count=t.count,
                duration=t.duration,
                bytes_per_step=t.bytes_per_step,
                n_transfers=t.n_transfers,
                rounds=t.rounds,
                peak_wavelength=t.peak_wavelength,
            )
            for t in run.step_timings
        ),
        events=events,
        cache=run.cache,
        meta=meta,
        metrics=metrics.snapshot() if metrics.enabled else None,
    )
