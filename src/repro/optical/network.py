"""Step-synchronous executor: price a schedule on the optical ring.

Execution model (the paper's, Sec 4.2/4.3): steps are barriers. Before each
round of a step the MRRs are reconfigured (25 µs); the round's circuits then
transmit concurrently, and the round lasts as long as its slowest payload
(serialization at the per-wavelength line rate plus per-packet O/E/O
conversion). A step that fits the wavelength budget is one round; wavelength
scarcity spills the unplaced transfers into follow-up rounds — this is how
e.g. H-Ring's ``⌈m/w⌉ > 1`` regime or WRHT under tiny ``w`` cost extra time
without any special-casing.

Since the unified backend refactor the executor follows the two-stage
lowering contract (:mod:`repro.backend.base`): :meth:`OpticalRingNetwork.lower`
routes, wavelength-assigns and prices each distinct step pattern (through
the cross-run :mod:`repro.backend.plancache`), and
:meth:`OpticalRingNetwork.execute_plan` folds the lowered plan into a
timeline. ``execute()`` composes the two and is bit-identical to the
pre-refactor single-pass executor (asserted by regression tests).

Steps with identical communication patterns take identical time, so the
lowering prices each distinct pattern once and the fold multiplies — Ring
All-reduce at N=4096 (8190 steps) costs two RWA computations, not 33 million
transfer events. The correctness of that compression is property-tested
against uncompressed execution.

Who sends to whom sets a step's rounds; the payload only scales each
round's serialization (Eq 6). So a network also solves each ordered
(src, dst) sequence once: routing, RWA and both validators run on the
first pattern with that sequence, and every further payload (another chunk
size, or the copy half of a schedule) is priced from the kept rounds'
transfer indices. Networks whose solve depends on more than the pairs
(``random_fit``, kept or repaired solutions, a disabled plan cache) solve
every pattern.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Hashable, NamedTuple

import numpy as np

from repro.backend.base import LoweredPlan, LoweredStep
from repro.backend.errors import BackendConfigError, BackendError
from repro.backend.plancache import (
    CachedRound,
    PlanCache,
    PlanCacheCounters,
    default_plan_cache,
    delta_salted_key,
)
from repro.collectives.base import CommStep, Schedule
from repro.core.timing import CostModel
from repro.obs.metrics import COUNT_EDGES, NULL_METRICS, MetricsRegistry
from repro.optical.circuit import Circuit, validate_no_conflicts
from repro.optical.config import OpticalSystemConfig
from repro.optical.node import validate_node_constraints
from repro.optical.phy import validate_route_phy
from repro.optical.reconfig import apply_reconfig, round_claims
from repro.optical.repair import RwaContext, capture_solution, repair_rounds
from repro.optical.rwa import plan_rounds
from repro.optical.topology import RingTopology
from repro.sim.rng import SeededRng
from repro.sim.trace import NULL_TRACER, Tracer

BACKEND_NAME = "optical"


@dataclass(frozen=True)
class StepTiming:
    """Timing of one profile entry (a run of identical-pattern steps).

    Attributes:
        stage: The representative step's stage label.
        count: How many consecutive steps share this pattern.
        n_transfers: Concurrent transfers per step.
        rounds: RWA rounds each step needed.
        duration: Seconds per step (all rounds included).
        peak_wavelength: Distinct wavelength indices touched in a step.
        bytes_per_step: Total payload bytes a single step moves.
    """

    stage: str
    count: int
    n_transfers: int
    rounds: int
    duration: float
    peak_wavelength: int
    bytes_per_step: float


@dataclass
class OpticalRunResult:
    """Result of pricing a schedule on the optical substrate.

    Attributes:
        algorithm: Schedule name.
        n_steps: Total communication steps.
        total_time: End-to-end communication seconds.
        total_bytes: Payload bytes moved across all steps.
        step_timings: One entry per profile run.
        peak_wavelength: Max wavelengths any round used.
        cache: Plan-cache hit/miss/eviction tallies for *this* run (zeros
            for ``random_fit``, which bypasses the cross-run cache, and
            when the cache is disabled).
    """

    algorithm: str
    n_steps: int
    total_time: float
    total_bytes: float
    step_timings: list[StepTiming] = field(default_factory=list)
    peak_wavelength: int = 0
    cache: PlanCacheCounters = field(default_factory=PlanCacheCounters)

    @property
    def total_rounds(self) -> int:
        """Reconfiguration rounds across the whole run."""
        return sum(t.rounds * t.count for t in self.step_timings)


class _SolvedRound(NamedTuple):
    """One round of a solved step pattern, without its payloads."""

    indices: np.ndarray  # transfer indices in assignment order
    peak_wavelength: int
    claims: tuple


class OpticalRingNetwork:
    """The optical interconnect substrate's schedule executor."""

    def __init__(
        self,
        config: OpticalSystemConfig,
        strategy: str = "first_fit",
        rng: SeededRng | None = None,
        tracer: Tracer | None = None,
        plan_cache: PlanCache | None = None,
        metrics: MetricsRegistry = NULL_METRICS,
        keep_solutions: bool = False,
        repair_from: "OpticalRingNetwork | None" = None,
        paranoid_repair: bool = False,
        overlap: bool = True,
        capture_claims: bool | None = None,
    ) -> None:
        self.config = config
        self.topology = RingTopology(config.n_nodes)
        self.strategy = strategy
        self.rng = rng.fork("rwa") if rng is not None else None
        if strategy == "random_fit" and self.rng is None:
            raise ValueError("random_fit requires an rng")
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        # Cross-run plan cache (default: the process-wide shared one). The
        # key salts every pricing-relevant knob: the frozen config (which
        # covers failed_wavelengths and the PHY parameters) and the
        # strategy — changing either is a new key, so no explicit
        # invalidation is ever needed.
        self.plan_cache = default_plan_cache() if plan_cache is None else plan_cache
        self._plan_key_base = (config, strategy)
        self._cost = config.cost_model()
        # Incremental-repair wiring. ``keep_solutions`` retains the full
        # per-pattern RWA solutions (not just priced summaries) so a later
        # network can repair them; ``repair_from`` chains this network to a
        # base whose solutions it repairs instead of re-solving. Repaired
        # patterns get *delta-salted* plan-cache keys — (base key, fault
        # diff) rather than the final config — so a repaired coloring can
        # never collide with a from-scratch entry for the same fault set.
        self.keep_solutions = keep_solutions
        self.paranoid_repair = paranoid_repair
        self._solutions: dict[tuple, "object"] = {}
        # Solved step patterns, keyed by the ordered (src, dst) sequence
        # and the partition half: the rounds do not depend on the payload,
        # so a new chunk size (or the copy half of a schedule) is priced
        # from these without routing or RWA. Bounded by the plan cache's
        # maxsize, oldest dropped first; see ``_solve_pattern``.
        self._solved: OrderedDict[tuple, tuple[_SolvedRound, ...]] = OrderedDict()
        # The latest ``plan_step_rounds`` solve (assignments, payloads,
        # durations), which ``_solve_pattern`` reads back to fill the table.
        # Held here rather than on the returned circuit lists, so callers
        # that keep those lists (the live DES, the verifier) keep nothing
        # more than before.
        self._last_solve: tuple | None = None
        self._repair_base = repair_from
        if repair_from is not None:
            if strategy == "random_fit":
                raise ValueError(
                    "incremental repair is deterministic and cannot preserve "
                    "the random_fit RNG stream; use first_fit"
                )
            diff = tuple(
                f
                for f in config.faults.faults
                if f not in set(repair_from.config.faults.faults)
            )
            self._plan_key_base = delta_salted_key(
                repair_from._plan_key_base, ("fault-delta", diff)
            )
        # Fault-derived views, hoisted so the per-step path pays nothing
        # when the fault set is empty (every one of these is then falsy and
        # the lowering takes the exact pre-fault code paths).
        faults = config.faults
        self._dead_nodes = faults.dead_nodes
        self._port_faults_active = bool(faults.port_faults)
        self._quarantine = faults.segment_quarantine_masks(config.n_nodes) or None
        self._has_cuts = bool(faults.cut_segments)
        self._phy = config.effective_phy
        # Reconfiguration model (repro.optical.reconfig). Claims are only
        # captured when the model is enabled (or explicitly requested for
        # tests), so the disabled path produces byte-identical CachedRound
        # summaries; a claims-bearing summary under a tuning-free config
        # gets its own cache namespace.
        self._reconfig = config.reconfig
        self.overlap = overlap
        self._capture_claims = (
            self._reconfig.enabled if capture_claims is None else capture_claims
        )
        if self._capture_claims and not self._reconfig.enabled:
            self._plan_key_base = (self._plan_key_base, "claims")

    @property
    def cost_model(self) -> CostModel:
        """The analytical cost model this substrate is consistent with."""
        return self._cost

    def lower(
        self,
        schedule: Schedule,
        bytes_per_elem: float = 4.0,
        *,
        partition: bool = False,
    ) -> LoweredPlan:
        """Route, wavelength-assign and price every distinct step pattern.

        Patterns are priced once per call (per-plan dedup) and memoized in
        the cross-run plan cache for deterministic strategies; repeats are
        marked ``replay`` so execution can trace them compactly. A plan-
        cache miss whose ordered (src, dst) sequence this network has
        already solved is priced from the kept rounds without routing or
        RWA (counted as ``rwa.solve_reused``). That reuse runs only where
        the solve depends on the pairs alone: the cache is enabled, the
        strategy is deterministic, and the network neither keeps solutions
        for repair nor repairs a base's.

        With ``partition=True`` (the reconfigure-vs-hold estimator's *hold*
        variant) adjacent profile entries are confined to alternating
        halves of the wavelength budget, making their MRR claims channel-
        disjoint — every retune overlaps the previous step's transmission —
        at the cost of extra rounds when a step no longer fits its half.

        When the config's reconfiguration model is enabled
        (``t_tune > 0``), the plan is annotated by
        :func:`repro.optical.reconfig.apply_reconfig` before returning.

        Raises:
            BackendConfigError: On a schedule/width mismatch at entry.
            BackendError: From RWA infeasibility (including a partition
                that leaves a half-budget empty), annotated with the
                backend name and failing profile-entry index.
        """
        if partition and self.config.n_wavelengths < 2:
            raise BackendError(
                "wavelength partition needs at least 2 wavelengths",
                backend=BACKEND_NAME,
            )
        if schedule.n_nodes > self.config.n_nodes:
            raise BackendConfigError(
                f"schedule spans {schedule.n_nodes} nodes but the ring has "
                f"{self.config.n_nodes}",
                backend=BACKEND_NAME,
            )
        if bytes_per_elem <= 0:
            raise BackendConfigError(
                f"bytes_per_elem must be positive, got {bytes_per_elem!r}",
                backend=BACKEND_NAME,
            )
        counters = PlanCacheCounters()
        # Deterministic strategies only (a random_fit hit would skip the
        # RNG draws an uncached run performs, changing every later
        # assignment in the stream).
        use_cache = self.plan_cache.enabled and self.strategy != "random_fit"
        # Keep and repair networks must capture or repair every pattern's
        # own transfers, so they always solve.
        reuse = (
            use_cache and not self.keep_solutions and self._repair_base is None
        )
        if not reuse:
            self._solved.clear()
        half = self.config.n_wavelengths // 2
        lower_half = frozenset(range(half))
        upper_half = frozenset(range(half, self.config.n_wavelengths))
        priced: dict[Hashable, tuple[CachedRound, ...]] = {}
        entries: list[LoweredStep] = []
        for index, (step, count, key) in enumerate(schedule.lowering_profile()):
            extra_blocked = None
            if partition:
                # Even entries use the lower half, odd entries the upper —
                # adjacent steps can never claim the same channel.
                parity = index % 2
                extra_blocked = upper_half if parity == 0 else lower_half
                key = (key, ("partition", parity))
            rounds = priced.get(key)
            replay = rounds is not None
            if rounds is None:
                try:
                    rounds = self._price_pattern(
                        step, key, bytes_per_elem, use_cache, reuse, counters,
                        extra_blocked=extra_blocked,
                    )
                except BackendError as exc:
                    if exc.backend is None:
                        exc.backend = BACKEND_NAME
                    if exc.step_index is None:
                        exc.step_index = index
                    raise
                priced[key] = rounds
            entries.append(
                LoweredStep(
                    stage=step.stage,
                    count=count,
                    n_transfers=step.n_transfers,
                    payload=rounds,
                    replay=replay,
                )
            )
        if self.metrics.enabled:
            self.metrics.inc("plan_cache.hits", counters.hits)
            self.metrics.inc("plan_cache.misses", counters.misses)
            self.metrics.inc("plan_cache.evictions", counters.evictions)
        meta: dict = {}
        if schedule.meta.get("plan") is not None:
            # Carried so the static verifier (repro.check) can audit group
            # size / step count from the lowered plan alone.
            meta["wrht_plan"] = schedule.meta["plan"]
        if schedule.meta.get("participants") is not None:
            # Degraded (shrunk-node) schedules span fewer compute endpoints
            # than the ring has; the verifier needs the participant set to
            # audit dataflow and step counts against the survivor count.
            meta["participants"] = schedule.meta["participants"]
        plan = LoweredPlan(
            backend=BACKEND_NAME,
            algorithm=schedule.algorithm,
            n_nodes=schedule.n_nodes,
            n_steps=schedule.n_steps,
            bytes_per_elem=bytes_per_elem,
            entries=tuple(entries),
            cache=counters,
            meta=meta,
        )
        if self._reconfig.enabled:
            plan = apply_reconfig(plan, self._reconfig, overlap=self.overlap)
            if partition:
                plan.meta["reconfig"]["partition"] = True
            if self.metrics.enabled:
                self.metrics.gauge(
                    "optical.reconfig.exposed_tune_s",
                    plan.meta["reconfig"]["exposed_tune_s"],
                )
        return plan

    def execute_plan(self, plan: LoweredPlan) -> OpticalRunResult:
        """Fold a lowered plan into the run timeline (no RWA, no cache).

        Fresh entries replay their ``optical.round`` trace events; replay
        entries emit one ``optical.step_cached`` summary event. The floats
        and their accumulation order are identical to fresh pricing, so
        executing the same plan twice is bit-exact.
        """
        result = OpticalRunResult(
            algorithm=plan.algorithm, n_steps=plan.n_steps,
            total_time=0.0, total_bytes=0.0,
            cache=PlanCacheCounters(**plan.cache.as_dict()),
        )
        clock = 0.0
        for entry in plan.entries:
            timing = self._timing_from_rounds(
                entry, entry.payload, clock, emit_rounds=not entry.replay
            )
            if entry.replay:
                self.tracer.emit(
                    clock, "optical.step_cached",
                    stage=entry.stage, count=entry.count, rounds=timing.rounds,
                    duration=timing.duration,
                    peak_wavelength=timing.peak_wavelength,
                )
            result.step_timings.append(timing)
            result.total_time += timing.duration * entry.count
            result.total_bytes += timing.bytes_per_step * entry.count
            result.peak_wavelength = max(result.peak_wavelength, timing.peak_wavelength)
            clock = result.total_time
            if self.metrics.enabled:
                # Simulated, per distinct profile entry — deterministic.
                self.metrics.observe("optical.step.duration_s", timing.duration)
                self.metrics.observe(
                    "optical.step.rounds", float(timing.rounds), edges=COUNT_EDGES
                )
                self.metrics.observe(
                    "optical.step.wavelengths",
                    float(timing.peak_wavelength),
                    edges=COUNT_EDGES,
                )
        return result

    def execute(self, schedule: Schedule, bytes_per_elem: float = 4.0) -> OpticalRunResult:
        """Price ``schedule`` end to end (``lower`` + ``execute_plan``).

        Args:
            schedule: Any schedule whose node ids fit this ring.
            bytes_per_elem: Gradient element width (float32 → 4).

        Returns:
            An :class:`OpticalRunResult`; deterministic for ``first_fit``.
        """
        return self.execute_plan(self.lower(schedule, bytes_per_elem))

    # -- internals ------------------------------------------------------
    def _route_step(self, step: CommStep) -> list:
        """Shortest-path routing with balanced tie directions.

        Diameter ties (even rings) alternate CW/CCW in sorted (src, dst)
        order; piling all ties into one direction would overload its fibers
        and break the ``⌈k²/8⌉`` all-to-all bound.

        Cut fiber segments force a detour: a route crossing a cut takes the
        long way around in the opposite direction (with both directions cut
        between the endpoints there is no path and lowering fails).
        """
        routes = [None] * len(step.transfers)
        ties = []
        # REP006: shortest-path routing is per-pair graph lookups with a
        # data-dependent tie list — no array form; RWA and pricing are the
        # vectorized hot paths.
        for i, t in enumerate(step.transfers):
            cw = self.topology.cw_distance(t.src, t.dst)
            ccw = self.topology.ccw_distance(t.src, t.dst)
            if cw < ccw:
                routes[i] = self.topology.cw_route(t.src, t.dst)
            elif ccw < cw:
                routes[i] = self.topology.ccw_route(t.src, t.dst)
            else:
                ties.append(i)
        ties.sort(key=lambda i: (step.transfers[i].src, step.transfers[i].dst))
        for rank, i in enumerate(ties):
            t = step.transfers[i]
            if rank % 2 == 0:
                routes[i] = self.topology.cw_route(t.src, t.dst)
            else:
                routes[i] = self.topology.ccw_route(t.src, t.dst)
        if self._has_cuts:
            routes = [
                self._detour_around_cuts(t, route)
                for t, route in zip(step.transfers, routes)
            ]
        return routes

    def _detour_around_cuts(self, transfer, route):
        """Reroute in the opposite ring direction if ``route`` is severed."""
        faults = self.config.faults
        if not any(faults.is_cut(s, route.direction) for s in route.segments):
            return route
        alt = self.topology.route(
            transfer.src, transfer.dst, route.direction.opposite()
        )
        if any(faults.is_cut(s, alt.direction) for s in alt.segments):
            raise BackendError(
                f"no usable path {transfer.src} -> {transfer.dst}: fiber is "
                f"cut in both ring directions",
                backend=BACKEND_NAME,
            )
        return alt

    def plan_step_rounds(
        self,
        step: CommStep,
        bytes_per_elem: float,
        validate: bool = True,
        extra_blocked: frozenset[int] | None = None,
    ) -> list[list[Circuit]]:
        """Route, wavelength-assign and circuit-ify one step's rounds.

        Shared by the lowering path below, the live event-driven simulation
        (:mod:`repro.optical.livesim`) and the static plan verifier
        (:mod:`repro.check`), so every view of a step has the identical
        round structure. Always solves: the lowering's solved-pattern table
        sits in front of this method, not inside it. ``validate`` (default
        on) runs the runtime checks on every round; the verifier passes
        ``False`` so that defects surface as findings instead of
        exceptions. ``extra_blocked`` bans additional wavelength indices
        for this step only (the hold variant's alternating partition).
        """
        transfers = list(step.transfers)
        if validate and self._dead_nodes:
            dead = self._dead_nodes
            bad = next(
                (t for t in transfers if t.src in dead or t.dst in dead), None
            )
            if bad is not None:
                raise BackendConfigError(
                    f"transfer {bad.src} -> {bad.dst} touches a dropped "
                    f"node; replan the schedule over the survivors "
                    f"(repro.faults.build_degraded_wrht_schedule)",
                    backend=BACKEND_NAME,
                )
        routes = self._route_step(step)
        if validate and self._phy is not None:
            for route in routes:
                validate_route_phy(route, self._phy)
        route_blocked = None
        if self._port_faults_active:
            faults = self.config.faults
            route_blocked = [
                faults.endpoint_blocked(t.src, r.direction)
                | faults.endpoint_blocked(t.dst, r.direction)
                for t, r in zip(transfers, routes)
            ]
        rounds = self._solve_rounds(step, routes, route_blocked, extra_blocked)
        payloads, durations = self._payload_arrays(step, bytes_per_elem)
        circuit_rounds: list[list[Circuit]] = []
        for assignment in rounds:
            circuits = [
                Circuit(
                    transfer=transfers[idx], route=routes[idx], fiber=fiber,
                    wavelength=lam, payload_bytes=float(payloads[idx]),
                    duration=float(durations[idx]),
                )
                for idx, (fiber, lam) in assignment.items()
            ]
            if validate:
                validate_no_conflicts(circuits)
                validate_node_constraints(
                    [(c.transfer, c.route, c.fiber, c.wavelength) for c in circuits],
                    mrrs_per_interface=self.config.n_wavelengths,
                )
            circuit_rounds.append(circuits)
        self._last_solve = (rounds, payloads, durations)
        return circuit_rounds

    def _payload_arrays(
        self, step: CommStep, bytes_per_elem: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Payload bytes and serialization seconds of every transfer, in
        one numpy pass each from the step's arrays: bit-identical
        element-wise to the scalar ``CostModel.payload_time`` path (see
        ``payload_times``), which also rejects a negative payload."""
        payloads = step.n_elems.astype(np.float64) * bytes_per_elem
        return payloads, self._cost.payload_times(payloads)

    def _rwa_context(
        self,
        route_blocked: list[frozenset[int]] | None,
        extra_blocked: frozenset[int] | None = None,
    ) -> RwaContext:
        """This network's channel-space constraints for one routed step."""
        blocked = self.config.dead_wavelengths
        if extra_blocked:
            blocked = blocked | extra_blocked
        return RwaContext(
            n_segments=self.config.n_nodes,
            n_wavelengths=self.config.n_wavelengths,
            fibers_per_direction=self.config.fibers_per_direction,
            blocked=blocked,
            route_blocked=tuple(route_blocked) if route_blocked else None,
            preoccupied=self._quarantine,
        )

    def _solve_rounds(
        self,
        step: CommStep,
        routes: list,
        route_blocked: list[frozenset[int]] | None,
        extra_blocked: frozenset[int] | None = None,
    ) -> list[dict[int, tuple[int, int]]]:
        """RWA for one routed step: incremental repair when chained to a
        base network that has a cached solution for this pattern, full
        ``plan_rounds`` otherwise. Captures the solution for downstream
        repair when ``keep_solutions`` is set, and then solves each pattern
        once: a later call whose routes and :class:`RwaContext` equal the
        kept ones gets the kept rounds back (deterministic strategies only
        — ``random_fit`` must draw again). Partitioned steps
        (``extra_blocked``) always solve from scratch and are never
        captured — their colorings live in a different channel space than
        the repairable full-budget ones."""
        if extra_blocked:
            if len(extra_blocked | self.config.dead_wavelengths) >= (
                self.config.n_wavelengths
            ):
                raise BackendError(
                    "wavelength partition leaves no usable wavelengths",
                    backend=BACKEND_NAME,
                )
            return plan_rounds(
                routes,
                n_segments=self.config.n_nodes,
                n_wavelengths=self.config.n_wavelengths,
                fibers_per_direction=self.config.fibers_per_direction,
                strategy=self.strategy,
                rng=self.rng,
                blocked=self.config.dead_wavelengths | extra_blocked,
                route_blocked=route_blocked,
                preoccupied=self._quarantine,
                metrics=self.metrics,
            )
        ctx = self._rwa_context(route_blocked)
        if self.keep_solutions and self.strategy != "random_fit":
            # The rounds this network already priced for the pattern: the
            # verifier audits them instead of solving (or repairing) again.
            kept = self._solutions.get(step.transfers)
            if kept is not None and kept.routes == routes and kept.ctx == ctx:
                return kept.rounds
        rounds = None
        if self._repair_base is not None:
            base_solution = self._repair_base._solutions.get(step.transfers)
            if base_solution is not None and len(base_solution.routes) == len(routes):
                edited = frozenset(
                    i
                    for i, (fresh, old) in enumerate(zip(routes, base_solution.routes))
                    if fresh != old
                )
                rounds = repair_rounds(
                    base_solution,
                    routes,
                    ctx,
                    edited=edited,
                    strategy=self.strategy,
                    rng=self.rng,
                    paranoid=self.paranoid_repair,
                    metrics=self.metrics,
                )
            elif self.metrics.enabled:
                self.metrics.inc("rwa.repair_miss")
        if rounds is None:
            rounds = plan_rounds(
                routes,
                n_segments=self.config.n_nodes,
                n_wavelengths=self.config.n_wavelengths,
                fibers_per_direction=self.config.fibers_per_direction,
                strategy=self.strategy,
                rng=self.rng,
                blocked=self.config.dead_wavelengths,
                route_blocked=route_blocked,
                preoccupied=self._quarantine,
                metrics=self.metrics,
            )
        if self.keep_solutions:
            self._solutions[step.transfers] = capture_solution(routes, rounds, ctx)
        return rounds

    def repair_network(
        self, faults, *, paranoid: bool = False
    ) -> "OpticalRingNetwork":
        """A degraded executor that repairs this network's cached solutions.

        The returned network shares this one's plan cache, metrics and
        tuning-overlap mode; its plan-cache keys are salted by the *fault
        diff* against this network's config (see ``delta_salted_key``), and
        every pattern this network has a kept solution for is incrementally
        repaired instead of re-solved. Patterns never seen here fall back to full RWA
        (counted under ``rwa.repair_miss``).

        Args:
            faults: The new (full) fault set for the degraded config.
            paranoid: Cross-check every repair against a from-scratch
                recolor (the ``--paranoid-repair`` oracle).

        Raises:
            ValueError: When this network was built without
                ``keep_solutions`` or uses ``random_fit``.
        """
        if not self.keep_solutions:
            raise ValueError(
                "construct the base network with keep_solutions=True to "
                "enable incremental repair"
            )
        return OpticalRingNetwork(
            replace(self.config, faults=faults),
            strategy=self.strategy,
            tracer=self.tracer,
            plan_cache=self.plan_cache,
            metrics=self.metrics,
            keep_solutions=True,
            repair_from=self,
            paranoid_repair=paranoid,
            overlap=self.overlap,
        )

    def repair_plan(
        self,
        schedule: Schedule,
        faults,
        *,
        bytes_per_elem: float = 4.0,
        paranoid: bool = False,
    ) -> tuple[LoweredPlan, "OpticalRingNetwork"]:
        """Lower ``schedule`` under ``faults`` by repairing cached solutions.

        Call after :meth:`lower` has populated this network's solution
        store (``keep_solutions=True``): each pattern is spliced through
        :func:`repro.optical.repair.repair_rounds` rather than re-solved,
        and the repaired summaries land in the plan cache under their
        delta-salted keys.

        Returns:
            ``(plan, degraded_network)`` — the degraded network is needed
            to execute the plan and to build verification context (its
            derived circuits match the repaired rounds).
        """
        network = self.repair_network(faults, paranoid=paranoid)
        return network.lower(schedule, bytes_per_elem), network

    def _price_pattern(
        self,
        step: CommStep,
        pattern_key: Hashable,
        bytes_per_elem: float,
        use_cache: bool,
        reuse: bool,
        counters: PlanCacheCounters,
        extra_blocked: frozenset[int] | None = None,
    ) -> tuple[CachedRound, ...]:
        """Priced round summary for one pattern, via the cross-run cache.

        ``pattern_key`` already encodes any partition parity, so a
        partitioned summary can never alias a full-budget one. On a miss
        the rounds come from :meth:`_solve_pattern` and every payload is
        priced from arrays: each round's slowest duration is a max, its
        bytes a left-to-right sum in assignment order, the same floats in
        the same order as summing over the round's circuits.
        """
        if use_cache:
            key = (pattern_key, self._plan_key_base, bytes_per_elem)
            cached = self.plan_cache.get(key)
            if cached is not None:
                counters.hits += 1
                return cached
            counters.misses += 1
        with self.metrics.span("optical.price_pattern"):
            solved, payloads, durations = self._solve_pattern(
                step, bytes_per_elem, reuse, extra_blocked
            )
            summary = tuple(
                CachedRound(
                    n_circuits=len(rnd.indices),
                    max_payload_s=float(durations[rnd.indices].max()),
                    peak_wavelength=rnd.peak_wavelength,
                    payload_bytes=sum(payloads[rnd.indices].tolist()),
                    claims=rnd.claims,
                )
                for rnd in solved
            )
        if use_cache:
            counters.evictions += self.plan_cache.put(key, summary)
        return summary

    def _solve_pattern(
        self,
        step: CommStep,
        bytes_per_elem: float,
        reuse: bool,
        extra_blocked: frozenset[int] | None,
    ) -> tuple[tuple[_SolvedRound, ...], np.ndarray, np.ndarray]:
        """``step``'s payload-free rounds and its payload arrays.

        With ``reuse``, a step whose ordered (src, dst) sequence and
        partition half this network has solved before takes the kept
        rounds: routing, RWA and both validators read only routes,
        channels and endpoints, none of which depends on the payload.
        Order is part of the key because DSATUR breaks ties by transfer
        index. Otherwise the step is solved (and validated) through
        :meth:`plan_step_rounds`, and kept when ``reuse`` holds.
        """
        key = None
        if reuse:
            pairs = np.stack((step.src, step.dst), axis=1)
            key = (pairs.tobytes(), extra_blocked)
            solved = self._solved.get(key)
            if solved is not None:
                self._solved.move_to_end(key)
                if self.metrics.enabled:
                    self.metrics.inc("rwa.solve_reused")
                return (solved, *self._payload_arrays(step, bytes_per_elem))
        circuit_rounds = self.plan_step_rounds(
            step, bytes_per_elem, extra_blocked=extra_blocked
        )
        assignments, payloads, durations = self._last_solve
        self._last_solve = None
        capture = self._capture_claims
        solved = tuple(
            _SolvedRound(
                indices=np.fromiter(assignment, dtype=np.intp, count=len(assignment)),
                peak_wavelength=max(c.wavelength for c in circuits) + 1,
                claims=round_claims(circuits) if capture else (),
            )
            for assignment, circuits in zip(assignments, circuit_rounds)
        )
        if key is not None:
            self._solved[key] = solved
            while len(self._solved) > self.plan_cache.maxsize:
                self._solved.popitem(last=False)
        return solved, payloads, durations

    def _timing_from_rounds(
        self,
        entry: LoweredStep,
        rounds: tuple[CachedRound, ...],
        clock: float,
        emit_rounds: bool,
    ) -> StepTiming:
        """Fold per-round summaries into a StepTiming, optionally emitting
        the round trace events. Shared by fresh pricing and cache replay so
        both accumulate the identical floats in the identical order — cache
        hits are bit-exact."""
        duration = 0.0
        peak = 0
        step_bytes = 0.0
        for round_no, rnd in enumerate(rounds, start=1):
            peak = max(peak, rnd.peak_wavelength)
            step_bytes += rnd.payload_bytes
            # Exposed MRR tuning (repro.optical.reconfig) precedes the
            # round's reconfiguration window. getattr: summaries unpickled
            # from a pre-reconfig on-disk store lack the field. The branch
            # (not `+= 0.0`) keeps the tuning-free fold bit-identical.
            tune = getattr(rnd, "tune_s", 0.0)
            if tune:
                duration += tune
            duration += self.config.mrr_reconfig_delay + rnd.max_payload_s
            if emit_rounds:
                self.tracer.emit(
                    clock + duration, "optical.round",
                    stage=entry.stage, round=round_no,
                    n_circuits=rnd.n_circuits, max_payload_s=rnd.max_payload_s,
                    peak_wavelength=rnd.peak_wavelength,
                )
        return StepTiming(
            stage=entry.stage, count=entry.count, n_transfers=entry.n_transfers,
            rounds=len(rounds), duration=duration,
            peak_wavelength=peak, bytes_per_step=step_bytes,
        )
