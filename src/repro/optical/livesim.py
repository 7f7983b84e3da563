"""Live event-driven execution of schedules on the optical ring.

The step-timing executor (:mod:`repro.optical.network`) prices each step
analytically (max over concurrent circuit durations, patterns priced once).
This module replays a schedule as *actual simulation processes* on the
discrete-event kernel:

- a coordinator process walks the steps; per round it waits out the MRR
  reconfiguration, spawns one process per circuit, and barriers on all of
  them (``AllOf``);
- each circuit process acquires capacity-1 :class:`~repro.sim.resources.
  Resource` tokens for every (direction, fiber, wavelength, segment) it
  crosses — in canonical order — holds them for the payload duration, and
  releases them (in reverse-acquisition order, under ``finally``, so no
  error path can leak a channel token).

Because the RWA already guarantees segment exclusivity, a circuit process
must **never block** on a resource; the simulation asserts this, making the
live run an independent, mechanism-level check of the RWA (a conflict that
slipped past the validators would show up here as a blocked acquire). The
test suite asserts that live total time equals the step-timing executor's
to float precision — the two derivations of Eq 6 agree.

Mid-flight faults
-----------------

The live path additionally accepts :class:`~repro.faults.models.FaultEvent`
inputs: at each event's fixed simulation time a fault driver process
activates the fault, swaps the round planner for one whose config carries
the accumulated fault set (so every later RWA is the degraded one), and
interrupts the in-flight circuit processes the fault breaks. An interrupted
circuit reports back instead of failing; after the round barrier the
coordinator collects the unfinished transfers, waits out an exponential
backoff (``backoff_base × backoff_factor^(attempt−1)``), and retries them
as a fresh round against the replanned RWA. Everything is deterministic —
fault times, backoff, and replanning are pure functions of the inputs — so
two runs with the same seed produce identical retry counts and total time.

This is intentionally the expensive path (one process per transfer): use it
for validation and for tracing at small/medium scale, and the step-timing
executor for paper-scale sweeps.

Reconfiguration-aware control plane
-----------------------------------

When the config's MRR tuning model is enabled (``t_tune > 0``, see
:mod:`repro.optical.reconfig`) the live run prices tuning with real
simulation processes. In the fault-free overlapped mode the coordinator
plans every round up front and, while round *k* transmits, spawns a
control-plane tuning process for round *k+1*'s **free** claims (channels
round *k* never drives) — the data plane and the control plane race, and
only the leftover ``max(0, free − payload)`` plus the serial **blocked**
tuning is exposed, exactly the static ``apply_reconfig`` charge. With
mid-flight faults (round structure can change under retry/replan, so
lookahead would be wrong) or ``overlap=False`` the coordinator charges the
conservative serial exposure before each round instead. With the model
disabled (the default) the event stream is byte-identical to earlier
releases — same events, same ``n_events`` fingerprint.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from repro.backend.errors import BackendExecutionError
from repro.collectives.base import CommStep, Schedule
from repro.faults.models import FaultEvent, FaultSet
from repro.obs.metrics import NULL_METRICS, MetricsRegistry, MetricsSnapshot
from repro.optical.circuit import Circuit
from repro.optical.config import OpticalSystemConfig
from repro.optical.network import OpticalRingNetwork
from repro.optical.reconfig import exposed_tuning, round_claims, split_tuning
from repro.sim import Resource, Simulator
from repro.sim.events import Interrupted
from repro.sim.rng import SeededRng
from repro.sim.trace import NULL_TRACER, Tracer


@dataclass
class LiveRunResult:
    """Result of a live event-driven run.

    Attributes:
        algorithm: Schedule name.
        total_time: Simulation end time (seconds).
        n_steps: Steps executed.
        n_rounds: Reconfiguration rounds executed (including retry rounds).
        n_circuits: Circuit processes spawned.
        n_events: Kernel events processed (a determinism fingerprint).
        n_faults: Fault events that activated during the run.
        n_retries: Backoff-and-retry cycles the coordinator performed.
        n_interrupted: Circuit processes interrupted by faults.
        downtime: Seconds spent waiting in retry backoff.
        metrics: :class:`~repro.obs.metrics.MetricsSnapshot` of the run
            when the simulation had metrics enabled, else ``None``.
    """

    algorithm: str
    total_time: float
    n_steps: int
    n_rounds: int
    n_circuits: int
    n_events: int
    n_faults: int = 0
    n_retries: int = 0
    n_interrupted: int = 0
    downtime: float = 0.0
    metrics: MetricsSnapshot | None = None


class ChannelBlockedError(AssertionError):
    """A circuit process had to wait for a channel segment — meaning the
    wavelength assignment was not actually conflict-free."""


class LiveOpticalSimulation:
    """Event-driven replay of schedules on the optical ring.

    Args:
        config: System config; any static ``config.faults`` are degraded
            from time zero (the shared planner masks them).
        strategy: RWA strategy (``"first_fit"`` / ``"random_fit"``).
        rng: Seeded RNG (required for ``random_fit``).
        tracer: Optional tracer (``optical.live.*`` categories).
        fault_events: Mid-flight :class:`FaultEvent` s, activated at their
            fixed simulation times (sorted internally; validated against
            the config up front).
        max_retries: Retry budget per step before the run fails.
        backoff_base: First backoff duration; defaults to the MRR
            reconfiguration delay.
        backoff_factor: Multiplier per further attempt (exponential).
        metrics: Observability registry (default disabled); threaded into
            the kernel and the round planner, with a snapshot attached to
            the result. Recording never changes simulated timings.
        repair: Repair cached RWA solutions across fault events instead of
            re-solving every pattern from scratch (incremental DSATUR,
            :mod:`repro.optical.repair`). Off by default — repaired round
            structures are valid but need not match from-scratch ones, so
            the default timings stay bit-identical to earlier releases.
            Requires ``first_fit``.
        paranoid_repair: With ``repair``, cross-check every repair against
            a from-scratch recolor (the ``--paranoid-repair`` oracle).
        overlap: With the config's MRR tuning model enabled and no fault
            events, tune round k+1's free claims concurrently with round
            k's transmission (control plane racing the data plane). Off,
            or with fault events, tuning is charged serially before each
            round. Irrelevant while the model is disabled.
    """

    def __init__(
        self,
        config: OpticalSystemConfig,
        strategy: str = "first_fit",
        rng: SeededRng | None = None,
        tracer: Tracer | None = None,
        fault_events: Sequence[FaultEvent] = (),
        max_retries: int = 8,
        backoff_base: float | None = None,
        backoff_factor: float = 2.0,
        metrics: MetricsRegistry = NULL_METRICS,
        repair: bool = False,
        paranoid_repair: bool = False,
        overlap: bool = True,
    ) -> None:
        self.config = config
        self.overlap = overlap
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self._strategy = strategy
        self._rng = rng
        self.repair = repair
        self.paranoid_repair = paranoid_repair
        if repair and strategy == "random_fit":
            raise ValueError(
                "repair=True is deterministic and cannot preserve the "
                "random_fit RNG stream; use first_fit"
            )
        self.fault_events = tuple(
            sorted(
                fault_events,
                key=lambda e: (e.time, type(e.fault).__name__, repr(e.fault)),
            )
        )
        self.max_retries = int(max_retries)
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries!r}")
        self.backoff_base = (
            config.mrr_reconfig_delay if backoff_base is None else backoff_base
        )
        if self.backoff_base < 0:
            raise ValueError(f"backoff_base must be >= 0, got {backoff_base!r}")
        self.backoff_factor = backoff_factor
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {backoff_factor!r}"
            )
        if self.fault_events:
            # Fail fast on out-of-range faults (and fault sets that would
            # leave no node/wavelength alive) before simulating anything.
            merged = config.faults
            for event in self.fault_events:
                merged = merged.with_fault(event.fault)
            merged.validate(config.n_nodes, config.n_wavelengths)
        # Round planning is delegated to the executor so both paths share
        # routing, RWA, fallback and validation behaviour exactly. With
        # ``repair`` the planner keeps its full solutions so each fault
        # event's replacement planner can splice the delta in.
        self._planner = OpticalRingNetwork(
            config, strategy=strategy, rng=rng, metrics=metrics,
            keep_solutions=repair,
        )

    def run(self, schedule: Schedule, bytes_per_elem: float = 4.0) -> LiveRunResult:
        """Replay ``schedule`` event by event.

        Requires materialized steps (the live path exists to exercise real
        step instances, not compressed patterns).

        Raises:
            ChannelBlockedError: A circuit blocked on a channel (RWA bug).
            BackendExecutionError: A step exhausted its retry budget.
            BackendError: Lowering against the degraded config failed (e.g.
                a mid-flight :class:`~repro.faults.models.DroppedNode` —
                retrying cannot help; the schedule must be replanned over
                the survivors with
                :func:`repro.faults.build_degraded_wrht_schedule`).
        """
        if schedule.n_nodes > self.config.n_nodes:
            raise ValueError(
                f"schedule spans {schedule.n_nodes} nodes but the ring has "
                f"{self.config.n_nodes}"
            )
        sim = Simulator(metrics=self.metrics)
        model = self.config.reconfig
        # Lookahead across rounds is only sound when the round structure is
        # fixed up front — faults replan mid-flight, so they force the
        # conservative serial charge.
        use_overlap = model.enabled and self.overlap and not self.fault_events
        channels: dict[tuple, Resource] = {}
        stats = {
            "rounds": 0, "circuits": 0, "steps": 0,
            "faults": 0, "retries": 0, "interrupted": 0, "downtime": 0.0,
        }
        # Mutable cells shared between the coordinator and the fault driver.
        state: dict = {
            "planner": self._planner,
            "faults": self.config.faults,
            "inflight": {},  # Process -> Circuit, current round only
            "done": False,
        }

        def channel(key: tuple) -> Resource:
            resource = channels.get(key)
            if resource is None:
                resource = Resource(sim, 1, name=f"chan{key}")
                channels[key] = resource
            return resource

        def circuit_process(circuit: Circuit):
            keys = [
                (circuit.route.direction.value, circuit.fiber,
                 circuit.wavelength, segment)
                for segment in sorted(circuit.route.segments)
            ]
            start = sim.now
            acquired: list[tuple] = []
            try:
                for key in keys:
                    request = channel(key).acquire()
                    if request.triggered:
                        # Granted synchronously — the token is held *now*,
                        # before the yield, so an interrupt arriving during
                        # the resume tick still sees it in ``acquired``.
                        acquired.append(key)
                        yield request
                    else:
                        yield request
                        acquired.append(key)
                if sim.now > start:
                    raise ChannelBlockedError(
                        f"circuit {circuit.transfer.src}->"
                        f"{circuit.transfer.dst} blocked acquiring its "
                        "channel — RWA conflict"
                    )
                yield sim.timeout(circuit.duration)
                return ("done", circuit)
            except Interrupted as interrupt:
                # A fault broke this circuit mid-flight. Report back as a
                # value (not a failure) so the round barrier completes
                # normally and the coordinator can retry the transfer.
                return ("interrupted", circuit, interrupt.cause)
            finally:
                for key in reversed(acquired):
                    channels[key].release()

        def fault_driver():
            elapsed = 0.0
            for event in self.fault_events:
                yield sim.timeout(event.time - elapsed)
                elapsed = event.time
                if state["done"]:
                    return
                stats["faults"] += 1
                state["faults"] = state["faults"].with_fault(event.fault)
                # Every subsequent RWA must see the degraded resources:
                # swap in a planner whose frozen config carries the
                # accumulated set (also re-salts the plan-cache keys).
                # Under ``repair`` the new planner chains to the previous
                # one and repairs its cached solutions incrementally —
                # each event repairs the *already repaired* state, so a
                # fault sequence pays O(delta) per event, not O(plan).
                if self.repair:
                    state["planner"] = state["planner"].repair_network(
                        state["faults"], paranoid=self.paranoid_repair
                    )
                else:
                    state["planner"] = OpticalRingNetwork(
                        replace(self.config, faults=state["faults"]),
                        strategy=self._strategy, rng=self._rng,
                        metrics=self.metrics,
                    )
                broken = [
                    proc
                    for proc, circuit in state["inflight"].items()
                    if not proc.done
                    and state["faults"].affects_circuit(circuit, self.config)
                ]
                for proc in broken:
                    proc.interrupt(event.fault)
                self.tracer.emit(
                    sim.now, "optical.live.fault",
                    fault=repr(event.fault), n_interrupted=len(broken),
                )

        def coordinator():
            # Serial tuning state: claims of the last executed round. With
            # the model disabled no tuning branch fires, so the event
            # stream (and n_events) is byte-identical to earlier releases.
            prev_claims: tuple = ()
            for step in schedule.iter_steps():
                stats["steps"] += 1
                step_start = sim.now
                pending = step
                attempt = 0
                while True:
                    rounds = state["planner"].plan_step_rounds(
                        pending, bytes_per_elem
                    )
                    unfinished = []
                    for circuits in rounds:
                        stats["rounds"] += 1
                        if model.enabled:
                            claims = round_claims(circuits)
                            tune = exposed_tuning(
                                model, prev_claims, claims, 0.0, overlap=False
                            )
                            prev_claims = claims
                            if tune:
                                yield sim.timeout(tune)
                        yield sim.timeout(self.config.mrr_reconfig_delay)
                        processes = {
                            sim.process(circuit_process(c), name="circuit"): c
                            for c in circuits
                        }
                        stats["circuits"] += len(processes)
                        state["inflight"] = processes
                        yield sim.all_of(list(processes))
                        state["inflight"] = {}
                        for proc, circuit in processes.items():
                            if proc.value[0] == "interrupted":
                                stats["interrupted"] += 1
                                unfinished.append(circuit.transfer)
                        self.tracer.emit(
                            sim.now, "optical.live.round",
                            stage=step.stage, n_circuits=len(processes),
                        )
                    if not unfinished:
                        break
                    attempt += 1
                    if attempt > self.max_retries:
                        raise BackendExecutionError(
                            f"step {stats['steps'] - 1} still has "
                            f"{len(unfinished)} unfinished transfer(s) "
                            f"after {self.max_retries} retries",
                            backend="optical.live",
                            step_index=stats["steps"] - 1,
                        )
                    stats["retries"] += 1
                    backoff = self.backoff_base * (
                        self.backoff_factor ** (attempt - 1)
                    )
                    yield sim.timeout(backoff)
                    stats["downtime"] += backoff
                    self.tracer.emit(
                        sim.now, "optical.live.retry",
                        stage=step.stage, attempt=attempt,
                        n_transfers=len(unfinished),
                    )
                    pending = CommStep(
                        transfers=tuple(unfinished),
                        stage=step.stage, level=step.level,
                    )
                self.tracer.emit(
                    sim.now, "optical.live.step",
                    stage=step.stage, duration=sim.now - step_start,
                    attempts=attempt,
                )
                if self.metrics.enabled:
                    # Simulated per-step transfer time, retries included.
                    self.metrics.observe("optical.live.step_s", sim.now - step_start)
            state["done"] = True
            return sim.now

        def tune_process(duration: float):
            # Control-plane thermal settling of one round's free claims.
            yield sim.timeout(duration)
            return ("tuned", duration)

        def overlap_coordinator():
            # Fault-free overlapped mode: the planner is static, so every
            # round is known up front and round k+1's free-claim tuning can
            # be spawned the moment round k's circuits start transmitting.
            plans = [
                (step, state["planner"].plan_step_rounds(step, bytes_per_elem))
                for step in schedule.iter_steps()
            ]
            flat = [
                round_claims(circuits)
                for _, rounds in plans
                for circuits in rounds
            ]
            idx = 0
            free_proc = None  # tuning spawned during the previous round
            for step, rounds in plans:
                stats["steps"] += 1
                step_start = sim.now
                for circuits in rounds:
                    stats["rounds"] += 1
                    blocked, free = split_tuning(
                        model, flat[idx - 1] if idx else (), flat[idx]
                    )
                    if idx == 0:
                        # No previous transmission to hide behind.
                        tune = max(blocked, free)
                        if tune:
                            yield sim.timeout(tune)
                    else:
                        # Blocked claims wait for the previous round's
                        # teardown (this point) before tuning; the free
                        # tuning process has been racing that round's
                        # transmission — only its leftover is exposed.
                        waits = []
                        if free_proc is not None and not free_proc.done:
                            waits.append(free_proc)
                        if blocked:
                            waits.append(sim.timeout(blocked))
                        if waits:
                            yield sim.all_of(waits)
                    free_proc = None
                    yield sim.timeout(self.config.mrr_reconfig_delay)
                    if idx + 1 < len(flat):
                        _, next_free = split_tuning(model, flat[idx], flat[idx + 1])
                        if next_free:
                            free_proc = sim.process(
                                tune_process(next_free), name="tune"
                            )
                    processes = {
                        sim.process(circuit_process(c), name="circuit"): c
                        for c in circuits
                    }
                    stats["circuits"] += len(processes)
                    state["inflight"] = processes
                    yield sim.all_of(list(processes))
                    state["inflight"] = {}
                    self.tracer.emit(
                        sim.now, "optical.live.round",
                        stage=step.stage, n_circuits=len(processes),
                    )
                    idx += 1
                self.tracer.emit(
                    sim.now, "optical.live.step",
                    stage=step.stage, duration=sim.now - step_start,
                    attempts=0,
                )
                if self.metrics.enabled:
                    self.metrics.observe(
                        "optical.live.step_s", sim.now - step_start
                    )
            state["done"] = True
            return sim.now

        if self.fault_events:
            sim.process(fault_driver(), name="faults")
        total = sim.run_process(
            overlap_coordinator() if use_overlap else coordinator(),
            name="schedule",
        )
        if self.metrics.enabled:
            self.metrics.inc("optical.live.circuits", stats["circuits"])
            self.metrics.inc("optical.live.rounds", stats["rounds"])
            self.metrics.inc("optical.live.retries", stats["retries"])
            self.metrics.inc("optical.live.faults", stats["faults"])
            self.metrics.inc("optical.live.interrupted", stats["interrupted"])
            self.metrics.gauge("optical.live.downtime_s", stats["downtime"])
        return LiveRunResult(
            algorithm=schedule.algorithm,
            total_time=total,
            n_steps=stats["steps"],
            n_rounds=stats["rounds"],
            n_circuits=stats["circuits"],
            n_events=sim.n_processed,
            n_faults=stats["faults"],
            n_retries=stats["retries"],
            n_interrupted=stats["interrupted"],
            downtime=stats["downtime"],
            metrics=self.metrics.snapshot() if self.metrics.enabled else None,
        )
