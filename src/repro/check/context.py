"""What a plan-verification run gets to look at.

Rules are pure functions over a :class:`CheckContext`: the lowered plan,
optionally the source schedule, the substrate configuration, and — for the
circuit-level rules — the per-pattern circuit rounds. The context is
deliberately permissive about what is present: a rule declares what it
needs (:attr:`~repro.check.engine.Rule.needs`) and the engine only runs it
when the context can satisfy that, so one ``verify_plan`` entry point
serves the CLI (full optical context), the pytest plugin (plan + schedule,
no circuit re-derivation) and adversarial tests (hand-mutated circuits).

Circuit rounds come from
:meth:`~repro.optical.network.OpticalRingNetwork.plan_step_rounds` with
validation off. A ``keep_solutions`` network (every repaired network is
one) hands back the rounds its lowering kept for each pattern, so the
verifier audits exactly the circuits the plan priced and no repair runs
twice. Any other network solves the pattern again; lowering is
deterministic for ``first_fit``, so those are the priced circuits too, and
``tests/optical/test_repair.py::TestKeptRounds`` pins that a fresh
re-solve reproduces the kept rounds. ``random_fit`` substrates never get
circuits (re-running RWA would consume RNG draws an unverified run would
not), and hand-built contexts can always inject their own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.backend.base import LoweredPlan
from repro.collectives.base import CommStep, Schedule
from repro.core.constraints import OpticalPhyParams

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.optical.circuit import Circuit
    from repro.optical.config import OpticalSystemConfig

#: Total transfer count over a schedule's materialized steps above which
#: the symbolic dataflow rule reports an INFO skip instead of analyzing
#: (keeps paper-scale golden plans cheap to verify; adversarial tests run
#: far below it).
DATAFLOW_SIZE_LIMIT = 200_000


@dataclass
class CheckContext:
    """Everything the plan rules may inspect for one verification run.

    Attributes:
        plan: The lowered plan under audit (may be ``None`` when verifying
            a schedule that was never lowered).
        schedule: The source schedule (enables dataflow/step-count rules).
        config: Optical system configuration, when the plan targets the
            optical substrate (enables budget/feasibility rules).
        phy: Physical-layer parameters for Eqs 7–13; defaults to
            ``config.phy`` when unset.
        mrrs_per_interface: Per-direction Tx/Rx wavelength capacity used by
            the port-budget rule; defaults to ``config.n_wavelengths``.
        circuit_rounds: ``profile-entry index -> rounds of circuits`` for
            the circuit-level rules (``None`` entries are skipped).
        dataflow_size_limit: Cap on the transfers summed over the
            materialized steps, above which the dataflow rule skips with
            an INFO finding.
    """

    plan: LoweredPlan | None = None
    schedule: Schedule | None = None
    config: "OpticalSystemConfig | None" = None
    phy: OpticalPhyParams | None = None
    mrrs_per_interface: int | None = None
    circuit_rounds: dict[int, list[list["Circuit"]]] | None = None
    dataflow_size_limit: int = DATAFLOW_SIZE_LIMIT
    _profile: list[tuple[CommStep, int]] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.phy is None and self.config is not None:
            # Derated by any laser-power droop in the config's fault set,
            # so the phy rules audit against the budget that actually
            # applies (identical to config.phy for a healthy system).
            self.phy = self.config.effective_phy
        if self.mrrs_per_interface is None and self.config is not None:
            self.mrrs_per_interface = self.config.n_wavelengths

    @property
    def algorithm(self) -> str | None:
        """Algorithm name from the plan or the schedule (plan wins)."""
        if self.plan is not None:
            return self.plan.algorithm
        return self.schedule.algorithm if self.schedule is not None else None

    @property
    def n_nodes(self) -> int | None:
        """Node count from the plan or the schedule."""
        if self.plan is not None:
            return self.plan.n_nodes
        return self.schedule.n_nodes if self.schedule is not None else None

    @property
    def wrht_plan(self):
        """The resolved :class:`~repro.core.planner.WrhtPlan`, if any.

        Looked up on the schedule's ``meta["plan"]`` first, then on the
        lowered plan's ``meta["wrht_plan"]`` (stashed by the optical
        backend's ``lower``), so plan-only verification still sees it.
        """
        if self.schedule is not None:
            plan = self.schedule.meta.get("plan")
            if plan is not None:
                return plan
        if self.plan is not None:
            return self.plan.meta.get("wrht_plan")
        return None

    @property
    def participants(self) -> tuple[int, ...] | None:
        """Participating node ids of a shrunk (degraded) schedule, if any.

        ``None`` means every node participates (the healthy default).
        Looked up on ``schedule.meta["participants"]`` first, then the
        lowered plan's ``meta["participants"]`` (stashed by the optical
        backend's ``lower``).
        """
        if self.schedule is not None:
            participants = self.schedule.meta.get("participants")
            if participants is not None:
                return tuple(participants)
        if self.plan is not None:
            participants = self.plan.meta.get("participants")
            if participants is not None:
                return tuple(participants)
        return None

    def profile(self) -> list[tuple[CommStep, int]]:
        """``(representative step, count)`` pairs, or ``[]`` if unknown."""
        if self._profile is not None:
            return self._profile
        if self.schedule is not None:
            return list(self.schedule.timing_profile)
        return []

    def has(self, need: str) -> bool:
        """Whether this context satisfies one rule requirement tag."""
        if need == "plan":
            return self.plan is not None
        if need == "schedule":
            return self.schedule is not None
        if need == "steps":
            return self.schedule is not None and self.schedule.steps is not None
        if need == "config":
            return self.config is not None
        if need == "circuits":
            return bool(self.circuit_rounds)
        raise ValueError(f"unknown rule requirement {need!r}")


def optical_context(
    backend,
    schedule: Schedule,
    plan: LoweredPlan | None = None,
    *,
    bytes_per_elem: float = 4.0,
    derive_circuits: bool = True,
) -> CheckContext:
    """Build the full verification context for an optical backend.

    Args:
        backend: An :class:`~repro.backend.optical.OpticalBackend` or the
            underlying :class:`~repro.optical.network.OpticalRingNetwork`.
        schedule: The schedule the plan was (or will be) lowered from.
        plan: A previously lowered plan; lowered on demand when ``None``.
        bytes_per_elem: Element width used when lowering/deriving.
        derive_circuits: Attach per-pattern circuit rounds: the kept
            rounds of a ``keep_solutions`` network, a deterministic
            re-solve otherwise (skipped for ``random_fit`` substrates).

    Returns:
        A :class:`CheckContext` with plan, schedule, config and (where
        derivable) circuit rounds populated.
    """
    network = getattr(backend, "network", backend)
    if plan is None:
        plan = network.lower(schedule, bytes_per_elem)
    circuit_rounds: dict[int, list[list[Circuit]]] | None = None
    if derive_circuits and network.strategy != "random_fit":
        # A hold plan (choose_plan's wavelength-partition variant) was
        # lowered with alternating halves of the budget blocked; solve
        # with the same mask so the circuit rules audit the circuits the
        # plan actually priced (partitioned rounds are never kept).
        partitioned = bool(
            plan is not None
            and (plan.meta.get("reconfig") or {}).get("partition")
        )
        half = network.config.n_wavelengths // 2
        halves = (
            frozenset(range(half, network.config.n_wavelengths)),
            frozenset(range(half)),
        )
        circuit_rounds = {}
        priced: dict[tuple, list[list[Circuit]]] = {}
        for index, (step, _count, key) in enumerate(schedule.lowering_profile()):
            extra_blocked = None
            if partitioned:
                extra_blocked = halves[index % 2]
                key = (key, ("partition", index % 2))
            rounds = priced.get(key)
            if rounds is None:
                rounds = network.plan_step_rounds(
                    step, bytes_per_elem, validate=False,
                    extra_blocked=extra_blocked,
                )
                priced[key] = rounds
            circuit_rounds[index] = rounds
    return CheckContext(
        plan=plan,
        schedule=schedule,
        config=network.config,
        circuit_rounds=circuit_rounds,
    )
