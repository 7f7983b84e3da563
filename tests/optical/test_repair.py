"""Incremental DSATUR repair: parity with from-scratch recoloring.

Two layers of evidence that :mod:`repro.optical.repair` is semantically
invisible:

- **kernel-level** property tests drive ``repair_rounds`` over random
  instances and single-constraint deltas, validating every repaired
  coloring exhaustively and cross-checking against a from-scratch
  ``plan_rounds`` (paranoid mode);
- **plan-level** tests splice repairs into lowered plans via
  ``repair_plan`` and assert the repaired plan verifies clean under the
  wavelength-conflict / dataflow / failed-resource rules (PLAN001,
  PLAN003, PLAN007) and executes to the exact degraded total time a
  from-scratch lowering produces.

The adversarial cases pin the safety valve: deltas touching more than
half the claims (or cascading without progress) must *fall back* to the
full recolor — counted under ``rwa.repair_fallback`` — rather than
returning a half-pinned coloring.
"""

import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.backend.errors import BackendError
from repro.backend.plancache import PlanCache
from repro.check.context import optical_context
from repro.check.engine import verify_plan
from repro.check.findings import errors
from repro.collectives import build_wrht_schedule
from repro.collectives.registry import build_schedule
from repro.faults.models import CutFiber, DeadWavelength, FaultSet, MrrPortFault
from repro.obs.metrics import MetricsRegistry
from repro.optical.config import OpticalSystemConfig
from repro.optical.network import OpticalRingNetwork
from repro.optical.repair import (
    DEFAULT_MAX_AFFECTED_FRAC,
    RepairValidationError,
    RwaContext,
    capture_solution,
    repair_rounds,
    route_masks,
    validate_rounds,
)
from repro.optical.rwa import plan_rounds
from repro.optical.topology import Direction, RingTopology, Route
from repro.runner.faultsweep import default_fault_scenarios

N, W = 16, 8

#: The PLAN rules the ISSUE pins for repaired-vs-scratch equivalence.
PARITY_RULES = ("PLAN001", "PLAN003", "PLAN007")


@st.composite
def repair_instances(draw):
    """A solvable random instance plus a single-constraint delta."""
    n = draw(st.integers(min_value=6, max_value=20))
    topo = RingTopology(n)
    k = draw(st.integers(min_value=2, max_value=16))
    routes = []
    for _ in range(k):
        src = draw(st.integers(min_value=0, max_value=n - 1))
        dst = (src + draw(st.integers(min_value=1, max_value=n - 1))) % n
        route = topo.cw_route(src, dst) if draw(st.booleans()) else topo.ccw_route(src, dst)
        routes.append(route)
    w = draw(st.integers(min_value=4, max_value=8))
    # The delta blocks one wavelength; keep at least one survivor.
    blocked_after = frozenset({draw(st.integers(min_value=0, max_value=w - 1))})
    return n, routes, w, blocked_after


def _route(direction, first, last):
    """A route crossing segments ``first..last`` (stepping toward ``last``)."""
    step = 1 if last >= first else -1
    return Route(direction, tuple(range(first, last + step, step)))


#: A repair that packs tighter than scratch: on a ring of 20 at w=4 with
#: λ3 blocked, the cached 2-round solution repairs in place (2 rounds)
#: while a scratch plan_rounds needs 3.
TIGHTER_THAN_SCRATCH = (
    20,
    [
        _route(Direction.CW, 0, 8), _route(Direction.CW, 0, 8),
        _route(Direction.CW, 8, 9), _route(Direction.CCW, 0, 0),
        _route(Direction.CCW, 19, 1), _route(Direction.CCW, 19, 1),
        _route(Direction.CW, 7, 8), _route(Direction.CW, 0, 0),
        _route(Direction.CW, 2, 7), _route(Direction.CCW, 19, 1),
        _route(Direction.CW, 0, 6), _route(Direction.CCW, 19, 1),
        _route(Direction.CCW, 19, 1), _route(Direction.CCW, 19, 1),
        _route(Direction.CW, 1, 7), _route(Direction.CW, 0, 8),
    ],
    4,
    frozenset({3}),
)


class TestRepairKernelProperties:
    @given(inst=repair_instances())
    @example(inst=TIGHTER_THAN_SCRATCH)
    @settings(max_examples=60, deadline=None)
    def test_single_blocked_wavelength_repair_validates(self, inst):
        n, routes, w, blocked = inst
        base_ctx = RwaContext(n_segments=n, n_wavelengths=w)
        solution = capture_solution(routes, plan_rounds(routes, n, w), base_ctx)
        degraded = RwaContext(n_segments=n, n_wavelengths=w, blocked=blocked)
        metrics = MetricsRegistry(enabled=True)
        repaired = repair_rounds(
            solution, routes, degraded, paranoid=True, metrics=metrics
        )
        # Exhaustive re-derivation: coverage, blocked set, disjointness.
        validate_rounds(routes, route_masks(routes), repaired, degraded)
        # A repair never needs more rounds than scratch, so paranoid mode
        # keeps it: no divergence, and the repair's own rounds come back.
        scratch = plan_rounds(routes, n, w, blocked=blocked)
        assert len(repaired) <= len(scratch)
        counters = metrics.snapshot().counters
        assert counters.get("rwa.repair_paranoid_divergence", 0) == 0
        assert counters["rwa.repair_calls"] == 1
        assert repaired == repair_rounds(solution, routes, degraded)

    def test_tighter_repair_survives_paranoid_mode(self):
        n, routes, w, blocked = TIGHTER_THAN_SCRATCH
        solution = capture_solution(
            routes, plan_rounds(routes, n, w), RwaContext(n_segments=n, n_wavelengths=w)
        )
        degraded = RwaContext(n_segments=n, n_wavelengths=w, blocked=blocked)
        metrics = MetricsRegistry(enabled=True)
        repaired = repair_rounds(
            solution, routes, degraded, paranoid=True, metrics=metrics
        )
        assert len(solution.rounds) == len(repaired) == 2
        assert len(plan_rounds(routes, n, w, blocked=blocked)) == 3
        assert repaired == repair_rounds(solution, routes, degraded)
        assert metrics.snapshot().counters.get("rwa.repair_paranoid_divergence", 0) == 0

    @given(inst=repair_instances())
    @settings(max_examples=30, deadline=None)
    def test_noop_delta_returns_identity(self, inst):
        n, routes, w, _ = inst
        ctx = RwaContext(n_segments=n, n_wavelengths=w)
        solution = capture_solution(routes, plan_rounds(routes, n, w), ctx)
        metrics = MetricsRegistry(enabled=True)
        repaired = repair_rounds(solution, routes, ctx, metrics=metrics)
        assert repaired == solution.rounds
        assert metrics.snapshot().counters.get("rwa.repair_noop", 0) == 1


class TestAdversarialFallback:
    def test_majority_delta_falls_back(self):
        """Blocking >50% of a saturated instance's capacity must fall back."""
        topo = RingTopology(8)
        # All-to-all among all 8 nodes: genuinely saturated at w=8.
        routes = [
            topo.cw_route(s, d) for s in range(8) for d in range(8) if s != d
        ]
        ctx = RwaContext(n_segments=8, n_wavelengths=8)
        solution = capture_solution(routes, plan_rounds(routes, 8, 8), ctx)
        degraded = RwaContext(
            n_segments=8, n_wavelengths=8, blocked=frozenset({0, 1, 2, 3, 4})
        )
        metrics = MetricsRegistry(enabled=True)
        repaired = repair_rounds(solution, routes, degraded, metrics=metrics)
        validate_rounds(routes, route_masks(routes), repaired, degraded)
        counters = metrics.snapshot().counters
        assert counters.get("rwa.repair_fallback", 0) == 1
        # The fallback result is the full recolor, bit-identical.
        assert repaired == plan_rounds(routes, 8, 8, blocked=frozenset(range(5)))

    def test_max_affected_frac_zero_always_falls_back(self):
        topo = RingTopology(8)
        routes = [topo.cw_route(i, (i + 1) % 8) for i in range(8)]
        ctx = RwaContext(n_segments=8, n_wavelengths=4)
        solution = capture_solution(routes, plan_rounds(routes, 8, 4), ctx)
        degraded = RwaContext(
            n_segments=8, n_wavelengths=4, blocked=frozenset({0})
        )
        metrics = MetricsRegistry(enabled=True)
        repair_rounds(
            solution, routes, degraded, max_affected_frac=0.0, metrics=metrics
        )
        assert metrics.snapshot().counters.get("rwa.repair_fallback", 0) == 1
        assert 0.0 < DEFAULT_MAX_AFFECTED_FRAC <= 1.0


def _base_network(**kwargs):
    config = OpticalSystemConfig(n_nodes=N, n_wavelengths=W)
    return OpticalRingNetwork(
        config, keep_solutions=True, plan_cache=PlanCache(), **kwargs
    )


SINGLE_FAULTS = [
    pytest.param(FaultSet.of(DeadWavelength(2)), id="dead-wavelength"),
    pytest.param(FaultSet.of(CutFiber(5, direction="cw")), id="cut-fiber"),
    pytest.param(
        FaultSet.of(MrrPortFault(3, 1, mode="stuck")), id="stuck-mrr"
    ),
]


class TestRepairPlanParity:
    @pytest.mark.parametrize("faults", SINGLE_FAULTS)
    def test_repaired_plan_matches_scratch_and_verifies(self, faults):
        schedule = build_wrht_schedule(N, 4096, n_wavelengths=W)
        base = _base_network()
        base.lower(schedule, 4.0)

        repaired_plan, degraded_net = base.repair_plan(
            schedule, faults, paranoid=True
        )
        scratch_net = OpticalRingNetwork(
            OpticalSystemConfig(n_nodes=N, n_wavelengths=W, faults=faults),
            plan_cache=PlanCache(),
        )
        scratch_plan = scratch_net.lower(schedule, 4.0)

        assert (
            degraded_net.execute_plan(repaired_plan).total_time
            == scratch_net.execute_plan(scratch_plan).total_time
        )
        for plan, net in (
            (repaired_plan, degraded_net), (scratch_plan, scratch_net),
        ):
            context = optical_context(net, schedule, plan)
            findings = verify_plan(context=context, rule_ids=PARITY_RULES)
            assert errors(findings) == []

    def test_repair_cache_keys_never_alias_scratch(self):
        """A repaired network's summaries land under delta-salted keys."""
        schedule = build_wrht_schedule(N, 4096, n_wavelengths=W)
        cache = PlanCache()
        config = OpticalSystemConfig(n_nodes=N, n_wavelengths=W)
        base = OpticalRingNetwork(config, keep_solutions=True, plan_cache=cache)
        base.lower(schedule, 4.0)
        n_healthy = len(cache)

        faults = FaultSet.of(DeadWavelength(2))
        plan, net = base.repair_plan(schedule, faults)
        assert len(cache) > n_healthy  # new entries, no overwrites

        # A from-scratch network under the same faults uses the plain
        # fault-salted base key — distinct from the delta-salted one.
        scratch_net = OpticalRingNetwork(
            OpticalSystemConfig(n_nodes=N, n_wavelengths=W, faults=faults),
            plan_cache=cache,
        )
        assert scratch_net._plan_key_base != net._plan_key_base
        scratch_plan = scratch_net.lower(schedule, 4.0)
        assert scratch_plan.cache.hits == 0  # nothing aliased

    def test_repair_requires_kept_solutions(self):
        config = OpticalSystemConfig(n_nodes=N, n_wavelengths=W)
        net = OpticalRingNetwork(config)
        with pytest.raises(ValueError, match="keep_solutions"):
            net.repair_network(FaultSet.of(DeadWavelength(0)))

    def test_repair_rejects_random_fit(self):
        config = OpticalSystemConfig(n_nodes=N, n_wavelengths=W)
        from repro.sim.rng import SeededRng

        net = OpticalRingNetwork(
            config, strategy="random_fit", rng=SeededRng(7),
            keep_solutions=True,
        )
        with pytest.raises(ValueError, match="random_fit"):
            net.repair_network(FaultSet.of(DeadWavelength(0)))


class TestKeptRounds:
    """A repaired network solves each pattern once; the verifier audits the
    kept rounds. Re-deriving them from scratch must give the same rounds
    and the same circuits, so auditing the kept ones loses nothing."""

    @pytest.mark.parametrize("algo", ["wrht", "swing", "rd"])
    @pytest.mark.parametrize(
        "scenario", ["dead-wavelength", "stuck-mrr", "laser-droop"]
    )
    def test_fresh_repair_reproduces_priced_rounds(self, algo, scenario):
        n, w = 32, 8
        kwargs = {"n_wavelengths": w} if algo == "wrht" else {}
        schedule = build_schedule(algo, n, 100_000, **kwargs)
        metrics = MetricsRegistry(enabled=True)
        base = OpticalRingNetwork(
            OpticalSystemConfig(n_nodes=n, n_wavelengths=w),
            keep_solutions=True, plan_cache=PlanCache(), metrics=metrics,
        )
        base.lower(schedule, 4.0)
        faults = default_fault_scenarios(n, w)[scenario]
        _plan, priced = base.repair_plan(schedule, faults)
        fresh = base.repair_network(faults)
        for step, _count, _key in schedule.lowering_profile():
            kept = priced._solutions[step.transfers].rounds
            calls = metrics.snapshot().counters.get("rwa.repair_calls", 0)
            audited = priced.plan_step_rounds(step, 4.0, validate=False)
            # The audit reads the kept rounds: no second repair.
            assert metrics.snapshot().counters.get("rwa.repair_calls", 0) == calls
            rederived = fresh.plan_step_rounds(step, 4.0, validate=False)
            assert fresh._solutions[step.transfers].rounds == kept
            assert rederived == audited


class TestValidationError:
    def test_duplicated_index_raises_typed_error_that_pickles(self):
        topo = RingTopology(8)
        routes = [topo.cw_route(0, 2), topo.cw_route(3, 5)]
        ctx = RwaContext(n_segments=8, n_wavelengths=4)
        corrupted = [{0: (0, 0), 1: (0, 1)}, {0: (0, 2)}]
        with pytest.raises(BackendError) as info:
            validate_rounds(routes, route_masks(routes), corrupted, ctx)
        err = info.value
        assert isinstance(err, RepairValidationError)
        assert not isinstance(err, AssertionError)
        assert str(err) == "transfer 0 assigned twice"
        clone = pickle.loads(pickle.dumps(err))
        assert type(clone) is RepairValidationError
        assert (clone.args, clone.backend, clone.step_index) == (
            err.args, err.backend, err.step_index,
        )
