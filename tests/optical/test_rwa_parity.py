"""Bitmask RWA kernel vs the preserved seed implementation.

The fast path in :mod:`repro.optical.rwa` (integer-bitmask occupancy,
matmul-built DSATUR conflict graphs, hoisted channel lists, the array-form
fault pre-mark) must be *semantically invisible*: identical assignments,
identical round structure, identical RNG stream consumption, identical
DSATUR ``seen`` pre-marks. These property tests drive both kernels over
random rings, route sets, strategies, fiber counts, blocked wavelengths,
per-route bans and quarantine spans and assert equality against
``tests/optical/rwa_reference.py`` — the seed code, taught the fault
keywords.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.optical.network as network_mod
from repro.backend.plancache import PlanCache
from repro.collectives.registry import build_schedule
from repro.faults.models import DeadWavelength, FaultSet, MrrPortFault
from repro.optical.config import OpticalSystemConfig
from repro.optical.livesim import LiveOpticalSimulation
from repro.optical.network import OpticalRingNetwork
from repro.optical.rwa import (
    RwaInfeasibleError,
    _route_masks,
    assign_wavelengths,
    dsatur_assign,
    fault_bans,
    plan_rounds,
)
from repro.optical.topology import Direction, RingTopology
from repro.sim.rng import SeededRng
from tests.optical.rwa_reference import (
    assign_wavelengths_reference,
    dsatur_assign_reference,
    fault_bans_reference,
    plan_rounds_reference,
)


@st.composite
def rwa_instances(draw):
    """A random ring + route set + channel-space configuration."""
    n = draw(st.integers(min_value=4, max_value=24))
    topo = RingTopology(n)
    k = draw(st.integers(min_value=1, max_value=24))
    routes = []
    for _ in range(k):
        src = draw(st.integers(min_value=0, max_value=n - 1))
        dst = (src + draw(st.integers(min_value=1, max_value=n - 1))) % n
        if draw(st.booleans()):
            routes.append(topo.cw_route(src, dst))
        else:
            routes.append(topo.ccw_route(src, dst))
    n_wavelengths = draw(st.integers(min_value=1, max_value=6))
    fibers = draw(st.integers(min_value=1, max_value=3))
    # Block a strict subset so at least one channel survives.
    blocked = frozenset(
        draw(
            st.sets(
                st.integers(min_value=0, max_value=n_wavelengths - 1),
                max_size=n_wavelengths - 1,
            )
        )
    )
    return n, routes, n_wavelengths, fibers, blocked


@st.composite
def faulted_instances(draw):
    """An :func:`rwa_instances` draw plus fault keywords: per-route
    wavelength bans (dead MRR endpoint ports, on about a third of the
    routes) and quarantine spans per (direction, wavelength), mostly a
    stuck MRR's two adjacent segments, sometimes an arbitrary segment set.
    Bans and spans each leave a route at least one usable wavelength, so
    most instances are solvable."""
    n, routes, w, fibers, blocked = draw(rwa_instances())
    usable = [lam for lam in range(w) if lam not in blocked]
    some = st.sets(st.sampled_from(usable), max_size=len(usable) - 1)
    route_blocked = [
        frozenset(draw(some)) if draw(st.integers(min_value=0, max_value=2)) == 0
        else frozenset()
        for _ in routes
    ]
    preoccupied = {}
    for lam in draw(some):
        key = (draw(st.sampled_from(list(Direction))), lam)
        if draw(st.integers(min_value=0, max_value=3)):
            node = draw(st.integers(min_value=0, max_value=n - 1))
            span = (1 << node) | (1 << ((node - 1) % n))
        else:
            span = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
        preoccupied[key] = span
    return n, routes, w, fibers, blocked, route_blocked, preoccupied


def _same_assignment(ours, ref):
    assert ours.assigned == ref.assigned
    assert ours.unassigned == ref.unassigned
    assert ours.peak_wavelength == ref.peak_wavelength


class TestSingleRoundParity:
    @given(inst=rwa_instances())
    @settings(max_examples=80, deadline=None)
    def test_first_fit_identical(self, inst):
        n, routes, w, fibers, blocked = inst
        ours = assign_wavelengths(
            routes, n, w, fibers_per_direction=fibers, blocked=blocked
        )
        ref = assign_wavelengths_reference(
            routes, n, w, fibers_per_direction=fibers, blocked=blocked
        )
        _same_assignment(ours, ref)

    @given(inst=rwa_instances(), seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=80, deadline=None)
    def test_random_fit_identical_and_same_rng_consumption(self, inst, seed):
        n, routes, w, fibers, blocked = inst
        rng_ours, rng_ref = SeededRng(seed), SeededRng(seed)
        ours = assign_wavelengths(
            routes, n, w, fibers_per_direction=fibers,
            strategy="random_fit", rng=rng_ours, blocked=blocked,
        )
        ref = assign_wavelengths_reference(
            routes, n, w, fibers_per_direction=fibers,
            strategy="random_fit", rng=rng_ref, blocked=blocked,
        )
        _same_assignment(ours, ref)
        # Both kernels must leave the RNG at the identical stream position,
        # or every later draw in a simulation would silently diverge.
        assert rng_ours.integers(0, 2**30) == rng_ref.integers(0, 2**30)

    @given(inst=rwa_instances())
    @settings(max_examples=60, deadline=None)
    def test_dsatur_identical(self, inst):
        n, routes, w, fibers, blocked = inst
        ours = dsatur_assign(
            routes, n, w, fibers_per_direction=fibers, blocked=blocked
        )
        ref = dsatur_assign_reference(
            routes, n, w, fibers_per_direction=fibers, blocked=blocked
        )
        if ref is None:
            assert ours is None
        else:
            assert ours is not None
            _same_assignment(ours, ref)


class TestRoundStructureParity:
    @given(inst=rwa_instances())
    @settings(max_examples=60, deadline=None)
    def test_plan_rounds_first_fit_identical(self, inst):
        n, routes, w, fibers, blocked = inst
        ours = plan_rounds(
            routes, n, w, fibers_per_direction=fibers, blocked=blocked
        )
        ref = plan_rounds_reference(
            routes, n, w, fibers_per_direction=fibers, blocked=blocked
        )
        assert ours == ref

    @given(inst=rwa_instances(), seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=60, deadline=None)
    def test_plan_rounds_random_fit_identical(self, inst, seed):
        n, routes, w, fibers, blocked = inst
        ours = plan_rounds(
            routes, n, w, fibers_per_direction=fibers,
            strategy="random_fit", rng=SeededRng(seed), blocked=blocked,
        )
        ref = plan_rounds_reference(
            routes, n, w, fibers_per_direction=fibers,
            strategy="random_fit", rng=SeededRng(seed), blocked=blocked,
        )
        assert ours == ref


class TestFaultedParity:
    """Per-route bans and quarantine spans: the array pre-mark and both
    assignment paths against the reference's loops."""

    @given(inst=faulted_instances())
    @settings(max_examples=80, deadline=None)
    def test_dsatur_seen_premark_identical(self, inst):
        n, routes, w, fibers, blocked, route_blocked, preoccupied = inst
        allowed = [
            (f, lam) for f in range(fibers) for lam in range(w) if lam not in blocked
        ]
        ours = fault_bans(routes, _route_masks(routes), allowed, route_blocked, preoccupied)
        ref = fault_bans_reference(routes, allowed, route_blocked, preoccupied)
        assert ours.dtype == ref.dtype and np.array_equal(ours, ref)
        # Each keyword alone, and neither (nothing is banned).
        for kwargs in ({"route_blocked": route_blocked}, {"preoccupied": preoccupied}, {}):
            assert np.array_equal(
                fault_bans(routes, _route_masks(routes), allowed, **kwargs),
                fault_bans_reference(routes, allowed, **kwargs),
            )

    @given(inst=faulted_instances())
    @settings(max_examples=80, deadline=None)
    def test_dsatur_identical(self, inst):
        n, routes, w, fibers, blocked, route_blocked, preoccupied = inst
        kwargs = dict(
            fibers_per_direction=fibers, blocked=blocked,
            route_blocked=route_blocked, preoccupied=preoccupied,
        )
        ours = dsatur_assign(routes, n, w, **kwargs)
        ref = dsatur_assign_reference(routes, n, w, **kwargs)
        if ref is None:
            assert ours is None
        else:
            assert ours is not None
            _same_assignment(ours, ref)

    @given(inst=faulted_instances(), seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=60, deadline=None)
    def test_single_round_identical(self, inst, seed):
        n, routes, w, fibers, blocked, route_blocked, preoccupied = inst
        kwargs = dict(
            fibers_per_direction=fibers, blocked=blocked,
            route_blocked=route_blocked, preoccupied=preoccupied,
        )
        _same_assignment(
            assign_wavelengths(routes, n, w, **kwargs),
            assign_wavelengths_reference(routes, n, w, **kwargs),
        )
        rng_ours, rng_ref = SeededRng(seed), SeededRng(seed)
        _same_assignment(
            assign_wavelengths(routes, n, w, strategy="random_fit", rng=rng_ours, **kwargs),
            assign_wavelengths_reference(
                routes, n, w, strategy="random_fit", rng=rng_ref, **kwargs
            ),
        )
        assert rng_ours.integers(0, 2**30) == rng_ref.integers(0, 2**30)

    @given(inst=faulted_instances())
    @settings(max_examples=80, deadline=None)
    def test_plan_rounds_identical(self, inst):
        n, routes, w, fibers, blocked, route_blocked, preoccupied = inst
        kwargs = dict(
            fibers_per_direction=fibers, blocked=blocked,
            route_blocked=route_blocked, preoccupied=preoccupied,
        )
        try:
            ours = plan_rounds(routes, n, w, **kwargs)
        except RwaInfeasibleError:
            # A route whose every channel is banned or quarantined can
            # never be placed; the seed kernel stops on it too.
            with pytest.raises(RuntimeError):
                plan_rounds_reference(routes, n, w, **kwargs)
            return
        assert ours == plan_rounds_reference(routes, n, w, **kwargs)


class TestInfeasible:
    def test_fully_blocked_raises_typed_error(self):
        topo = RingTopology(8)
        routes = [topo.cw_route(0, 2), topo.cw_route(1, 3)]
        blocked = frozenset(range(4))
        with pytest.raises(RwaInfeasibleError) as exc_info:
            plan_rounds(routes, 8, 4, blocked=blocked)
        err = exc_info.value
        assert err.routes == routes
        assert err.n_wavelengths == 4
        assert err.fibers_per_direction == 1
        assert err.blocked == blocked
        # Still a RuntimeError, so seed-era handlers keep working.
        assert isinstance(err, RuntimeError)

    def test_seed_raised_plain_runtime_error_here(self):
        topo = RingTopology(8)
        routes = [topo.cw_route(0, 2)]
        with pytest.raises(RuntimeError):
            plan_rounds_reference(routes, 8, 4, blocked=frozenset(range(4)))


class TestNetworkSwap:
    """The reference stands in for ``plan_rounds`` inside the network, as
    ``benchmarks/bench_rwa.py``'s fig6-style sweep swaps it in."""

    @pytest.mark.parametrize("algo", ["wrht", "rd", "swing"])
    def test_healthy_cell_lowers_to_same_rounds(self, algo, monkeypatch):
        # w=2 makes a step of each algorithm spill into a second round.
        cfg = OpticalSystemConfig(n_nodes=16, n_wavelengths=2)
        kwargs = {"n_wavelengths": 2} if algo == "wrht" else {}
        sched = build_schedule(algo, 16, 1600, **kwargs)

        def lowered():
            net = OpticalRingNetwork(cfg, plan_cache=PlanCache(maxsize=0))
            rounds = [
                net.plan_step_rounds(step, 4.0)
                for step, _, _ in sched.lowering_profile()
            ]
            return rounds, net.lower(sched).entries

        fast = lowered()
        assert any(len(r) > 1 for r in fast[0])  # some step spills into rounds
        monkeypatch.setattr(network_mod, "plan_rounds", plan_rounds_reference)
        assert lowered() == fast

    @pytest.mark.parametrize(
        "faults",
        [
            FaultSet.of(MrrPortFault(node=3, wavelength=1, mode="stuck")),
            FaultSet.of(
                MrrPortFault(node=5, wavelength=0, mode="dead"),
                MrrPortFault(node=9, wavelength=1, mode="dead", direction="ccw"),
            ),
            FaultSet.of(
                DeadWavelength(1),
                MrrPortFault(node=2, wavelength=0, mode="stuck", direction="cw"),
                MrrPortFault(node=7, wavelength=2, mode="dead"),
            ),
        ],
        ids=["stuck-mrr", "dead-ports", "mixed"],
    )
    @pytest.mark.parametrize("algo", ["wrht", "rd", "swing"])
    def test_faulted_cell_lowers_to_same_rounds(self, algo, faults, monkeypatch):
        """Quarantine spans and dead-port bans thread through both kernels:
        a faulted network prices the same rounds with the reference in."""
        cfg = OpticalSystemConfig(n_nodes=16, n_wavelengths=4, faults=faults)
        kwargs = {"n_wavelengths": 4} if algo == "wrht" else {}
        sched = build_schedule(algo, 16, 1600, **kwargs)

        def lowered():
            net = OpticalRingNetwork(cfg, plan_cache=PlanCache(maxsize=0))
            rounds = [
                net.plan_step_rounds(step, 4.0)
                for step, _, _ in sched.lowering_profile()
            ]
            return rounds, net.lower(sched).entries

        fast = lowered()
        monkeypatch.setattr(network_mod, "plan_rounds", plan_rounds_reference)
        assert lowered() == fast

    def test_healthy_keywords_accepted(self):
        topo = RingTopology(8)
        routes = [topo.cw_route(0, 2), topo.cw_route(1, 3)]
        assert plan_rounds_reference(
            routes, 8, 4, route_blocked=[frozenset(), frozenset()], preoccupied={}
        ) == plan_rounds(routes, 8, 4)


class TestLivesimCrossCheck:
    @pytest.mark.parametrize("w_sys", [2, 4, 8])
    def test_round_structure_matches_event_driven_sim(self, w_sys):
        # The live DES replays plan_step_rounds event by event; if the
        # bitmask kernel changed any round's membership the circuit
        # conflict checks or the totals would diverge.
        cfg = OpticalSystemConfig(n_nodes=32, n_wavelengths=w_sys)
        sched = build_schedule("wrht", 32, 320, n_wavelengths=8)
        live = LiveOpticalSimulation(cfg).run(sched)
        fast = OpticalRingNetwork(cfg).execute(sched)
        assert live.n_rounds == fast.total_rounds
        assert live.total_time == pytest.approx(fast.total_time, rel=1e-12)
