"""Bitmask RWA kernel vs the preserved seed implementation.

The fast path in :mod:`repro.optical.rwa` (integer-bitmask occupancy,
matmul-built DSATUR conflict graphs, hoisted channel lists) must be
*semantically invisible*: identical assignments, identical round structure,
identical RNG stream consumption. These property tests drive both kernels
over random rings, route sets, strategies, fiber counts and blocked
wavelengths and assert equality against
:mod:`repro.optical._rwa_reference` — the seed code kept verbatim.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.optical.network as network_mod
from repro.backend.plancache import PlanCache
from repro.collectives.registry import build_schedule
from repro.optical._rwa_reference import (
    assign_wavelengths_reference,
    dsatur_assign_reference,
    plan_rounds_reference,
)
from repro.optical.config import OpticalSystemConfig
from repro.optical.livesim import LiveOpticalSimulation
from repro.optical.network import OpticalRingNetwork
from repro.optical.rwa import (
    RwaInfeasibleError,
    assign_wavelengths,
    dsatur_assign,
    plan_rounds,
)
from repro.optical.topology import RingTopology
from repro.sim.rng import SeededRng


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

    def test_faulted_keywords_rejected(self):
        topo = RingTopology(8)
        routes = [topo.cw_route(0, 2)]
        with pytest.raises(ValueError, match="per-route"):
            plan_rounds_reference(routes, 8, 4, route_blocked=[frozenset({1})])
        with pytest.raises(ValueError, match="pre-occupied"):
            plan_rounds_reference(
                routes, 8, 4, preoccupied={(routes[0].direction, 0): 0b10}
            )

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
