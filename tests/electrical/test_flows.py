"""Max-min fair fluid simulation tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.electrical.flows as flows_mod
from benchmarks.bench_collectives import ALGORITHMS, PAYLOAD_ELEMS, _build
from repro.backend.plancache import PlanCache
from repro.electrical.config import ElectricalSystemConfig
from repro.electrical.flows import Flow, FluidSimulation, max_min_rates
from repro.electrical.network import ElectricalNetwork
from tests.electrical.maxmin_reference import max_min_rates_reference


class TestMaxMinRates:
    def test_single_flow_gets_capacity(self):
        flows = [Flow(0, (0,), 100.0)]
        rates = max_min_rates(flows, [10.0])
        assert rates[0] == 10.0

    def test_equal_sharing(self):
        flows = [Flow(i, (0,), 100.0) for i in range(4)]
        rates = max_min_rates(flows, [8.0])
        assert np.allclose(rates, 2.0)

    def test_classic_three_flow_example(self):
        # Links A (cap 10) and B (cap 10). Flow 1 on A, flow 2 on B,
        # flow 3 on both. Max-min: flow 3 gets 5, flows 1,2 get 5... then
        # residuals let flows 1,2 take the rest: 5 each -> all 5? No:
        # bottleneck share on both links is 10/2 = 5; flows 1 and 2 then
        # take the remaining 5 each.
        flows = [Flow(0, (0,), 1.0), Flow(1, (1,), 1.0), Flow(2, (0, 1), 1.0)]
        rates = max_min_rates(flows, [10.0, 10.0])
        assert rates[2] == pytest.approx(5.0)
        assert rates[0] == pytest.approx(5.0)
        assert rates[1] == pytest.approx(5.0)

    def test_unequal_bottlenecks(self):
        # Flow 0 alone on a fat link; flow 1 shares a thin link with flow 2.
        flows = [Flow(0, (0,), 1.0), Flow(1, (1,), 1.0), Flow(2, (1,), 1.0)]
        rates = max_min_rates(flows, [100.0, 10.0])
        assert rates[0] == pytest.approx(100.0)
        assert rates[1] == rates[2] == pytest.approx(5.0)

    def test_empty(self):
        assert max_min_rates([], [1.0]).size == 0

    def test_link_id_past_capacities_rejected(self):
        with pytest.raises(ValueError, match="link ids"):
            max_min_rates([Flow(0, (2,), 1.0)], [10.0, 5.0])

    def test_link_id_mutated_negative_rejected(self):
        flow = Flow(0, (0,), 1.0)
        flow.links = (-1,)
        with pytest.raises(ValueError, match="link ids"):
            max_min_rates([flow], [10.0, 5.0])

    @pytest.mark.parametrize("capacity", [-1.0, float("inf"), float("nan")])
    def test_bad_crossed_capacity_rejected(self, capacity):
        with pytest.raises(ValueError, match="capacities"):
            max_min_rates([Flow(0, (1,), 1.0)], [10.0, capacity])

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(0, 5), min_size=1, max_size=3, unique=True),
            min_size=1, max_size=12,
        )
    )
    def test_feasibility_and_saturation_property(self, routes):
        capacities = [10.0] * 6
        flows = [Flow(i, tuple(r), 1.0) for i, r in enumerate(routes)]
        rates = max_min_rates(flows, capacities)
        # Feasible: no link oversubscribed.
        load = np.zeros(6)
        for f, r in zip(flows, rates):
            for link in f.links:
                load[link] += r
        assert np.all(load <= 10.0 + 1e-6)
        # Every flow crosses at least one saturated link (max-min property).
        for f, r in zip(flows, rates):
            assert any(load[l] >= 10.0 - 1e-6 for l in f.links) or r >= 10.0 - 1e-6


class TestFluidSimulation:
    def test_single_flow_finish_time(self):
        sim = FluidSimulation([10.0])
        flow = Flow(0, (0,), 100.0, latency=0.5)
        assert sim.run([flow]) == pytest.approx(10.5)
        assert flow.finish_time == pytest.approx(10.5)

    def test_shared_then_released_bandwidth(self):
        # Two flows share a link; the short one finishes and the long one
        # speeds up: 50@5 takes 10s together... short(25) done at t=5,
        # long has 25 left at 10 B/s -> finishes 7.5.
        sim = FluidSimulation([10.0])
        short = Flow(0, (0,), 25.0)
        long = Flow(1, (0,), 50.0)
        total = sim.run([short, long])
        assert short.finish_time == pytest.approx(5.0)
        assert long.finish_time == pytest.approx(7.5)
        assert total == pytest.approx(7.5)

    def test_zero_size_flow(self):
        sim = FluidSimulation([10.0])
        flow = Flow(0, (0,), 0.0, latency=0.25)
        assert sim.run([flow]) == pytest.approx(0.25)

    def test_no_flows(self):
        assert FluidSimulation([1.0]).run([]) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            FluidSimulation([])
        with pytest.raises(ValueError):
            FluidSimulation([0.0])
        with pytest.raises(ValueError):
            Flow(0, (), 1.0)
        with pytest.raises(ValueError):
            Flow(0, (0,), -1.0)

    def test_negative_link_id_rejected(self):
        # Id -1 would index the last capacity and misprice silently.
        with pytest.raises(ValueError, match="link ids"):
            Flow(0, (-1,), 1.0)

    def test_repeated_link_id_rejected(self):
        # A repeated link counts once in the share but is charged twice.
        with pytest.raises(ValueError, match="each link once"):
            Flow(0, (0, 0), 1.0)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(1.0, 1e6), min_size=1, max_size=10))
    def test_conservation_property(self, sizes):
        # All flows on one link: total time = total bytes / capacity.
        sim = FluidSimulation([100.0])
        flows = [Flow(i, (0,), s) for i, s in enumerate(sizes)]
        total = sim.run(flows)
        assert total == pytest.approx(sum(sizes) / 100.0, rel=1e-6)


#: Link capacities that make ties and inexact shares common: one constant
#: for every link, or independent uniform draws.
CAPACITY_KINDS = (1.0, 3.0, 0.1, 40e9, "uniform")


@st.composite
def flow_sets(draw):
    """Random flows over <= 40 links, paths of 1-4 distinct links."""
    n_links = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(CAPACITY_KINDS))
    if kind == "uniform":
        capacities = draw(
            st.lists(st.floats(0.01, 100.0), min_size=n_links, max_size=n_links)
        )
    else:
        capacities = [kind] * n_links
    paths = draw(
        st.lists(
            st.lists(
                st.integers(0, n_links - 1),
                min_size=1, max_size=min(4, n_links), unique=True,
            ),
            min_size=1, max_size=48,
        )
    )
    sizes = draw(
        st.lists(st.floats(1.0, 1e9), min_size=len(paths), max_size=len(paths))
    )
    return capacities, paths, sizes


def _flows(paths, sizes=None):
    sizes = sizes or [1.0] * len(paths)
    return [
        Flow(i, tuple(path), size, latency=1e-6 * len(path))
        for i, (path, size) in enumerate(zip(paths, sizes))
    ]


class TestBitParity:
    """The array kernel against the one-bottleneck-per-search loop it replaced.

    ``np.array_equal`` and ``==`` compare bits here: a last-ulp drift that
    the feasibility property above tolerates fails these tests.
    """

    @settings(max_examples=400, deadline=None)
    @given(flow_sets())
    def test_rates_bit_identical(self, case):
        capacities, paths, _ = case
        flows = _flows(paths)
        assert np.array_equal(
            max_min_rates(flows, capacities),
            max_min_rates_reference(flows, capacities),
        )

    @pytest.mark.parametrize(
        "capacities, paths",
        [
            # Rounding drops a touched, still-loaded link below the pass's
            # share: the pass must end there.
            ([40e9] * 4, [(0,), (2,), (0, 3, 1), (1, 0, 3), (2,), (3, 2)]),
            # A touched link lands exactly on the share: ending the pass
            # only below it (``<`` for ``<=``) changes the last digit.
            (
                [1 / 3] * 7,
                [(2,), (1, 2), (0, 6), (4,), (4, 1, 6), (0, 2), (6, 2, 0, 3),
                 (5, 4, 1), (4, 6, 0, 3)],
            ),
            # Subnormal capacities take a loaded link's residual below zero;
            # the clip must zero it.
            (
                [1.5e-323] * 4,
                [(3, 1, 0), (2, 1), (0, 3), (1, 3, 0), (0, 2, 1, 3), (2, 1, 0, 3)],
            ),
        ],
    )
    def test_tie_pass_rounding_cases(self, capacities, paths):
        flows = _flows(paths)
        assert np.array_equal(
            max_min_rates(flows, capacities),
            max_min_rates_reference(flows, capacities),
        )

    @settings(max_examples=100, deadline=None)
    @given(flow_sets())
    def test_fluid_finish_times_bit_identical(self, case):
        capacities, paths, sizes = case
        fast = _flows(paths, sizes)
        slow = _flows(paths, sizes)
        total = FluidSimulation(capacities).run(fast)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(flows_mod, "max_min_rates", max_min_rates_reference)
            reference_total = FluidSimulation(capacities).run(slow)
        assert total == reference_total
        assert [f.finish_time for f in fast] == [f.finish_time for f in slow]

    @pytest.mark.parametrize("n_nodes", [16, 64])
    def test_bakeoff_step_plans_identical(self, n_nodes, monkeypatch):
        """Every distinct step pattern of the bake-off lineup, on the fat-tree."""

        def plans():
            network = ElectricalNetwork(
                ElectricalSystemConfig(n_nodes=n_nodes), plan_cache=PlanCache(maxsize=0)
            )
            return [
                [
                    entry.payload
                    for entry in network.lower(_build(algo, n_nodes, elems, kw)).entries
                ]
                for algo, kw in ALGORITHMS
                for elems in PAYLOAD_ELEMS
            ]

        fast = plans()
        monkeypatch.setattr(flows_mod, "max_min_rates", max_min_rates_reference)
        assert plans() == fast
