"""One solve per (src, dst) sequence: reused rounds price every payload.

A network keeps the rounds it solved for each ordered (src, dst) sequence
(plus the hold variant's partition half) and prices every further payload
of that sequence from them, without routing, RWA or validation. The oracle
is the same lowering on a fresh network whose plan cache is disabled
(``PlanCache(maxsize=0)``): it solves every pattern, as every network did
before the table existed. Every ``CachedRound`` field, claims and tuning
included, must be equal with ``==``.

The table is used only where a solve depends on the pairs alone. Keep and
repair networks, ``random_fit`` and a disabled cache solve every pattern.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.optical.network as network_mod
from repro.backend.optical import OpticalBackend
from repro.backend.plancache import PlanCache
from repro.collectives.base import CommStep, Schedule, Transfer
from repro.collectives.registry import build_schedule
from repro.faults.models import FaultSet, MrrPortFault
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.optical.config import OpticalSystemConfig
from repro.optical.network import OpticalRingNetwork
from repro.runner.faultsweep import default_fault_scenarios
from repro.sim.rng import SeededRng

#: The bake-off lineup: (registry name, builder kwargs).
LINEUP = (
    ("ring", {}),
    ("bt", {}),
    ("rd", {}),
    ("swing", {}),
    ("scring", {"pipeline": 1}),
    ("scring", {"pipeline": 4}),
    ("wrht", {}),
)
BAKEOFF_PAYLOADS = (100_000, 25_000_000)


def _config(n, w, **kwargs):
    return OpticalSystemConfig(n_nodes=n, n_wavelengths=w, **kwargs)


def _fresh(config, **kwargs):
    """A network that solves every pattern (the oracle)."""
    return OpticalRingNetwork(config, plan_cache=PlanCache(maxsize=0), **kwargs)


def _repeated_schedule(n, pairs, chunks):
    """One step per (chunk size, op), all over the same ordered (src, dst)
    sequence: the sum half and the copy half of every payload."""
    steps = [
        CommStep(
            tuple(Transfer(src, dst, 0, chunk, op) for src, dst in pairs),
            stage="reduce" if op == "sum" else "broadcast",
        )
        for chunk in chunks
        for op in ("sum", "copy")
    ]
    return Schedule(
        "repeat", n, max(chunks), steps=steps, timing_profile=[(s, 1) for s in steps]
    )


def _payloads(plan):
    return [entry.payload for entry in plan.entries]


@pytest.fixture
def solve_calls(monkeypatch):
    """Counts the network's RWA solves, routings and repairs."""
    calls = Counter()

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            result = original(*args, **kwargs)
            if name == "plan_rounds":
                calls["rounds"] += len(result)
            return result

        return wrapper

    monkeypatch.setattr(
        network_mod, "plan_rounds", counting("plan_rounds", network_mod.plan_rounds)
    )
    monkeypatch.setattr(
        network_mod,
        "repair_rounds",
        counting("repair_rounds", network_mod.repair_rounds),
    )
    monkeypatch.setattr(
        OpticalRingNetwork,
        "_route_step",
        counting("_route_step", OpticalRingNetwork._route_step),
    )
    return calls


@st.composite
def repeated_lowerings(draw):
    n = draw(st.integers(min_value=2, max_value=24))
    w = draw(st.integers(min_value=1, max_value=8))
    node = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(
        st.lists(
            st.tuples(node, node).filter(lambda p: p[0] != p[1]),
            min_size=1,
            max_size=2 * n,
        )
    )
    chunks = draw(
        st.lists(st.integers(min_value=1, max_value=10**7), min_size=2, max_size=4,
                 unique=True)
    )
    config = _config(
        n,
        w,
        fibers_per_direction=draw(st.integers(min_value=1, max_value=2)),
        t_tune=draw(st.sampled_from([0.0, 25e-6])),
    )
    partition = w >= 2 and draw(st.booleans())
    return config, _repeated_schedule(n, pairs, chunks), partition


class TestReuseParity:
    @given(case=repeated_lowerings())
    @settings(max_examples=100, deadline=None)
    def test_every_round_equals_a_fresh_solve(self, case):
        config, schedule, partition = case
        metrics = MetricsRegistry()
        net = OpticalRingNetwork(config, plan_cache=PlanCache(), metrics=metrics)
        reused = net.lower(schedule, 4.0, partition=partition)
        fresh = _fresh(config).lower(schedule, 4.0, partition=partition)
        assert _payloads(reused) == _payloads(fresh)
        assert reused.meta == fresh.meta
        # One solve per partition half (one without a partition); every
        # other entry is a plan-cache miss priced from the kept rounds.
        solves = 2 if partition else 1
        counters = metrics.snapshot().counters
        assert counters["rwa.solve_reused"] == reused.cache.misses - solves

    @pytest.mark.parametrize(
        "scenario", ["dead-wavelength", "stuck-mrr", "cut-fiber", "laser-droop"]
    )
    @pytest.mark.parametrize("algo", ["wrht", "swing", "rd"])
    def test_faulted_networks_reuse_exactly(self, algo, scenario):
        n, w = 16, 8
        faults = default_fault_scenarios(n, w)[scenario]
        config = _config(n, w, faults=faults)
        kwargs = {"n_wavelengths": w} if algo == "wrht" else {}
        net = OpticalRingNetwork(config, plan_cache=PlanCache())
        for elems in (1_600, 48_000):
            schedule = build_schedule(algo, n, elems, **kwargs)
            assert _payloads(net.lower(schedule)) == _payloads(
                _fresh(config).lower(schedule)
            )

    def test_dead_ports_reuse_exactly(self):
        faults = FaultSet.of(
            MrrPortFault(node=3, wavelength=1), MrrPortFault(5, 0, direction="ccw")
        )
        config = _config(16, 4, faults=faults)
        net = OpticalRingNetwork(config, plan_cache=PlanCache())
        for elems in (1_600, 48_000):
            schedule = build_schedule("swing", 16, elems)
            assert _payloads(net.lower(schedule)) == _payloads(
                _fresh(config).lower(schedule)
            )


class TestBakeoffLineup:
    """The bake-off's seven collectives at both payloads through one
    backend price exactly what fresh backends price."""

    @pytest.mark.parametrize("w, t_tune", [(64, 0.0), (8, 25e-6)])
    @pytest.mark.parametrize("n", [16, 64])
    def test_totals_equal_fresh_backends(self, n, w, t_tune):
        config = _config(n, w, t_tune=t_tune)
        shared = OpticalBackend(config, plan_cache=PlanCache())
        for elems in BAKEOFF_PAYLOADS:
            for algo, kwargs in LINEUP:
                if algo == "wrht":
                    kwargs = {**kwargs, "n_wavelengths": w}
                schedule = build_schedule(algo, n, elems, **kwargs)
                fresh = OpticalBackend(config, plan_cache=PlanCache(maxsize=0))
                ours = shared.run(schedule, bytes_per_elem=4.0)
                theirs = fresh.run(schedule, bytes_per_elem=4.0)
                assert ours.total_time == theirs.total_time, (algo, kwargs, elems)
                assert ours.timeline == theirs.timeline


class TestGuard:
    @pytest.mark.parametrize(
        "algo, kwargs",
        [
            ("ring", {}),
            ("bt", {}),
            ("rd", {}),
            ("swing", {}),
            ("hring", {"m": 4}),
            ("wrht", {"n_wavelengths": 8}),
        ],
    )
    def test_second_payload_neither_routes_nor_solves(self, solve_calls, algo, kwargs):
        net = OpticalRingNetwork(_config(16, 8), plan_cache=PlanCache())
        net.lower(build_schedule(algo, 16, 1_600, **kwargs))
        assert solve_calls["plan_rounds"] > 0
        solve_calls.clear()
        plan = net.lower(build_schedule(algo, 16, 48_000, **kwargs))
        assert plan.cache.misses > 0  # new chunk sizes: every pattern misses
        assert solve_calls["plan_rounds"] == 0
        assert solve_calls["_route_step"] == 0


class TestExclusions:
    def _schedules(self):
        return [build_schedule("swing", 32, elems) for elems in (3_200, 96_000)]

    def test_keep_and_repair_networks_solve_every_pattern(self, solve_calls):
        """A keep network captures, and its repair network repairs, every
        pattern's own transfers: no miss is priced from another's rounds."""
        n, w = 32, 8
        base = OpticalRingNetwork(
            _config(n, w), keep_solutions=True, plan_cache=PlanCache()
        )
        faults = default_fault_scenarios(n, w)["dead-wavelength"]
        repaired = base.repair_network(faults)
        for schedule in self._schedules():
            solve_calls.clear()
            plan = base.lower(schedule)
            assert solve_calls["plan_rounds"] == plan.cache.misses
            solve_calls.clear()
            plan = repaired.lower(schedule)
            assert solve_calls["repair_rounds"] == plan.cache.misses
            assert solve_calls["plan_rounds"] == 0
        assert not base._solved and not repaired._solved

    def test_swing_stuck_mrr_cascades_unchanged(self, solve_calls):
        """Swing at N=32/w=8 under the canonical stuck MRR: every pattern is
        repaired, with 32 cascades and 4 fallbacks."""
        n, w = 32, 8
        schedule = build_schedule("swing", n, 100_000)
        metrics = MetricsRegistry()
        base = OpticalRingNetwork(
            _config(n, w), keep_solutions=True, plan_cache=PlanCache(),
            metrics=metrics,
        )
        base_plan = base.lower(schedule, 4.0)
        assert solve_calls["plan_rounds"] == base_plan.cache.misses
        plan, _network = base.repair_plan(
            schedule, default_fault_scenarios(n, w)["stuck-mrr"]
        )
        assert solve_calls["repair_rounds"] == plan.cache.misses
        counters = metrics.snapshot().counters
        assert counters["rwa.repair_cascades"] == 32
        assert counters["rwa.repair_fallback"] == 4
        assert "rwa.solve_reused" not in counters

    def test_random_fit_solves_every_pattern(self, solve_calls):
        net = OpticalRingNetwork(
            _config(32, 8), strategy="random_fit", rng=SeededRng(5),
            plan_cache=PlanCache(),
        )
        for schedule in self._schedules():
            solve_calls.clear()
            net.lower(schedule)
            distinct = {key for _, _, key in schedule.lowering_profile()}
            assert solve_calls["plan_rounds"] == len(distinct)
        assert not net._solved

    def test_disabled_cache_solves_every_pattern(self, solve_calls):
        net = _fresh(_config(32, 8))
        for schedule in self._schedules():
            solve_calls.clear()
            net.lower(schedule)
            distinct = {key for _, _, key in schedule.lowering_profile()}
            assert solve_calls["plan_rounds"] == len(distinct)
        assert not net._solved


class TestBound:
    def test_table_never_exceeds_cache_maxsize(self):
        cache = PlanCache(maxsize=2)
        net = OpticalRingNetwork(_config(32, 8), plan_cache=cache)
        for algo in ("bt", "rd", "swing", "ring"):
            for elems in (3_200, 96_000):
                net.lower(build_schedule(algo, 32, elems))
                assert 0 < len(net._solved) <= cache.maxsize
        cache.resize(1)
        net.lower(build_schedule("bt", 32, 6_400))
        assert len(net._solved) == 1

    def test_resize_zero_turns_the_table_off(self, solve_calls):
        cache = PlanCache()
        net = OpticalRingNetwork(_config(32, 8), plan_cache=cache)
        net.lower(build_schedule("rd", 32, 3_200))
        assert net._solved
        cache.resize(0)
        solve_calls.clear()
        schedule = build_schedule("rd", 32, 96_000)
        net.lower(schedule)
        distinct = {key for _, _, key in schedule.lowering_profile()}
        assert solve_calls["plan_rounds"] == len(distinct)
        assert not net._solved


class TestObservability:
    GRID = (("ring", {}), ("bt", {}), ("wrht", {"n_wavelengths": 8}))

    def _run_grid(self, metrics):
        backend = OpticalBackend(_config(16, 8), plan_cache=PlanCache(), metrics=metrics)
        return [
            backend.run(build_schedule(algo, 16, elems, **kwargs))
            for elems in (1_600, 48_000)
            for algo, kwargs in self.GRID
        ]

    def test_counts_reuses_next_to_solved_rounds(self, solve_calls):
        results = self._run_grid(MetricsRegistry())
        misses = sum(result.cache.misses for result in results)
        counters = results[-1].metrics.counters
        assert counters["rwa.solve_reused"] == misses - solve_calls["plan_rounds"] > 0
        # ``rwa.rounds`` counts the rounds of solved patterns only.
        assert counters["rwa.rounds"] == solve_calls["rounds"]

    def test_disabled_registry_changes_nothing(self):
        metered = self._run_grid(MetricsRegistry())
        plain = self._run_grid(NULL_METRICS)
        assert [r.total_time for r in plain] == [r.total_time for r in metered]
        assert all(r.metrics is None for r in plain)
