"""Array-form pinned recolor vs the lazy-heap kernel it replaced.

``repro.optical.repair._pin_recolor`` recolors the affected transfers of a
cached solution with every other claim pinned. It builds its conflict
and free-color matrices with matmuls and picks by argmax; the pure-Python
kernel it replaced is kept verbatim in
:mod:`tests.optical.pin_recolor_reference`, next to the earlier
``affected_indices``. Both kernels must agree on every call — the same
affected set, the same repaired rounds (in the same dict order) or the
same stuck vertex — because the stuck vertex decides the next cascade, and
the cascade decides which repairs fall back to a full recolor.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.optical.repair as repair_mod
from repro.backend.plancache import PlanCache
from repro.collectives.registry import build_schedule
from repro.obs.metrics import MetricsRegistry
from repro.optical.config import OpticalSystemConfig
from repro.optical.network import OpticalRingNetwork
from repro.optical.repair import (
    RwaContext,
    _pin_recolor,
    affected_indices,
    capture_solution,
    repair_rounds,
    route_masks,
)
from repro.optical.rwa import plan_rounds
from repro.optical.topology import Direction, RingTopology
from repro.runner.faultsweep import default_fault_scenarios
from tests.optical.pin_recolor_reference import (
    affected_indices_reference,
    pin_recolor_reference,
)

#: The repair counters a kernel swap must leave unchanged.
REPAIR_COUNTERS = ("rwa.repair_cascades", "rwa.repair_fallback", "rwa.repair_affected")


def _draw_ctx(draw, n, w, fibers, n_routes, safe):
    """Constraints for one solve: any wavelength but ``safe`` may be
    blocked globally, banned per route or carry quarantine spans."""
    others = st.integers(min_value=0, max_value=w - 1).filter(lambda lam: lam != safe)
    route_blocked = None
    if draw(st.booleans()):
        route_blocked = tuple(
            frozenset(draw(st.sets(others, max_size=2))) for _ in range(n_routes)
        )
    preoccupied = None
    if draw(st.booleans()):
        preoccupied = {
            (direction, lam): draw(st.integers(min_value=1, max_value=2**n - 1))
            for direction, lam in draw(
                st.sets(st.tuples(st.sampled_from(Direction), others), max_size=4)
            )
        }
    return RwaContext(
        n_segments=n,
        n_wavelengths=w,
        fibers_per_direction=fibers,
        blocked=frozenset(draw(st.sets(others, max_size=w - 1))),
        route_blocked=route_blocked,
        preoccupied=preoccupied,
    )


@st.composite
def pinned_instances(draw, old_deltas=False):
    """A solved step packed into several rounds, plus a constraint delta.

    The healthy solution uses few wavelengths so it spills into follow-up
    rounds. The delta may block wavelengths globally, ban wavelengths per
    route and quarantine spans, on one or two fibers per direction. One
    allowed wavelength stays free of every ban and span, so a full recolor
    is always feasible. Returns ``(routes, rounds, old_ctx, new_ctx)``;
    ``old_ctx`` carries constraints of its own only with ``old_deltas``.
    """
    n = draw(st.integers(min_value=6, max_value=20))
    topo = RingTopology(n)
    routes = []
    for _ in range(draw(st.integers(min_value=2, max_value=40))):
        src = draw(st.integers(min_value=0, max_value=n - 1))
        dst = (src + draw(st.integers(min_value=1, max_value=n - 1))) % n
        if draw(st.booleans()):
            routes.append(topo.cw_route(src, dst))
        else:
            routes.append(topo.ccw_route(src, dst))
    w = draw(st.integers(min_value=2, max_value=6))
    fibers = draw(st.integers(min_value=1, max_value=2))
    rounds = plan_rounds(routes, n, w, fibers_per_direction=fibers)
    safe = draw(st.integers(min_value=0, max_value=w - 1))
    old_ctx = RwaContext(n, w, fibers)
    if old_deltas:
        old_ctx = _draw_ctx(draw, n, w, fibers, len(routes), safe)
    return routes, rounds, old_ctx, _draw_ctx(draw, n, w, fibers, len(routes), safe)


def _assert_same(ours, ref):
    """Equal ``(rounds, ...)`` results, and equal dict order in every round."""
    assert ours == ref
    if ours[0] is not None:
        assert [list(rnd.items()) for rnd in ours[0]] == [
            list(rnd.items()) for rnd in ref[0]
        ]


def _repair_with(kernel, solution, routes, ctx):
    metrics = MetricsRegistry(enabled=True)
    with mock.patch.object(repair_mod, "_pin_recolor", kernel):
        rounds = repair_rounds(solution, routes, ctx, metrics=metrics)
    counters = metrics.snapshot().counters
    return rounds, {name: counters.get(name, 0) for name in REPAIR_COUNTERS}


class TestKernelParity:
    @given(inst=pinned_instances(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_affected_set(self, inst, data):
        routes, rounds, _old, ctx = inst
        affected = data.draw(
            st.sets(st.sampled_from(range(len(routes))), min_size=1)
        )
        masks = route_masks(routes)
        _assert_same(
            _pin_recolor(routes, masks, rounds, affected, ctx),
            pin_recolor_reference(routes, masks, rounds, affected, ctx),
        )

    @given(inst=pinned_instances(old_deltas=True), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_delta_affected_set(self, inst, data):
        routes, rounds, old_ctx, ctx = inst
        masks = route_masks(routes)
        solution = capture_solution(routes, rounds, old_ctx, masks)
        edited = frozenset(
            data.draw(st.sets(st.sampled_from(range(len(routes))), max_size=3))
        )
        affected = affected_indices(solution, routes, masks, ctx, edited)
        assert affected == affected_indices_reference(
            solution, routes, masks, ctx, edited
        )
        if affected:
            _assert_same(
                _pin_recolor(routes, masks, rounds, affected, ctx),
                pin_recolor_reference(routes, masks, rounds, affected, ctx),
            )

    def test_two_fibers_multi_round_with_bans_and_spans(self):
        topo = RingTopology(8)
        routes = [topo.cw_route(s, (s + 3) % 8) for s in range(8)] + [
            topo.ccw_route(s, (s + 5) % 8) for s in range(8)
        ]
        rounds = plan_rounds(routes, 8, 2, fibers_per_direction=2)
        assert len(rounds) > 1
        ctx = RwaContext(
            n_segments=8,
            n_wavelengths=2,
            fibers_per_direction=2,
            route_blocked=tuple(
                frozenset({1}) if i % 3 == 0 else frozenset() for i in range(16)
            ),
            preoccupied={(Direction.CW, 0): 0b11, (Direction.CCW, 1): 0b110000},
        )
        masks = route_masks(routes)
        for affected in ({0}, {0, 5, 9}, set(range(0, 16, 2)), set(range(16))):
            _assert_same(
                _pin_recolor(routes, masks, rounds, affected, ctx),
                pin_recolor_reference(routes, masks, rounds, affected, ctx),
            )


class TestRepairParity:
    @given(inst=pinned_instances())
    @settings(max_examples=100, deadline=None)
    def test_same_rounds_and_counters(self, inst):
        routes, rounds, old_ctx, ctx = inst
        solution = capture_solution(routes, rounds, old_ctx)
        _assert_same(
            _repair_with(_pin_recolor, solution, routes, ctx),
            _repair_with(pin_recolor_reference, solution, routes, ctx),
        )

    def test_swing_stuck_mrr_cascades(self, monkeypatch):
        """Swing at N=32/w=8 under the canonical stuck MRR cascades 32 times
        and falls back 4 times with either kernel."""
        n, w = 32, 8
        schedule = build_schedule("swing", n, 100_000)
        faults = default_fault_scenarios(n, w)["stuck-mrr"]

        def repaired():
            metrics = MetricsRegistry(enabled=True)
            base = OpticalRingNetwork(
                OpticalSystemConfig(n_nodes=n, n_wavelengths=w),
                keep_solutions=True, plan_cache=PlanCache(), metrics=metrics,
            )
            base.lower(schedule, 4.0)
            _plan, network = base.repair_plan(schedule, faults)
            counters = metrics.snapshot().counters
            kept = {key: s.rounds for key, s in network._solutions.items()}
            return kept, {name: counters.get(name, 0) for name in REPAIR_COUNTERS}

        ours = repaired()
        assert ours[1]["rwa.repair_cascades"] == 32
        assert ours[1]["rwa.repair_fallback"] == 4
        monkeypatch.setattr(repair_mod, "_pin_recolor", pin_recolor_reference)
        assert repaired() == ours


@pytest.mark.parametrize("capacity_left", [0, 1])
def test_no_free_channel_reports_the_same_stuck_vertex(capacity_left):
    """Every wavelength blocked (nothing to probe) or one left that the
    pins fill: both kernels name the same stuck vertices."""
    topo = RingTopology(6)
    routes = [topo.cw_route(0, 3), topo.cw_route(1, 4), topo.cw_route(2, 5)]
    rounds = plan_rounds(routes, 6, 2)
    blocked = frozenset(range(2 - capacity_left))
    ctx = RwaContext(n_segments=6, n_wavelengths=2, blocked=blocked)
    masks = route_masks(routes)
    for affected in ({0}, {0, 1, 2}):
        _assert_same(
            _pin_recolor(routes, masks, rounds, affected, ctx),
            pin_recolor_reference(routes, masks, rounds, affected, ctx),
        )
