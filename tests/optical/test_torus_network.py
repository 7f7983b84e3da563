"""Optical torus/mesh substrate tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.torus import build_torus_wrht_schedule
from repro.optical.config import OpticalSystemConfig
from repro.optical.torus import TorusOpticalNetwork, TorusTopology


class TestTopology:
    def test_coords_roundtrip(self):
        t = TorusTopology(4, 6)
        for node in range(24):
            r, c = t.coords(node)
            assert t.node(r, c) == node

    def test_row_route_stays_in_row(self):
        t = TorusTopology(4, 8)
        route = t.route(t.node(2, 1), t.node(2, 5))
        assert route.hops == 4
        assert all(seg < t._col_base for seg in route.segments)

    def test_column_route_stays_in_column(self):
        t = TorusTopology(8, 4)
        route = t.route(t.node(1, 3), t.node(6, 3))
        assert route.hops == 3  # wraps: distance min(5, 3)
        assert all(seg >= t._col_base for seg in route.segments)

    def test_torus_wraps_shorter_way(self):
        t = TorusTopology(1, 8)
        assert t.route(0, 7).hops == 1

    def test_mesh_cannot_wrap(self):
        t = TorusTopology(1, 8, wraparound=False)
        assert t.route(0, 7).hops == 7

    def test_dimension_ordered_two_legs(self):
        t = TorusTopology(4, 4)
        route = t.route(t.node(0, 0), t.node(2, 2))
        row_legs = [s for s in route.segments if s < t._col_base]
        col_legs = [s for s in route.segments if s >= t._col_base]
        assert len(row_legs) == 2 and len(col_legs) == 2

    def test_opposite_directions_use_distinct_segments(self):
        t = TorusTopology(1, 6)
        forward = set(t.route(0, 2).segments)
        backward = set(t.route(2, 0).segments)
        assert not forward & backward

    def test_self_route_rejected(self):
        with pytest.raises(ValueError):
            TorusTopology(2, 2).route(1, 1)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 63), st.integers(0, 63))
    def test_route_length_bounded_property(self, rows, cols, a, b):
        t = TorusTopology(rows, cols)
        a, b = a % t.n_nodes, b % t.n_nodes
        if a == b:
            return
        route = t.route(a, b)
        assert 1 <= route.hops <= cols // 2 + rows // 2 + 2
        assert len(set(route.segments)) == route.hops


class TestTorusExecutor:
    def test_grid_must_match_config(self):
        cfg = OpticalSystemConfig(n_nodes=16, n_wavelengths=8)
        with pytest.raises(ValueError, match="grid"):
            TorusOpticalNetwork(cfg, 4, 5)

    def test_wrht_torus_fits_budget(self):
        cfg = OpticalSystemConfig(n_nodes=64, n_wavelengths=16)
        net = TorusOpticalNetwork(cfg, 8, 8)
        sched = build_torus_wrht_schedule(8, 8, 64_000, m=5, n_wavelengths=16)
        result = net.execute(sched)
        assert result.total_rounds == result.n_steps
        assert result.total_time > 0

    def test_scarcity_spills_rounds(self):
        cfg = OpticalSystemConfig(n_nodes=64, n_wavelengths=1)
        net = TorusOpticalNetwork(cfg, 8, 8)
        sched = build_torus_wrht_schedule(8, 8, 640, m=5, n_wavelengths=16)
        result = net.execute(sched)
        assert result.total_rounds > result.n_steps

    def test_per_step_time_matches_cost_model(self):
        cfg = OpticalSystemConfig(n_nodes=16, n_wavelengths=16)
        net = TorusOpticalNetwork(cfg, 4, 4)
        sched = build_torus_wrht_schedule(4, 4, 100_000, m=3, n_wavelengths=16)
        result = net.execute(sched)
        expected = result.n_steps * (
            cfg.cost_model().payload_time(400_000.0) + cfg.mrr_reconfig_delay
        )
        assert result.total_time == pytest.approx(expected, rel=1e-12)

    def test_mesh_and_torus_same_steps(self):
        cfg = OpticalSystemConfig(n_nodes=36, n_wavelengths=16)
        torus = TorusOpticalNetwork(cfg, 6, 6).execute(
            build_torus_wrht_schedule(6, 6, 3600, m=3, n_wavelengths=16)
        )
        mesh = TorusOpticalNetwork(cfg, 6, 6, wraparound=False).execute(
            build_torus_wrht_schedule(
                6, 6, 3600, m=3, n_wavelengths=16, topology="mesh"
            )
        )
        assert torus.n_steps == mesh.n_steps
        # The mesh's longer lines can only cost more rounds, never fewer.
        assert mesh.total_rounds >= torus.total_rounds

    def test_ring_schedule_priced_on_torus(self):
        # Any schedule works — e.g. the plain ring All-reduce mapped onto
        # row-major torus ids (neighbors mostly adjacent within rows).
        from repro.collectives.registry import build_schedule

        cfg = OpticalSystemConfig(n_nodes=16, n_wavelengths=4)
        net = TorusOpticalNetwork(cfg, 4, 4)
        result = net.execute(build_schedule("ring", 16, 160))
        assert result.n_steps == 30
        assert result.total_time > 0


class TestTorusDeadWavelengths:
    """Wavelengths a FaultSet kills are as unusable as failed_wavelengths."""

    @staticmethod
    def _planned(monkeypatch, cfg):
        import repro.optical.torus as torus_mod
        from repro.backend.plancache import PlanCache
        from repro.collectives.registry import build_schedule
        from repro.optical.rwa import plan_rounds as real

        calls = []

        def spy(*args, **kwargs):
            rounds = real(*args, **kwargs)
            calls.append((kwargs["blocked"], rounds))
            return rounds

        monkeypatch.setattr(torus_mod, "plan_rounds", spy)
        net = TorusOpticalNetwork(cfg, 4, 4, plan_cache=PlanCache(maxsize=0))
        result = net.execute(build_schedule("ring", 16, 160))
        return calls, result

    def test_dead_wavelength_never_assigned(self, monkeypatch):
        from repro.faults.models import DeadWavelength, FaultSet

        cfg = OpticalSystemConfig(
            n_nodes=16, n_wavelengths=4, faults=FaultSet.of(DeadWavelength(0))
        )
        calls, _ = self._planned(monkeypatch, cfg)
        assert calls
        for blocked, rounds in calls:
            assert blocked == frozenset({0})
            assert all(
                lam != 0 for assignment in rounds for _, lam in assignment.values()
            )

    def test_failed_wavelengths_path_unchanged(self, monkeypatch):
        from repro.faults.models import DeadWavelength, FaultSet

        failed, failed_result = self._planned(
            monkeypatch,
            OpticalSystemConfig(n_nodes=16, n_wavelengths=4, failed_wavelengths={0}),
        )
        dead, dead_result = self._planned(
            monkeypatch,
            OpticalSystemConfig(
                n_nodes=16, n_wavelengths=4, faults=FaultSet.of(DeadWavelength(0))
            ),
        )
        assert [b for b, _ in failed] == [frozenset({0})] * len(failed)
        assert [r for _, r in failed] == [r for _, r in dead]
        assert failed_result.total_time == dead_result.total_time
