"""Analytical cost model tests (Eq 6 and baselines)."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.steps import bt_steps, hring_steps, rd_steps, ring_steps, wrht_steps
from repro.core.timing import (
    CLOSED_FORM_ALGORITHMS,
    CostModel,
    algorithm_time,
    bt_time,
    hring_time,
    rd_time,
    ring_time,
    wrht_time,
)

# Table 2 calibrated parameters: 40 GB/s per wavelength, 25 µs per step.
MODEL = CostModel(line_rate=40e9, step_overhead=25e-6)


class TestCostModel:
    def test_payload_time_pure_bandwidth(self):
        m = CostModel(line_rate=100.0, step_overhead=0.0)
        assert m.payload_time(250.0) == 2.5

    def test_oeo_term_per_packet(self):
        m = CostModel(
            line_rate=1e12, step_overhead=0.0,
            oeo_delay_per_packet=1e-9, packet_bytes=72,
        )
        # 144 bytes = 2 packets.
        assert m.payload_time(144.0) == pytest.approx(144 / 1e12 + 2e-9)

    def test_step_time_adds_overhead(self):
        assert MODEL.step_time(0.0) == 25e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            CostModel(line_rate=0.0, step_overhead=1.0)
        with pytest.raises(ValueError):
            CostModel(line_rate=1.0, step_overhead=-1.0)
        with pytest.raises(ValueError):
            MODEL.payload_time(-1.0)


class TestEquationSix:
    """T = d·θ/B + a·θ for the constant-payload algorithms."""

    def test_wrht_matches_eq6(self):
        n, m, w, d = 1024, 129, 64, 100e6
        theta = wrht_steps(n, m, w)
        assert wrht_time(n, d, MODEL, m, w) == pytest.approx(
            theta * (d / 40e9 + 25e-6)
        )

    def test_bt_full_payload_per_step(self):
        n, d = 1024, 552e6
        assert bt_time(n, d, MODEL) == pytest.approx(bt_steps(n) * (d / 40e9 + 25e-6))

    def test_rd_full_payload_per_step(self):
        n, d = 256, 1e6
        assert rd_time(n, d, MODEL) == pytest.approx(rd_steps(n) * (d / 40e9 + 25e-6))

    def test_ring_chunked_payload(self):
        n, d = 1024, 1024e6
        assert ring_time(n, d, MODEL) == pytest.approx(
            ring_steps(n) * (d / n / 40e9 + 25e-6)
        )

    def test_single_node_costs_nothing(self):
        assert ring_time(1, 1e6, MODEL) == 0.0
        assert wrht_time(1, 1e6, MODEL, m=5, w=4) == 0.0


class TestHRingTime:
    def test_overhead_matches_closed_form_step_count(self):
        n, m, w = 1024, 5, 64
        # With d -> 0 only the per-step overhead remains.
        t = hring_time(n, 1e-9, MODEL, m, w)
        assert t == pytest.approx(hring_steps(n, m, w) * 25e-6, rel=1e-6)

    def test_payload_decomposition_smaller_than_bt(self):
        # H-Ring chunks its payloads; BT sends full d — H-Ring must win on
        # pure bandwidth for large d.
        n, d = 1024, 1e9
        free = CostModel(line_rate=40e9, step_overhead=0.0)
        assert hring_time(n, d, free, 5, 64) < bt_time(n, d, free)

    def test_wavelength_scarcity_costs_time(self):
        n, d = 1024, 100e6
        assert hring_time(n, d, MODEL, 5, 4) > hring_time(n, d, MODEL, 5, 64)


class TestPaperShapeClaims:
    """Qualitative claims from Sec 5.4–5.5, checked analytically."""

    def test_wrht_flat_in_n_at_fixed_w(self):
        # Fig 6: WRHT communication time nearly constant from 1024 to 4096.
        d = 100e6
        times = [algorithm_time("WRHT", n, d, MODEL, w=64) for n in (1024, 2048, 4096)]
        assert max(times) / min(times) < 1.5

    def test_ring_linear_rise_in_n(self):
        d = 100e6
        t1 = algorithm_time("Ring", 1024, d, MODEL)
        t4 = algorithm_time("Ring", 4096, d, MODEL)
        assert t4 > 1.8 * t1  # latency-dominated linear growth

    def test_bt_worst_for_large_models(self):
        # Fig 6: BT worst for BEiT/VGG16 at any node count.
        d_beit = 307e6 * 4
        for n in (1024, 4096):
            bt = algorithm_time("BT", n, d_beit, MODEL)
            for other in ("Ring", "H-Ring", "WRHT"):
                assert bt > algorithm_time(other, n, d_beit, MODEL, w=64)

    def test_bt_competitive_for_resnet(self):
        # ...but BT beats Ring on the small ResNet50 gradient at 1024 nodes.
        d_resnet = 25e6 * 4
        assert algorithm_time("BT", 1024, d_resnet, MODEL) < algorithm_time(
            "Ring", 1024, d_resnet, MODEL
        )

    def test_wrht_loses_at_tiny_wavelength_budget_on_large_model(self):
        # Fig 5(b): at w=4, Ring beats WRHT for BEiT/VGG16.
        d_vgg = 138e6 * 4
        wrht = algorithm_time("WRHT", 1024, d_vgg, MODEL, w=4, wrht_m=9)
        ring = algorithm_time("Ring", 1024, d_vgg, MODEL)
        assert wrht > ring

    def test_wrht_wins_at_w64_on_all_workloads(self):
        for d in (307e6 * 4, 138e6 * 4, 62.3e6 * 4, 25e6 * 4):
            wrht = algorithm_time("WRHT", 1024, d, MODEL, w=64)
            for other in ("Ring", "H-Ring", "BT"):
                assert wrht < algorithm_time(other, 1024, d, MODEL, w=64), (d, other)


class TestDispatch:
    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            algorithm_time("Nope", 4, 1.0, MODEL)

    @given(st.integers(2, 2048), st.floats(1.0, 1e10))
    def test_all_algorithms_positive(self, n, d):
        for name in ("Ring", "BT", "RD", "WRHT"):
            assert algorithm_time(name, n, d, MODEL, w=64) > 0


class TestClosedFormAlgorithms:
    """One tuple names the algorithms with a closed form."""

    @pytest.mark.parametrize("name", CLOSED_FORM_ALGORITHMS)
    def test_every_listed_name_prices(self, name):
        assert algorithm_time(name, 16, 1e6, MODEL, w=8) > 0

    def test_every_other_display_name_rejected(self):
        from repro.collectives.registry import DISPLAY_NAMES

        others = sorted(set(DISPLAY_NAMES.values()) - set(CLOSED_FORM_ALGORITHMS))
        assert "DBTree" in others
        for name in others:
            with pytest.raises(ValueError, match="unknown algorithm"):
                algorithm_time(name, 16, 1e6, MODEL, w=8)

    def test_service_and_analytic_backend_share_it(self):
        from repro.service.api import ALGORITHMS

        assert ALGORITHMS is CLOSED_FORM_ALGORITHMS
