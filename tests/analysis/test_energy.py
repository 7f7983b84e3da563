"""Energy model tests."""

import pytest

from repro.analysis.energy import (
    ElectricalEnergyModel,
    EnergyBreakdown,
    OpticalEnergyModel,
    electrical_allreduce_energy,
    optical_allreduce_energy,
)
from repro.backend.errors import BackendConfigError
from repro.collectives.registry import build_schedule
from repro.electrical.config import ElectricalSystemConfig
from repro.faults import DroppedNode, apply_faults
from repro.optical.config import OpticalSystemConfig


class TestBreakdown:
    def test_total_and_pj_per_bit(self):
        b = EnergyBreakdown({"a": 1.0, "b": 2.0}, payload_bits=3e12)
        assert b.total == 3.0
        assert b.pj_per_bit == pytest.approx(1.0)

    def test_zero_payload(self):
        assert EnergyBreakdown({}, 0).pj_per_bit == float("inf")

    def test_model_validation(self):
        with pytest.raises(ValueError):
            OpticalEnergyModel(laser_wall_power_w=0)
        with pytest.raises(ValueError):
            ElectricalEnergyModel(switch_energy_per_bit=-1)


class TestOpticalEnergy:
    def test_components_present(self):
        cfg = OpticalSystemConfig(n_nodes=32, n_wavelengths=8)
        sched = build_schedule("wrht", 32, 32_000, n_wavelengths=8)
        energy = optical_allreduce_energy(sched, cfg)
        assert set(energy.components) == {"laser", "mrr_tuning", "oeo", "reconfig"}
        assert energy.total > 0

    def test_energy_scales_with_payload(self):
        cfg = OpticalSystemConfig(n_nodes=16, n_wavelengths=8)
        small = optical_allreduce_energy(
            build_schedule("bt", 16, 10_000), cfg
        )
        large = optical_allreduce_energy(
            build_schedule("bt", 16, 1_000_000), cfg
        )
        assert large.total > 10 * small.total

    def test_payload_bits_accounting(self):
        cfg = OpticalSystemConfig(n_nodes=8, n_wavelengths=8)
        sched = build_schedule("bt", 8, 100)
        energy = optical_allreduce_energy(sched, cfg, bytes_per_elem=4.0)
        assert energy.payload_bits == 14 * 400 * 8  # see bt byte tests

    def test_dead_node_transfer_rejected(self):
        # Energy prices only what the optical backend would run: a transfer
        # into a dropped node is a config error, not a silently priced one.
        cfg = apply_faults(OpticalSystemConfig(n_nodes=16, n_wavelengths=8), DroppedNode(3))
        with pytest.raises(BackendConfigError, match="dropped node"):
            optical_allreduce_energy(build_schedule("ring", 16, 1600), cfg)


class TestElectricalEnergy:
    def test_components_present(self):
        cfg = ElectricalSystemConfig(n_nodes=32)
        sched = build_schedule("ring", 32, 3200)
        energy = electrical_allreduce_energy(sched, cfg)
        assert set(energy.components) == {"switching", "nic"}
        assert energy.total > 0

    def test_cross_edge_costs_more_switching(self):
        cfg = ElectricalSystemConfig(n_nodes=32)
        intra = build_schedule("ring", 16, 1600)  # all hosts on one edge
        inter = build_schedule("rd", 32, 800)  # crosses the core
        e_intra = electrical_allreduce_energy(intra, cfg)
        e_inter = electrical_allreduce_energy(inter, cfg)
        # Per bit, core crossings pay 3 router traversals vs 1.
        assert e_inter.components["switching"] / e_inter.payload_bits > (
            e_intra.components["switching"] / e_intra.payload_bits
        )


class TestPaperClaim:
    def test_optical_cheaper_per_bit_at_scale(self):
        """Sec 1: optical interconnects consume less power — per payload
        bit, the optical ring undercuts the electrical fat-tree for the
        same All-reduce at the paper's scale."""
        n, elems = 128, 1_000_000
        sched = build_schedule("ring", n, elems, materialize=False)
        optical = optical_allreduce_energy(
            sched, OpticalSystemConfig(n_nodes=n, n_wavelengths=64)
        )
        electrical = electrical_allreduce_energy(
            sched, ElectricalSystemConfig(n_nodes=n)
        )
        assert optical.pj_per_bit < electrical.pj_per_bit

    def test_wrht_energy_competitive_with_ring_optical(self):
        # WRHT moves θ·d total vs Ring's ~2d, so it pays more payload
        # energy — but far less reconfiguration energy. At the small-model
        # scale, totals stay within an order of magnitude.
        n = 128
        cfg = OpticalSystemConfig(n_nodes=n, n_wavelengths=64)
        ring = optical_allreduce_energy(
            build_schedule("ring", n, 100_000, materialize=False), cfg
        )
        wrht = optical_allreduce_energy(
            build_schedule("wrht", n, 100_000, n_wavelengths=64, materialize=False),
            cfg,
        )
        assert wrht.components["reconfig"] < ring.components["reconfig"]
        assert wrht.total < 10 * ring.total
