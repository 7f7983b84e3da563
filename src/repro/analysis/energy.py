"""Energy per All-reduce on the two substrates.

The paper motivates optical interconnects partly by power (Sec 1); this
module makes the comparison concrete with representative silicon-photonics
and datacenter-switch numbers (all overridable):

**Optical** (circuit-switched WDM): while a circuit is up, its wall power
is the comb-laser line (≈50 mW wall per wavelength at typical wall-plug
efficiency) plus thermal tuning of the Tx/Rx micro-rings (≈20 mW per
endpoint pair); data pays an O/E/O serialization energy (≈2 pJ/bit); each
reconfiguration round costs a control-plane transient.

**Electrical** (packet-switched fat-tree): the canonical per-bit
accounting — every router traversal costs switching energy (≈12 pJ/bit),
and each end host NIC costs serdes energy (≈5 pJ/bit per side).

Both models price a *schedule* through the substrates' own backend
``lower()`` stage (:mod:`repro.backend`), so the energy numbers come from
the very same lowered plans — routes, RWA rounds, fluid flows — that the
timing numbers do, and the two can never disagree.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.collectives.base import Schedule
from repro.electrical.config import ElectricalSystemConfig
from repro.electrical.network import ElectricalNetwork
from repro.optical.config import OpticalSystemConfig
from repro.optical.network import OpticalRingNetwork
from repro.util.validation import check_positive


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy of one collective, by component.

    Attributes:
        components: ``name -> joules``.
        payload_bits: Bits moved (for energy-per-bit reporting).
    """

    components: dict[str, float]
    payload_bits: float

    @property
    def total(self) -> float:
        """Total joules."""
        return sum(self.components.values())

    @property
    def pj_per_bit(self) -> float:
        """Picojoules per payload bit (∞ if no payload)."""
        if self.payload_bits == 0:
            return float("inf")
        return self.total / self.payload_bits * 1e12


@dataclass(frozen=True)
class OpticalEnergyModel:
    """Optical substrate energy parameters.

    Attributes:
        laser_wall_power_w: Wall power per active wavelength circuit.
        tuning_power_w: MRR thermal tuning per circuit (Tx + Rx rings).
        oeo_energy_per_bit: Serialization/deserialization energy.
        reconfig_energy_j: Control-plane energy per reconfiguration round.
    """

    laser_wall_power_w: float = 0.050
    tuning_power_w: float = 0.020
    oeo_energy_per_bit: float = 2.0e-12
    reconfig_energy_j: float = 1.0e-6

    def __post_init__(self) -> None:
        for name in (
            "laser_wall_power_w", "tuning_power_w",
            "oeo_energy_per_bit", "reconfig_energy_j",
        ):
            check_positive(name, getattr(self, name))


@dataclass(frozen=True)
class ElectricalEnergyModel:
    """Electrical substrate energy parameters.

    Attributes:
        switch_energy_per_bit: Per router traversal.
        nic_energy_per_bit: Per end-host NIC (charged twice per transfer).
    """

    switch_energy_per_bit: float = 12.0e-12
    nic_energy_per_bit: float = 5.0e-12

    def __post_init__(self) -> None:
        check_positive("switch_energy_per_bit", self.switch_energy_per_bit)
        check_positive("nic_energy_per_bit", self.nic_energy_per_bit)


def optical_allreduce_energy(
    schedule: Schedule,
    config: OpticalSystemConfig,
    model: OpticalEnergyModel | None = None,
    bytes_per_elem: float = 4.0,
) -> EnergyBreakdown:
    """Energy to run ``schedule`` on the optical ring.

    Active-power terms integrate over each circuit's actual duration as
    computed by the step-timing executor (every circuit of a round burns
    laser + tuning power for the round's payload time).
    """
    model = model or OpticalEnergyModel()
    net = OpticalRingNetwork(config)
    plan = net.lower(schedule, bytes_per_elem)
    active_seconds = 0.0  # Σ over circuits of their duration
    rounds = 0
    payload_bytes = 0.0
    for entry in plan.entries:
        rounds += len(entry.payload) * entry.count
        for rnd in entry.payload:
            # Circuits stay configured for the whole round.
            active_seconds += rnd.max_payload_s * rnd.n_circuits * entry.count
            payload_bytes += rnd.payload_bytes * entry.count
    bits = payload_bytes * 8
    components = {
        "laser": active_seconds * model.laser_wall_power_w,
        "mrr_tuning": active_seconds * model.tuning_power_w,
        "oeo": bits * model.oeo_energy_per_bit,
        "reconfig": rounds * model.reconfig_energy_j,
    }
    return EnergyBreakdown(components=components, payload_bits=bits)


def electrical_allreduce_energy(
    schedule: Schedule,
    config: ElectricalSystemConfig,
    model: ElectricalEnergyModel | None = None,
    bytes_per_elem: float = 4.0,
) -> EnergyBreakdown:
    """Energy to run ``schedule`` on the electrical fat-tree."""
    model = model or ElectricalEnergyModel()
    net = ElectricalNetwork(config)
    plan = net.lower(schedule, bytes_per_elem)
    switch_bits = 0.0
    nic_bits = 0.0
    payload_bits = 0.0
    for entry in plan.entries:
        for n_routers, size in entry.payload.flows:
            bits = size * 8 * entry.count
            if bits == 0:
                continue
            payload_bits += bits
            switch_bits += bits * n_routers
            nic_bits += bits * 2  # sending and receiving host
    components = {
        "switching": switch_bits * model.switch_energy_per_bit,
        "nic": nic_bits * model.nic_energy_per_bit,
    }
    return EnergyBreakdown(components=components, payload_bits=payload_bits)
