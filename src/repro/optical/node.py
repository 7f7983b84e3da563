"""TeraRack node structure and per-round transceiver constraints (Fig 1a).

A TeraRack node carries four optical interfaces, each with an array of 64
micro-ring resonators, organized as one transmit and one receive set per
ring direction. The constraints this imposes on a single communication
round are:

- all of a node's concurrent transmissions **in one direction** must use
  distinct wavelengths (one MRR modulates one wavelength), and likewise for
  receptions;
- a node may transmit and receive simultaneously in both directions (the
  "two sets of transmitters and receivers" the paper relies on for the
  two-sided group collect).

Segment-exclusive wavelength assignment already implies these constraints
(same-direction transmissions from one node share the node's adjacent
segment), but :func:`validate_node_constraints` checks them independently —
it is the test suite's cross-check that the RWA is not quietly violating
hardware limits.

A clean round is decided without the per-port dictionaries.
:func:`node_violations` encodes each circuit's transmit and receive use as
one int64 key ``((node·2 + ccw)·F + fiber)·L + λ`` (``F``, ``L`` = max
fiber, max λ + 1) and sorts each side. The round is clean iff no key
repeats on either side and no (node, direction, fiber) port — a run of
equal ``key // L`` in the sorted keys — is longer than
``mrrs_per_interface``: with no repeated wavelength, a port's run length
is the number of distinct wavelengths the loop counts. Only a round that
fails this test, or whose ids the key cannot hold exactly (negative,
non-integer, span product ≥ 2**62), runs the loop, so messages and their
order are unchanged.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.collectives.base import Transfer
from repro.optical.circuit import exact_int64
from repro.optical.topology import Direction, Route
from repro.util.validation import check_positive_int


@dataclass(frozen=True)
class TeraRackNode:
    """Static description of one node's optical hardware.

    Attributes:
        node_id: Ring position.
        n_interfaces: Optical interfaces (4 on TeraRack).
        mrrs_per_interface: Micro-ring resonators per interface (64).
        tx_sets: Independent transmit sets (one per direction).
        rx_sets: Independent receive sets (one per direction).
    """

    node_id: int
    n_interfaces: int = 4
    mrrs_per_interface: int = 64
    tx_sets: int = 2
    rx_sets: int = 2

    def __post_init__(self) -> None:
        if self.node_id < 0:
            raise ValueError(f"node_id must be >= 0, got {self.node_id!r}")
        check_positive_int("n_interfaces", self.n_interfaces)
        check_positive_int("mrrs_per_interface", self.mrrs_per_interface)
        check_positive_int("tx_sets", self.tx_sets)
        check_positive_int("rx_sets", self.rx_sets)

    @property
    def max_concurrent_wavelengths(self) -> int:
        """Wavelengths one Tx/Rx set can drive at once (one per MRR)."""
        return self.mrrs_per_interface


class NodeConstraintError(ValueError):
    """A round violates a node's transceiver limits."""


def node_violations(
    assignments: list[tuple[Transfer, Route, int, int]],
    mrrs_per_interface: int = 64,
) -> list[str]:
    """One round's node-hardware violations as messages (empty = clean).

    The shared implementation behind :func:`validate_node_constraints`
    (raising runtime check) and the PLAN002 port-budget rule in
    :mod:`repro.check.plan_rules`.

    Args:
        assignments: ``(transfer, route, fiber, wavelength)`` per circuit.
        mrrs_per_interface: Wavelength capacity of one Tx/Rx set.
    """
    if not assignments or _ports_within_budget(assignments, mrrs_per_interface):
        return []
    return _enumerate_violations(assignments, mrrs_per_interface)


def _enumerate_violations(
    assignments: list[tuple[Transfer, Route, int, int]], mrrs_per_interface: int
) -> list[str]:
    """Every violation, in per-circuit then per-port order (the slow path)."""
    violations: list[str] = []
    tx_channels: dict[tuple[int, str, int], set[int]] = {}
    rx_channels: dict[tuple[int, str, int], set[int]] = {}
    for transfer, route, fiber, wavelength in assignments:
        tx_key = (transfer.src, route.direction.value, fiber)
        rx_key = (transfer.dst, route.direction.value, fiber)
        tx_used = tx_channels.setdefault(tx_key, set())
        if wavelength in tx_used:
            violations.append(
                f"node {transfer.src} transmits twice on wavelength "
                f"{wavelength} ({route.direction.value}, fiber {fiber})"
            )
        tx_used.add(wavelength)
        rx_used = rx_channels.setdefault(rx_key, set())
        if wavelength in rx_used:
            violations.append(
                f"node {transfer.dst} receives twice on wavelength "
                f"{wavelength} ({route.direction.value}, fiber {fiber})"
            )
        rx_used.add(wavelength)
    for label, table in (("transmit", tx_channels), ("receive", rx_channels)):
        for (node, direction, fiber), used in table.items():
            if len(used) > mrrs_per_interface:
                violations.append(
                    f"node {node} drives {len(used)} {label} wavelengths "
                    f"({direction}, fiber {fiber}) but has only "
                    f"{mrrs_per_interface} MRRs"
                )
    return violations


def _ports_within_budget(
    assignments: list[tuple[Transfer, Route, int, int]], mrrs_per_interface: int
) -> bool:
    """True iff :func:`node_violations` would find nothing (see module doc).

    ``False`` means "not proven": a violation, or ids the int64 key cannot
    hold exactly.
    """
    try:
        src = exact_int64([t.src for t, _, _, _ in assignments])
        dst = exact_int64([t.dst for t, _, _, _ in assignments])
        ccw = exact_int64([r.direction is Direction.CCW for _, r, _, _ in assignments])
        fiber = exact_int64([f for _, _, f, _ in assignments])
        wavelength = exact_int64([w for _, _, _, w in assignments])
    except struct.error:
        return False
    if min(src.min(), dst.min(), fiber.min(), wavelength.min()) < 0:
        return False
    n_fiber = int(fiber.max()) + 1
    n_lambda = int(wavelength.max()) + 1
    n_node = max(int(src.max()), int(dst.max())) + 1
    if 2 * n_node * n_fiber * n_lambda >= 1 << 62:
        return False
    for node in (src, dst):
        keys = np.sort(((node * 2 + ccw) * n_fiber + fiber) * n_lambda + wavelength)
        if np.any(keys[1:] == keys[:-1]):
            return False
        ports = keys // n_lambda
        edges = np.flatnonzero(ports[1:] != ports[:-1]) + 1
        runs = np.diff(edges, prepend=0, append=len(ports))
        if runs.max() > mrrs_per_interface:
            return False
    return True


def validate_node_constraints(
    assignments: list[tuple[Transfer, Route, int, int]],
    mrrs_per_interface: int = 64,
) -> None:
    """Check one round's channel assignments against node hardware limits.

    Thin raising wrapper over :func:`node_violations`.

    Raises:
        NodeConstraintError: on duplicate wavelengths per (node, direction,
            fiber, role) or on exceeding the MRR count.
    """
    violations = node_violations(assignments, mrrs_per_interface=mrrs_per_interface)
    if violations:
        raise NodeConstraintError(violations[0])
