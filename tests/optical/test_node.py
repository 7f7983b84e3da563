"""TeraRack node constraint tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.optical.node as node_mod
from repro.backend.plancache import PlanCache
from repro.collectives.base import Transfer
from repro.collectives.registry import build_schedule
from repro.optical.config import OpticalSystemConfig
from repro.optical.network import OpticalRingNetwork
from repro.optical.node import (
    NodeConstraintError,
    TeraRackNode,
    node_violations,
    validate_node_constraints,
)
from repro.optical.topology import Direction, Route


def _assignment(src, dst, direction, fiber, lam, segments=(0,)):
    return (Transfer(src, dst, 0, 10), Route(direction, tuple(segments)), fiber, lam)


class TestTeraRackNode:
    def test_defaults_match_terarack(self):
        node = TeraRackNode(0)
        assert node.n_interfaces == 4
        assert node.mrrs_per_interface == 64
        assert node.tx_sets == node.rx_sets == 2
        assert node.max_concurrent_wavelengths == 64

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError):
            TeraRackNode(-1)


class TestNodeConstraints:
    def test_duplicate_tx_wavelength_same_direction_fails(self):
        rows = [
            _assignment(0, 1, Direction.CW, 0, 5, (0,)),
            _assignment(0, 2, Direction.CW, 0, 5, (0, 1)),
        ]
        with pytest.raises(NodeConstraintError, match="transmits twice"):
            validate_node_constraints(rows)

    def test_same_wavelength_opposite_directions_ok(self):
        # The paper's key hardware fact: two Tx sets, one per direction.
        rows = [
            _assignment(5, 6, Direction.CW, 0, 3, (5,)),
            _assignment(5, 4, Direction.CCW, 0, 3, (4,)),
        ]
        validate_node_constraints(rows)

    def test_duplicate_rx_wavelength_fails(self):
        rows = [
            _assignment(1, 0, Direction.CCW, 0, 2, (0,)),
            _assignment(2, 0, Direction.CCW, 0, 2, (1, 0)),
        ]
        with pytest.raises(NodeConstraintError, match="receives twice"):
            validate_node_constraints(rows)

    def test_mrr_budget_exceeded(self):
        rows = [
            _assignment(0, 1, Direction.CW, 0, lam, (0,))
            for lam in range(3)
        ]
        with pytest.raises(NodeConstraintError, match="MRRs"):
            validate_node_constraints(rows, mrrs_per_interface=2)

    def test_distinct_wavelengths_pass(self):
        rows = [
            _assignment(0, 1, Direction.CW, 0, lam, (0,)) for lam in range(8)
        ]
        validate_node_constraints(rows)


def _node_violations_reference(assignments, mrrs_per_interface=64):
    """The per-port dictionary loop ``node_violations`` runs on every round
    its sorted-key test cannot prove clean, kept here as the parity oracle."""
    violations = []
    tx_channels = {}
    rx_channels = {}
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


@st.composite
def _assignments(draw):
    """A random round of (transfer, route, fiber, wavelength) rows.

    N <= 12 nodes, 1-3 fibers, wavelengths 0-4, both directions, routes
    hand-built from any distinct segments. Each row is one of: ``fresh``
    (dropped if its sender or receiver already uses its direction, fiber
    and wavelength, so most rounds are clean or carry a single defect),
    ``any`` (as drawn), ``collide`` (an earlier row's sender or receiver
    with its direction, fiber and wavelength), ``huge`` (2**40 up to past
    int64, so the key's span guard and overflow both trigger) or
    ``negative`` (wavelength -1); the last two mostly force the fallback.
    """
    n = draw(st.integers(2, 12))
    fibers = draw(st.integers(1, 3))
    taken = set()
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        src, dst = draw(
            st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
        )
        direction = draw(st.sampled_from(list(Direction)))
        fiber = draw(st.integers(0, fibers - 1))
        lam = draw(st.integers(0, 4))
        kind = draw(st.sampled_from(["fresh"] * 3 + ["any", "collide", "huge", "negative"]))
        if kind == "fresh":
            if {("tx", src, direction, fiber, lam), ("rx", dst, direction, fiber, lam)} & taken:
                continue
        elif kind == "collide" and rows:
            other, other_route, fiber, lam = draw(st.sampled_from(rows))
            direction = other_route.direction
            if draw(st.booleans()):
                src = other.src
            else:
                dst = other.dst
            if src == dst:
                dst = (src + 1) % n
        elif kind == "huge":
            lam = draw(st.sampled_from([2**40, 2**61, 2**63, 2**70]))
        elif kind == "negative":
            lam = -1
        taken |= {("tx", src, direction, fiber, lam), ("rx", dst, direction, fiber, lam)}
        segments = draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
        )
        rows.append((Transfer(src, dst, 0, 10), Route(direction, tuple(segments)), fiber, lam))
    return rows


class TestViolationParity:
    """The sorted-key decision against the dictionary loop it skips."""

    @settings(max_examples=200, deadline=None)
    @given(_assignments(), st.integers(0, 6))
    def test_matches_reference_loop(self, rows, mrrs):
        assert node_violations(rows, mrrs_per_interface=mrrs) == (
            _node_violations_reference(rows, mrrs_per_interface=mrrs)
        )

    @settings(max_examples=100, deadline=None)
    @given(_assignments(), st.integers(1, 5))
    def test_validator_raises_the_same_message(self, rows, mrrs):
        expected = _node_violations_reference(rows, mrrs_per_interface=mrrs)
        if not expected:
            validate_node_constraints(rows, mrrs_per_interface=mrrs)
            return
        with pytest.raises(NodeConstraintError) as info:
            validate_node_constraints(rows, mrrs_per_interface=mrrs)
        assert str(info.value) == expected[0]

    def test_port_over_budget_without_repeats(self):
        # Distinct wavelengths only: the budget alone must flag the port.
        rows = [
            _assignment(0, dst, Direction.CW, 0, lam, (0,))
            for dst, lam in ((1, 0), (2, 1), (3, 2))
        ]
        assert node_violations(rows, mrrs_per_interface=2) == [
            "node 0 drives 3 transmit wavelengths (cw, fiber 0) but has only 2 MRRs"
        ]

    def test_clean_wrht_round_skips_the_loop(self, monkeypatch):
        # Every round of a healthy N=64 WRHT lowering is proven clean by the
        # sorted keys; the per-port loop never runs.
        net = OpticalRingNetwork(
            OpticalSystemConfig(n_nodes=64, n_wavelengths=64), plan_cache=PlanCache()
        )
        steps = [step for step, _, _ in build_schedule("wrht", 64, 64_000).lowering_profile()]
        looped = []

        def loop_called(*args):
            looped.append(args)
            return []

        monkeypatch.setattr(node_mod, "_enumerate_violations", loop_called)
        rounds = [r for step in steps for r in net.plan_step_rounds(step, 4.0)]
        assert sum(len(r) for r in rounds) > 0
        assert looped == []
