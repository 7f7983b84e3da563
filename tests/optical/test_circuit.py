"""Circuit record and conflict-audit tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.plancache import PlanCache
from repro.check.intervals import Claim, find_conflicts
from repro.collectives.base import Transfer
from repro.collectives.registry import build_schedule
from repro.optical.circuit import (
    Circuit,
    CircuitConflictError,
    circuit_claims,
    circuit_conflicts,
    describe_conflict,
    validate_no_conflicts,
)
from repro.optical.config import OpticalSystemConfig
from repro.optical.network import OpticalRingNetwork
from repro.optical.topology import Direction, Route


def _circuit(src, dst, segments, direction=Direction.CW, fiber=0, lam=0):
    return Circuit(
        transfer=Transfer(src, dst, 0, 10),
        route=Route(direction, tuple(segments)),
        fiber=fiber,
        wavelength=lam,
        payload_bytes=40.0,
        duration=1e-6,
    )


class TestCircuit:
    def test_channel_key(self):
        c = _circuit(0, 2, [0, 1], fiber=1, lam=7)
        assert c.channel == ("cw", 1, 7)

    def test_validation(self):
        with pytest.raises(ValueError):
            _circuit(0, 2, [0], fiber=-1)
        with pytest.raises(ValueError):
            Circuit(
                transfer=Transfer(0, 1, 0, 10),
                route=Route(Direction.CW, (0,)),
                fiber=0, wavelength=0, payload_bytes=-1.0, duration=0.0,
            )


class TestValidateNoConflicts:
    def test_disjoint_segments_pass(self):
        validate_no_conflicts([_circuit(0, 2, [0, 1]), _circuit(2, 4, [2, 3])])

    def test_shared_segment_same_channel_fails(self):
        with pytest.raises(CircuitConflictError, match="share"):
            validate_no_conflicts([_circuit(0, 3, [0, 1, 2]), _circuit(1, 3, [1, 2])])

    def test_shared_segment_different_wavelength_passes(self):
        validate_no_conflicts(
            [_circuit(0, 3, [0, 1, 2], lam=0), _circuit(1, 3, [1, 2], lam=1)]
        )

    def test_shared_segment_different_direction_passes(self):
        validate_no_conflicts(
            [
                _circuit(0, 3, [0, 1, 2], direction=Direction.CW),
                _circuit(3, 1, [2, 1], direction=Direction.CCW),
            ]
        )

    def test_shared_segment_different_fiber_passes(self):
        validate_no_conflicts(
            [_circuit(0, 3, [0, 1, 2], fiber=0), _circuit(1, 3, [1, 2], fiber=1)]
        )


# Wavelengths the int64 key only just holds (2**40) or cannot hold (past
# the 2**62 span guard, or past int64): either path must agree.
_HUGE = st.sampled_from([2**40, 2**40 + 1, 2**61, 2**62, 2**63, 2**70])


@st.composite
def _rounds(draw):
    """A random round on a small ring, defects included.

    Routes are hand-built — any distinct segments in any order, so
    non-contiguous routes occur — on N <= 12 nodes with 1-3 fibers and
    wavelengths 0-4 in both directions. Each circuit is one of:
    ``fresh`` (its segments already taken on its channel dropped, so most
    rounds are clean or carry a single defect), ``any`` (as drawn),
    ``collide`` (an earlier circuit's channel and one of its segments),
    ``huge`` (2**40 up to past int64, so the key's span guard and overflow
    both trigger) or ``negative`` (a segment -1); the last two mostly
    force the fallback.
    """
    n = draw(st.integers(2, 12))
    fibers = draw(st.integers(1, 3))
    taken: dict[tuple, set[int]] = {}
    circuits = []
    for _ in range(draw(st.integers(0, 10))):
        segments = draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
        )
        direction = draw(st.sampled_from(list(Direction)))
        fiber = draw(st.integers(0, fibers - 1))
        lam = draw(st.integers(0, 4))
        kind = draw(st.sampled_from(["fresh"] * 3 + ["any", "collide", "huge", "negative"]))
        if kind == "fresh":
            used = taken.get((direction, fiber, lam), set())
            segments = [s for s in segments if s not in used]
            if not segments:
                continue
        elif kind == "collide" and circuits:
            other = draw(st.sampled_from(circuits))
            direction, fiber, lam = (
                other.route.direction, other.fiber, other.wavelength,
            )
            shared = draw(st.sampled_from(other.route.segments))
            if shared not in segments:
                segments[draw(st.integers(0, len(segments) - 1))] = shared
        elif kind == "huge":
            lam = draw(_HUGE)
        elif kind == "negative" and -1 not in segments:
            segments.append(-1)
        taken.setdefault((direction, fiber, lam), set()).update(segments)
        circuits.append(_circuit(0, 1, segments, direction, fiber, lam))
    return circuits


class TestConflictParity:
    """The sorted-key decision against the claim enumeration it skips."""

    @settings(max_examples=200, deadline=None)
    @given(_rounds(), st.booleans())
    def test_matches_claim_enumeration(self, circuits, first_only):
        expected = find_conflicts(circuit_claims(circuits), first_only=first_only)
        got = circuit_conflicts(circuits, first_only=first_only)
        assert got == expected
        assert [describe_conflict(c) for c in got] == [
            describe_conflict(c) for c in expected
        ]

    @settings(max_examples=100, deadline=None)
    @given(_rounds())
    def test_validator_raises_the_same_message(self, circuits):
        expected = find_conflicts(circuit_claims(circuits), first_only=True)
        if not expected:
            validate_no_conflicts(circuits)
            return
        with pytest.raises(CircuitConflictError) as info:
            validate_no_conflicts(circuits)
        assert str(info.value) == describe_conflict(expected[0])

    def test_fallback_inputs_still_report(self):
        # A wavelength beyond int64 and a negative segment skip the key;
        # the enumeration still finds their collisions.
        for lam, segment in ((2**63, 0), (0, -1)):
            pair = [_circuit(0, 1, [segment, 1], lam=lam), _circuit(2, 3, [segment], lam=lam)]
            (conflict,) = circuit_conflicts(pair)
            assert conflict.first.lo == segment

    def test_clean_wrht_round_builds_no_claims(self, monkeypatch):
        # Every round of a healthy N=64 WRHT lowering is validated without
        # materializing a single Claim.
        net = OpticalRingNetwork(
            OpticalSystemConfig(n_nodes=64, n_wavelengths=64), plan_cache=PlanCache()
        )
        steps = [step for step, _, _ in build_schedule("wrht", 64, 64_000).lowering_profile()]
        built = []
        original = Claim.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(Claim, "__init__", counting_init)
        rounds = [r for step in steps for r in net.plan_step_rounds(step, 4.0)]
        assert sum(len(r) for r in rounds) > 0
        assert len(built) == 0
