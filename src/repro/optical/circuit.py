"""Established optical circuits and exclusivity validation.

The executor turns each (transfer, route, channel) triple of a round into a
:class:`Circuit` record. Circuits are the unit the test suite audits: within
one round, no two circuits on the same (direction, fiber, wavelength) may
share a segment — the defining property of circuit-switched WDM.

Conflict detection is the segment×direction×wavelength interval analysis of
:mod:`repro.check.intervals` (each crossed segment is a unit interval on
the circuit's channel resource); :func:`validate_no_conflicts` is the thin
raising wrapper the executors call, and the plan verifier consumes the same
:func:`circuit_conflicts` as findings.

A clean round never reaches the interval engine. :func:`circuit_conflicts`
first encodes every (circuit, crossed segment) pair as one int64 key,
``((fiber·2 + ccw)·L + λ)·S + segment`` with ``L`` = max λ + 1 and ``S`` =
max segment + 1, sorts the keys and returns ``[]`` when no two neighbours
are equal. The decision is exact: claims are unit intervals ``[s, s+1)``
on integer segments and circuits are never combinable, so the engine
reports a pair iff two claims share (channel, segment), and a
:class:`~repro.optical.topology.Route` never revisits a segment. The key is
injective over non-negative ids whose span product stays below 2**62.
Anything else — a repeated key, a negative or non-integer id, a larger
span — runs the unchanged claim enumeration, so a defective round's
conflicts, their order and ``first_only`` behave exactly as before.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.check.intervals import Claim, Conflict, find_conflicts
from repro.collectives.base import Transfer
from repro.optical.topology import Direction, Route


class CircuitConflictError(ValueError):
    """Two circuits of one round collide on a WDM channel segment."""


@dataclass(frozen=True)
class Circuit:
    """One established lightpath within a round.

    Attributes:
        transfer: The logical transfer carried.
        route: Direction and crossed segments.
        fiber: Fiber index within the direction's pool.
        wavelength: Wavelength index on that fiber.
        payload_bytes: Bytes carried (elements × bytes/element).
        duration: Seconds of serialization + O/E/O for the payload.
    """

    transfer: Transfer
    route: Route
    fiber: int
    wavelength: int
    payload_bytes: float
    duration: float

    def __post_init__(self) -> None:
        if self.fiber < 0 or self.wavelength < 0:
            raise ValueError("fiber and wavelength must be >= 0")
        if self.payload_bytes < 0 or self.duration < 0:
            raise ValueError("payload and duration must be >= 0")

    @property
    def channel(self) -> tuple[str, int, int]:
        """The WDM channel key: (direction, fiber, wavelength)."""
        return (self.route.direction.value, self.fiber, self.wavelength)


def circuit_claims(circuits: list[Circuit]) -> list[Claim]:
    """One exclusive unit-interval claim per crossed segment per circuit.

    The claim resource is the WDM channel ``(direction, fiber,
    wavelength)``; segment ``s`` becomes the unit interval ``[s, s+1)``.
    Circuits are never combinable — any overlap is a conflict.
    """
    return [
        Claim(
            resource=circuit.channel,
            lo=segment,
            hi=segment + 1,
            owner=circuit,
            combinable=False,
        )
        for circuit in circuits
        for segment in circuit.route.segments
    ]


def circuit_conflicts(
    circuits: list[Circuit], first_only: bool = False
) -> list[Conflict]:
    """Segment-exclusivity conflicts among one round's circuits.

    The shared implementation behind :func:`validate_no_conflicts` (raises)
    and the plan verifier's wavelength-conflict rule (reports findings).
    Claims are enumerated only when the sorted-key test cannot prove the
    round clean (see the module docstring).
    """
    if not circuits or _keys_distinct(circuits):
        return []
    return find_conflicts(circuit_claims(circuits), first_only=first_only)


def exact_int64(values: list) -> np.ndarray:
    """``values`` as an int64 array, exactly.

    Raises:
        struct.error: on a non-integer (``struct`` takes ``__index__``
            only, so ``0.5`` is refused rather than truncated) or a value
            outside int64.
    """
    return np.frombuffer(struct.pack(f"{len(values)}q", *values), dtype=np.int64)


def _keys_distinct(circuits: list[Circuit]) -> bool:
    """True iff no two circuits share a segment on one WDM channel.

    ``False`` means "not proven": a real conflict, or ids the int64 key
    cannot hold exactly.
    """
    routes = [c.route for c in circuits]
    try:
        segments = exact_int64(list(chain.from_iterable([r.segments for r in routes])))
        fiber = exact_int64([c.fiber for c in circuits])
        wavelength = exact_int64([c.wavelength for c in circuits])
        ccw = exact_int64([r.direction is Direction.CCW for r in routes])
        hops = exact_int64([len(r.segments) for r in routes])
    except struct.error:
        return False
    if segments.min() < 0 or fiber.min() < 0 or wavelength.min() < 0:
        return False
    n_lambda = int(wavelength.max()) + 1
    n_segment = int(segments.max()) + 1
    if 2 * (int(fiber.max()) + 1) * n_lambda * n_segment >= 1 << 62:
        return False
    channel = (fiber * 2 + ccw) * n_lambda + wavelength
    keys = np.repeat(channel, hops) * n_segment + segments
    keys.sort()
    return not np.any(keys[1:] == keys[:-1])


def describe_conflict(conflict: Conflict) -> str:
    """Human-readable rendering of one circuit conflict."""
    first: Circuit = conflict.first.owner
    second: Circuit = conflict.second.owner
    return (
        f"circuits {first.transfer.src}->{first.transfer.dst} and "
        f"{second.transfer.src}->{second.transfer.dst} share "
        f"segment {conflict.first.lo} on channel {second.channel}"
    )


def validate_no_conflicts(circuits: list[Circuit]) -> None:
    """Assert segment-exclusivity of one round's circuits.

    Thin wrapper over :func:`circuit_conflicts` kept as the executors'
    runtime entry point.

    Raises:
        CircuitConflictError: naming the first offending pair.
    """
    conflicts = circuit_conflicts(circuits, first_only=True)
    if conflicts:
        raise CircuitConflictError(describe_conflict(conflicts[0]))
