"""Declarative fault models for the optical ring.

Each fault is a small frozen dataclass; a :class:`FaultSet` aggregates them
into one hashable, order-normalized value suitable for embedding in the
frozen :class:`~repro.optical.config.OpticalSystemConfig` (and therefore in
every plan-cache key). The set also derives the views the substrate layers
consume: blocked wavelengths for the RWA probe order, per-endpoint port
bans, quarantined segment bitmasks, cut directions per segment, the
surviving-node set, and the droop-derated physical-layer parameters.

Fault semantics
---------------

- :class:`DeadWavelength` — the comb-laser line is gone; the wavelength is
  unusable on every fiber, both directions.
- :class:`MrrPortFault` — one node's micro-ring for one wavelength failed.
  ``mode="dead"`` (stuck in the *through* position): the node can no longer
  add or drop that wavelength, so circuits terminating at the node cannot
  use it, but traffic passing through is unaffected. ``mode="stuck"``
  (stuck in the *drop* position): the ring is broken for that wavelength at
  the node's interface, conservatively modeled by quarantining the
  wavelength on both segments adjacent to the node.
- :class:`CutFiber` — a fiber segment is severed for one direction (or
  both); routing must take the long way around.
- :class:`DroppedNode` — the node is gone as a compute endpoint; schedules
  must be replanned over the survivors (its optical interface is assumed to
  keep passing light, as MRR add/drop is passive for foreign wavelengths).
- :class:`PowerDroop` — a transient comb-laser power droop of ``droop_db``
  dB feeding Eqs 7–13: the loss budget (Eq 9) loses ``droop_db`` of
  headroom and the received signal power entering the SNR (Eq 11) drops by
  the same factor.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING, Union

from repro.core.constraints import OpticalPhyParams
from repro.optical.topology import Direction

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.optical.circuit import Circuit

#: Accepted ``direction`` spellings on direction-scoped faults.
DIRECTIONS = ("cw", "ccw")


@dataclass(frozen=True)
class DeadWavelength:
    """A failed comb-laser line: wavelength unusable everywhere."""

    wavelength: int

    def __post_init__(self) -> None:
        if self.wavelength < 0:
            raise ValueError(f"wavelength must be >= 0, got {self.wavelength!r}")


@dataclass(frozen=True)
class MrrPortFault:
    """One node's MRR for one wavelength failed (``dead`` or ``stuck``).

    Attributes:
        node: The node whose interface carries the failed micro-ring.
        wavelength: The wavelength the micro-ring serves.
        mode: ``"dead"`` (cannot add/drop; pass-through fine) or
            ``"stuck"`` (stuck dropping; quarantines the wavelength on the
            node's adjacent segments).
        direction: ``"cw"``/``"ccw"`` to scope the fault to one direction's
            interface, ``None`` for both.
    """

    node: int
    wavelength: int
    mode: str = "dead"
    direction: str | None = None

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ValueError(f"node must be >= 0, got {self.node!r}")
        if self.wavelength < 0:
            raise ValueError(f"wavelength must be >= 0, got {self.wavelength!r}")
        if self.mode not in ("dead", "stuck"):
            raise ValueError(f"mode must be 'dead' or 'stuck', got {self.mode!r}")
        _check_direction(self.direction)


@dataclass(frozen=True)
class CutFiber:
    """A severed fiber segment (one direction or both)."""

    segment: int
    direction: str | None = None

    def __post_init__(self) -> None:
        if self.segment < 0:
            raise ValueError(f"segment must be >= 0, got {self.segment!r}")
        _check_direction(self.direction)


@dataclass(frozen=True)
class DroppedNode:
    """A node lost as a compute endpoint (light still passes through)."""

    node: int

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ValueError(f"node must be >= 0, got {self.node!r}")


@dataclass(frozen=True)
class PowerDroop:
    """A transient comb-laser power droop in dB (feeds Eqs 7–13)."""

    droop_db: float

    def __post_init__(self) -> None:
        if self.droop_db <= 0:
            raise ValueError(f"droop_db must be positive, got {self.droop_db!r}")


Fault = Union[DeadWavelength, MrrPortFault, CutFiber, DroppedNode, PowerDroop]


def _check_direction(direction: str | None) -> None:
    if direction is not None and direction not in DIRECTIONS:
        raise ValueError(
            f"direction must be one of {DIRECTIONS} or None, got {direction!r}"
        )


def _matches_direction(fault_direction: str | None, direction: Direction) -> bool:
    return fault_direction is None or fault_direction == direction.value


_NO_BANS: frozenset[int] = frozenset()


@dataclass(frozen=True)
class FaultSet:
    """An order-normalized, hashable collection of faults.

    The constructor sorts and deduplicates, so two sets built from the same
    faults in any order compare (and hash) equal — a property the plan
    cache relies on, since the set travels inside the frozen system config
    that salts every cache key.
    """

    faults: tuple[Fault, ...] = ()

    def __post_init__(self) -> None:
        normalized = tuple(
            sorted(set(self.faults), key=lambda f: (type(f).__name__, repr(f)))
        )
        object.__setattr__(self, "faults", normalized)

    @classmethod
    def of(cls, *faults: Fault) -> "FaultSet":
        """Convenience constructor: ``FaultSet.of(DeadWavelength(3), ...)``."""
        return cls(tuple(faults))

    def __bool__(self) -> bool:
        return bool(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    def with_fault(self, fault: Fault) -> "FaultSet":
        """A new set with ``fault`` added (used by mid-flight activation)."""
        return FaultSet(self.faults + (fault,))

    # -- derived views ---------------------------------------------------
    @property
    def dead_wavelengths(self) -> frozenset[int]:
        """Wavelengths unusable everywhere (:class:`DeadWavelength`)."""
        return frozenset(
            f.wavelength for f in self.faults if isinstance(f, DeadWavelength)
        )

    @property
    def dead_nodes(self) -> frozenset[int]:
        """Nodes dropped as compute endpoints (:class:`DroppedNode`)."""
        return frozenset(f.node for f in self.faults if isinstance(f, DroppedNode))

    @property
    def port_faults(self) -> tuple[MrrPortFault, ...]:
        """All MRR port faults, in normalized order."""
        return tuple(f for f in self.faults if isinstance(f, MrrPortFault))

    @property
    def cut_segments(self) -> frozenset[int]:
        """Segments cut in at least one direction."""
        return frozenset(f.segment for f in self.faults if isinstance(f, CutFiber))

    @property
    def droop_db(self) -> float:
        """Total laser-power droop in dB (droops stack additively in dB)."""
        return sum(f.droop_db for f in self.faults if isinstance(f, PowerDroop))

    # Lookup views behind ``is_cut`` and ``endpoint_blocked``, built once
    # per set on first use. The set is frozen, so they never go stale;
    # ``cached_property`` keeps them out of the dataclass fields, so
    # ``repr``, ``==`` and ``hash`` (and with them every plan-cache key)
    # are unchanged. Each view holds one entry per ring direction, CW
    # then CCW, picked by an identity test: hashing a ``Direction`` runs
    # ``Enum.__hash__`` in Python and would cost more than the lookup.
    @cached_property
    def _cut_segments(self) -> tuple[frozenset[int], frozenset[int]]:
        return tuple(
            frozenset(
                f.segment
                for f in self.faults
                if isinstance(f, CutFiber) and _matches_direction(f.direction, d)
            )
            for d in (Direction.CW, Direction.CCW)
        )

    @cached_property
    def _endpoint_bans(self) -> tuple[dict[int, frozenset[int]], ...]:
        views = []
        for d in (Direction.CW, Direction.CCW):
            bans: dict[int, set[int]] = {}
            for f in self.port_faults:
                if _matches_direction(f.direction, d):
                    bans.setdefault(f.node, set()).add(f.wavelength)
            views.append({node: frozenset(lams) for node, lams in bans.items()})
        return tuple(views)

    def is_cut(self, segment: int, direction: Direction) -> bool:
        """Whether ``segment`` is severed for ``direction``."""
        return segment in self._cut_segments[direction is Direction.CCW]

    def endpoint_blocked(self, node: int, direction: Direction) -> frozenset[int]:
        """Wavelengths ``node`` cannot add/drop on ``direction``'s interface.

        Covers both port-fault modes: a dead port cannot terminate the
        wavelength, and a stuck-dropping port is no more able to.
        """
        return self._endpoint_bans[direction is Direction.CCW].get(node, _NO_BANS)

    def segment_quarantine_masks(self, n_nodes: int) -> dict[tuple[Direction, int], int]:
        """Pre-occupied segment bitmask per (direction, wavelength).

        A ``mode="stuck"`` MRR at node ``j`` drops its wavelength out of
        the ring at ``j``'s interface, so the wavelength is quarantined on
        both segments adjacent to ``j`` (``j-1`` and ``j`` mod N) — the RWA
        seeds its occupancy integers with these masks, making the
        quarantined spans unassignable exactly like already-busy channels.
        """
        masks: dict[tuple[Direction, int], int] = {}
        for f in self.port_faults:
            if f.mode != "stuck":
                continue
            span = (1 << (f.node % n_nodes)) | (1 << ((f.node - 1) % n_nodes))
            for direction in Direction:
                if not _matches_direction(f.direction, direction):
                    continue
                key = (direction, f.wavelength)
                masks[key] = masks.get(key, 0) | span
        return masks

    def effective_phy(self, phy: OpticalPhyParams | None) -> OpticalPhyParams | None:
        """``phy`` derated by the total laser-power droop (Eqs 7–13).

        The loss budget loses ``droop_db`` dB of laser power (Eq 9) and the
        received signal power entering the SNR (Eq 11) drops by the same
        linear factor.
        """
        droop = self.droop_db
        if phy is None or droop == 0.0:
            return phy
        return replace(
            phy,
            laser_power_dbm=phy.laser_power_dbm - droop,
            signal_power_mw=phy.signal_power_mw * 10.0 ** (-droop / 10.0),
        )

    def validate(self, n_nodes: int, n_wavelengths: int) -> None:
        """Bounds-check every fault against a concrete system.

        Raises:
            ValueError: On any out-of-range wavelength/node/segment, or
                when no wavelength or no node would survive.
        """
        for f in self.faults:
            if isinstance(f, (DeadWavelength, MrrPortFault)):
                if f.wavelength >= n_wavelengths:
                    raise ValueError(
                        f"fault {f!r}: wavelength out of range "
                        f"[0, {n_wavelengths})"
                    )
            if isinstance(f, (MrrPortFault, DroppedNode)):
                if f.node >= n_nodes:
                    raise ValueError(
                        f"fault {f!r}: node out of range [0, {n_nodes})"
                    )
            if isinstance(f, CutFiber) and f.segment >= n_nodes:
                raise ValueError(
                    f"fault {f!r}: segment out of range [0, {n_nodes})"
                )
        if len(self.dead_wavelengths) >= n_wavelengths:
            raise ValueError("at least one wavelength must survive the fault set")
        if len(self.dead_nodes) >= n_nodes:
            raise ValueError("at least one node must survive the fault set")

    # -- mid-flight support ----------------------------------------------
    def affects_circuit(self, circuit: "Circuit", config) -> bool:
        """Whether an in-flight ``circuit`` is broken by this fault set.

        Used by the live executor when a :class:`FaultEvent` fires: every
        affected circuit process is interrupted and its transfer retried
        against the replanned RWA.
        """
        direction = circuit.route.direction
        segments = circuit.route.segments
        if circuit.wavelength in self.dead_wavelengths:
            return True
        src, dst = circuit.transfer.src, circuit.transfer.dst
        if src in self.dead_nodes or dst in self.dead_nodes:
            return True
        if circuit.wavelength in self.endpoint_blocked(src, direction):
            return True
        if circuit.wavelength in self.endpoint_blocked(dst, direction):
            return True
        for seg in segments:
            if self.is_cut(seg, direction):
                return True
        quarantine = self.segment_quarantine_masks(config.n_nodes).get(
            (direction, circuit.wavelength), 0
        )
        if any(quarantine >> seg & 1 for seg in segments):
            return True
        if self.droop_db and config.phy is not None:
            from repro.optical.phy import path_feasible

            if not path_feasible(circuit.route.hops, self.effective_phy(config.phy)):
                return True
        return False


EMPTY_FAULTS = FaultSet()
"""The shared empty fault set (the healthy-system default)."""


@dataclass(frozen=True)
class FaultEvent:
    """A fault arriving at a fixed simulation time (live executor input)."""

    time: float
    fault: Fault

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"fault time must be >= 0, got {self.time!r}")
