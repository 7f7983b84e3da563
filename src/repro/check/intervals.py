"""Shared interval-exclusivity engine behind every conflict rule.

Both runtime validators the repo grew independently — order-dependent write
detection in :func:`repro.collectives.verify.check_step_conflicts` and WDM
channel-segment exclusivity in
:func:`repro.optical.circuit.validate_no_conflicts` — are instances of one
problem: claimants assert half-open integer intervals on named resources,
and two overlapping claims on the same resource conflict unless both are
*combinable* (commutative ``sum`` writes). This module is that problem
solved once:

- a write conflict is two overlapping element ranges claimed on the same
  destination node where at least one claim is not a ``sum``;
- a wavelength conflict is two circuits claiming the same ring segment
  (a unit interval ``[s, s+1)``) on the same ``(direction, fiber,
  wavelength)`` channel — circuits are never combinable.

The module is dependency-free (no ``repro`` imports) so that both the
legacy entry points and the :mod:`repro.check` rules can route through it
without import cycles.

For the wavelength case it is the enumerator, not the gate: every optical
round is first decided by the sorted int64 keys of
:func:`repro.optical.circuit.circuit_conflicts`, and only a round that test
cannot prove clean (a real collision, or ids the key cannot hold) is turned
into claims and swept here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable


@dataclass(frozen=True)
class Claim:
    """One claim of the half-open interval ``[lo, hi)`` on ``resource``.

    Attributes:
        resource: Hashable resource key (a destination node id, a WDM
            channel tuple, ...). Claims on different resources never
            conflict.
        lo: Inclusive interval start.
        hi: Exclusive interval end (must satisfy ``lo < hi``).
        owner: Arbitrary tag identifying the claimant, echoed back in
            conflicts (a transfer, a circuit, an index, ...).
        combinable: ``True`` when the claim commutes with other combinable
            claims (a ``sum`` write); two combinable claims never conflict.
    """

    resource: Hashable
    lo: int
    hi: int
    owner: object = None
    combinable: bool = False

    def __post_init__(self) -> None:
        if self.lo >= self.hi:
            raise ValueError(f"empty claim interval [{self.lo}, {self.hi})")


@dataclass(frozen=True)
class Conflict:
    """Two claims that overlap illegally on one resource."""

    resource: Hashable
    first: Claim
    second: Claim

    @property
    def overlap(self) -> tuple[int, int]:
        """The overlapping sub-interval ``[lo, hi)``."""
        return (
            max(self.first.lo, self.second.lo),
            min(self.first.hi, self.second.hi),
        )


def find_conflicts(claims: list[Claim], first_only: bool = False) -> list[Conflict]:
    """All illegal overlaps among ``claims``, grouped per resource.

    Within one resource, claims are sorted by ``(lo, hi)`` and swept; a pair
    conflicts when the intervals overlap and not both claims are
    combinable. The sweep compares each claim against the still-open
    predecessors, so runtime is linear in claims plus reported overlaps.

    Args:
        claims: The claims to audit (any order).
        first_only: Stop after the first conflict (cheap validation mode).

    Returns:
        Conflicts in deterministic (resource-insertion, position) order.
    """
    by_resource: dict[Hashable, list[Claim]] = {}
    for claim in claims:
        by_resource.setdefault(claim.resource, []).append(claim)
    conflicts: list[Conflict] = []
    for resource, group in by_resource.items():
        group.sort(key=lambda c: (c.lo, c.hi))
        open_claims: list[Claim] = []
        for claim in group:
            still_open = []
            for prev in open_claims:
                if prev.hi > claim.lo:
                    still_open.append(prev)
                    if not (prev.combinable and claim.combinable):
                        conflicts.append(Conflict(resource, prev, claim))
                        if first_only:
                            return conflicts
            still_open.append(claim)
            open_claims = still_open
    return conflicts


@dataclass
class IntervalSetMap:
    """Map from half-open intervals to frozensets, with exact algebra.

    The symbolic dataflow rule tracks, for every node, *which source ranks'
    contributions* each element range currently holds. This container keeps
    disjoint, sorted ``(lo, hi, frozenset)`` runs and supports the two
    operations execution semantics need: overwrite a range (``copy``) and
    union-in a range (``sum``).

    Runs are merged eagerly when adjacent with equal sets, so long schedules
    do not fragment the map.
    """

    total: int
    initial: frozenset
    _runs: list[tuple[int, int, frozenset]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.total <= 0:
            raise ValueError(f"total must be positive, got {self.total!r}")
        if not self._runs:
            self._runs = [(0, self.total, self.initial)]

    def _check_range(self, lo: int, hi: int) -> None:
        if not (0 <= lo < hi <= self.total):
            raise ValueError(f"range [{lo}, {hi}) outside [0, {self.total})")

    def slice(self, lo: int, hi: int) -> list[tuple[int, int, frozenset]]:
        """The runs covering ``[lo, hi)``, clipped to it."""
        self._check_range(lo, hi)
        out = []
        for rlo, rhi, value in self._runs:
            if rhi <= lo or rlo >= hi:
                continue
            out.append((max(rlo, lo), min(rhi, hi), value))
        return out

    def _splice(self, lo: int, hi: int, pieces: list[tuple[int, int, frozenset]]) -> None:
        """Replace the ``[lo, hi)`` portion with ``pieces`` and re-merge."""
        rebuilt: list[tuple[int, int, frozenset]] = []
        for rlo, rhi, value in self._runs:
            if rhi <= lo or rlo >= hi:
                rebuilt.append((rlo, rhi, value))
                continue
            if rlo < lo:
                rebuilt.append((rlo, lo, value))
            if rhi > hi:
                rebuilt.append((hi, rhi, value))
        rebuilt.extend(pieces)
        rebuilt.sort(key=lambda r: r[0])
        merged: list[tuple[int, int, frozenset]] = []
        for rlo, rhi, value in rebuilt:
            if merged and merged[-1][1] == rlo and merged[-1][2] == value:
                merged[-1] = (merged[-1][0], rhi, value)
            else:
                merged.append((rlo, rhi, value))
        self._runs = merged

    def overwrite(self, lo: int, hi: int, pieces: list[tuple[int, int, frozenset]]) -> None:
        """``copy`` semantics: ``[lo, hi)`` becomes exactly ``pieces``."""
        self._check_range(lo, hi)
        self._splice(lo, hi, pieces)

    def union(
        self, lo: int, hi: int, pieces: list[tuple[int, int, frozenset]]
    ) -> list[tuple[int, int, frozenset]]:
        """``sum`` semantics: union each incoming piece into what is held.

        Returns:
            Double-count evidence: ``(lo, hi, ranks)`` sub-intervals where
            the incoming piece carried ranks the map already held. Under
            the no-duplicate invariant the frozensets remain a faithful
            multiset abstraction, so a non-empty return is exactly a
            conservation violation.
        """
        self._check_range(lo, hi)
        current = self.slice(lo, hi)
        merged: list[tuple[int, int, frozenset]] = []
        duplicates: list[tuple[int, int, frozenset]] = []
        bounds = sorted(
            {lo, hi}
            | {b for plo, phi, _ in pieces for b in (plo, phi)}
            | {b for clo, chi, _ in current for b in (clo, chi)}
        )
        for blo, bhi in zip(bounds, bounds[1:]):
            held = frozenset()
            for clo, chi, value in current:
                if clo <= blo and chi >= bhi:
                    held = value
                    break
            incoming = frozenset()
            for plo, phi, value in pieces:
                if plo <= blo and phi >= bhi:
                    incoming = value
                    break
            dup = held & incoming
            if dup:
                duplicates.append((blo, bhi, dup))
            merged.append((blo, bhi, held | incoming))
        self._splice(lo, hi, merged)
        return duplicates

    def values_over(self, lo: int, hi: int) -> list[frozenset]:
        """Distinct sets held across ``[lo, hi)`` (one per run)."""
        return [value for _, _, value in self.slice(lo, hi)]

    def uniform_value(self) -> frozenset | None:
        """The single set held over the whole range, or ``None`` if mixed."""
        values = {value for _, _, value in self._runs}
        return next(iter(values)) if len(values) == 1 else None
