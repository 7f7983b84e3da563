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

In both cases it is the enumerator, not the gate: every optical round is
first decided by the sorted int64 keys of
:func:`repro.optical.circuit.circuit_conflicts`, and every step's writes by
one sort in :func:`repro.collectives.verify.step_write_conflicts`; only a
round or step that test cannot prove clean (a real collision, or ids the
key cannot hold) is turned into claims and swept here.

:class:`RankRuns` is the other interval structure the rules share: the
per-node element runs of the dataflow rule (PLAN003), each holding an int
bitmask of the ranks whose contributions it carries.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
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




def ranks_of(mask: int) -> list[int]:
    """The set bits of ``mask`` as a sorted rank list (bit ``r`` = rank ``r``)."""
    return [r for r, bit in enumerate(reversed(bin(mask)[2:])) if bit == "1"]


class RankRuns:
    """Which ranks' contributions each element range of one node holds.

    The symbolic dataflow rule (PLAN003) keeps one of these per node. The
    range ``[0, total)`` is cut into disjoint runs held as two parallel
    lists: the sorted run starts, and one int bitmask per run (bit ``r``
    set iff rank ``r``'s contribution is in). Adjacent runs always differ,
    so the representation of a given state is unique. A write finds the
    touched runs by bisection, splices them with one slice assignment and
    merges equal neighbours only at its two ends.

    What a range holds (:meth:`read`, and the input of :meth:`write` and
    :meth:`add`) is either one mask, when a single run covers the range,
    or a ``(starts, masks)`` pair of runs clipped to it: the common case
    then keeps no container alive between a step's reads and its writes.
    """

    __slots__ = ("total", "starts", "masks")

    def __init__(self, total: int, mask: int) -> None:
        self.total = total
        self.starts = [0]
        self.masks = [mask]

    def _locate(self, lo: int, hi: int) -> tuple[int, int]:
        """Indices of the runs holding ``lo`` and just past ``hi - 1``."""
        if not 0 <= lo < hi <= self.total:
            raise ValueError(f"range [{lo}, {hi}) outside [0, {self.total})")
        i = bisect_right(self.starts, lo) - 1
        return i, bisect_left(self.starts, hi, i + 1)

    def read(self, lo: int, hi: int) -> int | tuple[list[int], list[int]]:
        """What ``[lo, hi)`` holds: one mask, or its clipped runs.

        Raises:
            ValueError: If ``[lo, hi)`` is empty or leaves ``[0, total)``.
        """
        i, j = self._locate(lo, hi)
        if j == i + 1:
            return self.masks[i]
        return [lo, *self.starts[i + 1 : j]], self.masks[i:j]

    def write(self, lo: int, hi: int, held: int | tuple[list[int], list[int]]) -> None:
        """``copy`` semantics: ``[lo, hi)`` becomes exactly ``held``."""
        i, j = self._locate(lo, hi)
        if type(held) is int:
            self._splice(i, j, lo, hi, [lo], [held])
        else:
            self._splice(i, j, lo, hi, *held)

    def add(
        self, lo: int, hi: int, incoming: int | tuple[list[int], list[int]]
    ) -> list[tuple[int, int, int]]:
        """``sum`` semantics: OR ``incoming`` into what ``[lo, hi)`` holds.

        Returns:
            Double-count evidence: ``(lo, hi, ranks)`` for every piece of
            the common refinement where the incoming run carried ranks
            already held. Contributions are never duplicated while this
            list stays empty, so the bitmasks remain a faithful multiset
            abstraction and a non-empty return is exactly a conservation
            violation.
        """
        i, j = self._locate(lo, hi)
        if j == i + 1 and type(incoming) is int:
            held = self.masks[i]
            self._splice(i, j, lo, hi, [lo], [held | incoming])
            both = held & incoming
            return [(lo, hi, both)] if both else []
        held_starts = [lo, *self.starts[i + 1 : j]]
        held_masks = self.masks[i:j]
        starts, masks = (
            ([lo], [incoming]) if type(incoming) is int else incoming
        )
        n_held, n_in = len(held_starts), len(starts)
        out_starts, out_masks, duplicates = [], [], []
        a = b = 0
        pos = lo
        while pos < hi:
            a_end = held_starts[a + 1] if a + 1 < n_held else hi
            b_end = starts[b + 1] if b + 1 < n_in else hi
            end = a_end if a_end < b_end else b_end
            mask, extra = held_masks[a], masks[b]
            if mask & extra:
                duplicates.append((pos, end, mask & extra))
            out_starts.append(pos)
            out_masks.append(mask | extra)
            pos = end
            if a_end == end:
                a += 1
            if b_end == end:
                b += 1
        self._splice(i, j, lo, hi, out_starts, out_masks)
        return duplicates

    def _splice(
        self, i: int, j: int, lo: int, hi: int, starts: list[int], masks: list[int]
    ) -> None:
        """Replace ``[lo, hi)`` — held runs ``i`` (holding ``lo``) through
        ``j - 1`` (holding ``hi - 1``) — by the given runs, merging equal
        neighbours inside them and at both ends."""
        held_starts, held_masks = self.starts, self.masks
        if held_starts[i] < lo:
            first, prev = i + 1, held_masks[i]
        else:
            first, prev = i, held_masks[i - 1] if i else None
        new_starts, new_masks = [], []
        for start, mask in zip(starts, masks):
            if mask != prev:
                new_starts.append(start)
                new_masks.append(mask)
                prev = mask
        last = j
        if hi < self.total:
            if j < len(held_starts) and held_starts[j] == hi:
                if held_masks[j] == prev:
                    last = j + 1
            elif held_masks[j - 1] != prev:
                new_starts.append(hi)
                new_masks.append(held_masks[j - 1])
        held_starts[first:last] = new_starts
        held_masks[first:last] = new_masks
