"""The PLAN003/PLAN006/PLAN007 kernels the array forms replaced: parity oracles.

:mod:`repro.check.plan_rules` proves dataflow conservation on int-bitmask
runs (:class:`~repro.check.intervals.RankRuns`), gates each step's write
conflicts with one sort, and flags failed-resource circuits with array
masks. This module keeps the code each of those replaced, verbatim except
for names:

- :class:`IntervalSetMap`, the frozenset-per-run map PLAN003 used;
- :func:`dataflow_conservation_reference`, the PLAN003 rule body on it;
- :func:`step_write_conflicts_reference` and
  :func:`write_conflicts_reference`, PLAN006 with a :class:`Claim` per
  non-empty write and no gate;
- :func:`no_failed_resources_reference`, PLAN007's per-circuit,
  per-segment loop.

``tests/check/test_plan_rules_parity.py`` asserts that the shipped rules
yield the same findings, in the same order, and raise the same errors.
Nothing in the library imports this module. Do not optimise it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.check.context import CheckContext
from repro.check.findings import Finding, Severity
from repro.check.intervals import Conflict, find_conflicts
from repro.collectives.base import CommStep


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


def dataflow_conservation_reference(ctx: CheckContext) -> Iterator[Finding]:
    """Symbolic chunk-dataflow conservation over the materialized steps.

    Tracks, per node and element interval, the *set of ranks* whose
    contribution that interval currently holds. ``copy`` overwrites,
    ``sum`` unions — and a union that brings in a rank the destination
    already holds is a double count (set algebra plus the no-duplicate
    check makes the sets a faithful multiset abstraction). The All-reduce
    postcondition is then: every node uniformly holds the full rank set.
    """
    schedule = ctx.schedule
    work = sum(len(step.transfers) for step in schedule.steps)
    if work > ctx.dataflow_size_limit:
        yield Finding(
            "PLAN003", Severity.INFO,
            f"skipped: schedule has {work} transfers "
            f"(> limit {ctx.dataflow_size_limit})",
        )
        return
    n, total = schedule.n_nodes, schedule.total_elems
    held = [IntervalSetMap(total=total, initial=frozenset({i})) for i in range(n)]
    emitted = 0
    for step_no, step in enumerate(schedule.steps):
        # Bulk-synchronous: snapshot all reads before any write lands.
        reads = [
            (t, held[t.src].slice(t.lo, t.hi))
            for t in step.transfers
            if t.n_elems > 0
        ]
        for t, pieces in reads:
            if t.op == "copy":
                held[t.dst].overwrite(t.lo, t.hi, pieces)
        for t, pieces in reads:
            if t.op != "sum":
                continue
            for lo, hi, dup in held[t.dst].union(t.lo, t.hi, pieces):
                if emitted < 16:
                    yield Finding(
                        "PLAN003", Severity.ERROR,
                        f"node {t.dst} double-counts contribution(s) "
                        f"{sorted(dup)} over [{lo}, {hi}) "
                        f"(sum from node {t.src})",
                        step_index=step_no,
                    )
                emitted += 1
    # A shrunk (degraded) schedule only reduces over its participants:
    # they must end holding exactly the participant set, and every
    # bystander (dropped node) must be untouched, still holding only its
    # own contribution.
    participants = ctx.participants
    full = (
        frozenset(range(n)) if participants is None else frozenset(participants)
    )
    for node in range(n):
        expected = full if node in full else frozenset({node})
        value = held[node].uniform_value()
        if value == expected:
            continue
        sample = held[node].slice(0, total)
        lo, hi, got = next(
            ((lo, hi, v) for lo, hi, v in sample if v != expected),
            (0, total, value or frozenset()),
        )
        missing = sorted(expected - got)[:8]
        extra = sorted(got - expected)[:8]
        parts = []
        if missing:
            parts.append(f"missing contributions from ranks {missing}")
        if extra:
            parts.append(f"unexpected ranks {extra}")
        yield Finding(
            "PLAN003", Severity.ERROR,
            f"node {node} ends with incomplete reduction over [{lo}, {hi}): "
            + "; ".join(parts),
            details={"node": node},
        )


def step_write_conflicts_reference(step: CommStep, first_only: bool = False) -> list[Conflict]:
    """Order-dependent write overlaps within one step.

    Destination writes become interval claims on the destination node
    (``sum`` writes are combinable, ``copy`` writes exclusive) and run
    through the shared interval engine — the same analysis the optical
    circuit validator and the :mod:`repro.check` plan rules use.
    """
    return find_conflicts(
        [c for t in step.transfers if t.n_elems > 0 for c in [t.write_claim()]],
        first_only=first_only,
    )


def write_conflicts_reference(ctx: CheckContext) -> Iterator[Finding]:
    """Order-dependence audit over the profile's representative steps."""
    for index, (step, _count) in enumerate(ctx.profile()):
        for conflict in step_write_conflicts_reference(step):
            first, second = conflict.first, conflict.second
            yield Finding(
                "PLAN006", Severity.ERROR,
                f"writes [{first.lo},{first.hi}):{first.owner.op} and "
                f"[{second.lo},{second.hi}):{second.owner.op} into node "
                f"{conflict.resource} are order-dependent",
                step_index=index,
            )


def no_failed_resources_reference(ctx: CheckContext) -> Iterator[Finding]:
    """Fault-avoidance audit: a degraded plan must not touch dead hardware.

    Checks every derived circuit against the config's fault set — dead
    wavelengths, banned MRR endpoint ports, quarantined (stuck-MRR) spans,
    cut fiber segments — and every scheduled transfer against the dropped
    nodes. Yields nothing for a fault-free config, so healthy plans verify
    at zero cost.
    """
    config = ctx.config
    faults = config.faults
    dead_lams = config.dead_wavelengths
    if not faults and not dead_lams:
        return
    dead_nodes = faults.dead_nodes
    quarantine = faults.segment_quarantine_masks(config.n_nodes)
    if dead_nodes:
        for index, (step, _count) in enumerate(ctx.profile()):
            for t in step.transfers:
                for node in (t.src, t.dst):
                    if node in dead_nodes:
                        yield Finding(
                            "PLAN007", Severity.ERROR,
                            f"transfer {t.src} -> {t.dst} touches dropped "
                            f"node {node} — the schedule must shrink to "
                            "the survivors",
                            step_index=index,
                        )
    if not ctx.circuit_rounds:
        return
    for index, rounds in sorted(ctx.circuit_rounds.items()):
        for round_no, circuits in enumerate(rounds):
            for c in circuits:
                direction = c.route.direction
                who = f"circuit {c.transfer.src} -> {c.transfer.dst}"
                if c.wavelength in dead_lams:
                    yield Finding(
                        "PLAN007", Severity.ERROR,
                        f"round {round_no}: {who} rides dead wavelength "
                        f"{c.wavelength}",
                        step_index=index,
                        details={"round": round_no},
                    )
                banned = faults.endpoint_blocked(
                    c.transfer.src, direction
                ) | faults.endpoint_blocked(c.transfer.dst, direction)
                if c.wavelength in banned:
                    yield Finding(
                        "PLAN007", Severity.ERROR,
                        f"round {round_no}: {who} terminates wavelength "
                        f"{c.wavelength} on a failed MRR port",
                        step_index=index,
                        details={"round": round_no},
                    )
                cut = [
                    seg for seg in c.route.segments
                    if faults.is_cut(seg, direction)
                ]
                if cut:
                    yield Finding(
                        "PLAN007", Severity.ERROR,
                        f"round {round_no}: {who} crosses cut "
                        f"segment(s) {cut} ({direction.value})",
                        step_index=index,
                        details={"round": round_no},
                    )
                span = quarantine.get((direction, c.wavelength), 0)
                bad = [seg for seg in c.route.segments if span >> seg & 1]
                if bad:
                    yield Finding(
                        "PLAN007", Severity.ERROR,
                        f"round {round_no}: {who} crosses quarantined "
                        f"segment(s) {bad} on wavelength {c.wavelength}",
                        step_index=index,
                        details={"round": round_no},
                    )
