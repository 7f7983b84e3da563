"""Seed (pre-bitmask) RWA implementation, kept as a parity oracle.

The production kernel in :mod:`repro.optical.rwa` represents segment sets as
arbitrary-precision integer bitmasks. This module preserves the original
numpy-boolean-array implementation it replaced, taught the two fault
keywords the production kernel grew since — per-route wavelength bans
(``route_blocked``, dead MRR endpoint ports) and pre-occupied segment spans
per (direction, wavelength) (``preoccupied``, stuck-MRR quarantine) — with
the semantics the production kernel had when they were added: First-Fit
and Random-Fit skip a banned wavelength at probe time and see a quarantined
span as already busy on every fiber, and DSATUR pre-marks both as seen
colors (:func:`fault_bans_reference`, the per-(route, channel) loop)
without counting them toward saturation. It serves two purposes only:

- the parity property tests (``tests/optical/test_rwa_parity.py``) assert
  the bitmask kernel produces *identical* assignments, round structure and
  DSATUR pre-mark matrices on random instances, both strategies, multiple
  fibers, blocked wavelengths, per-route bans and quarantine spans;
- ``benchmarks/bench_rwa.py`` times it to report honest before/after
  numbers in ``BENCH_rwa.json``.

Nothing in the library imports this module. Do not optimise it — its value
is being the frozen seed semantics.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.optical.rwa import STRATEGIES, AssignmentResult
from repro.optical.topology import Direction, Route
from repro.sim.rng import SeededRng
from repro.util.validation import check_positive_int


def route_mask_reference(route: Route) -> int:
    """Segment-set bitmask of one route (bit ``s`` set iff segment crossed)."""
    mask = 0
    for seg in route.segments:
        mask |= 1 << seg
    return mask


def fault_bans_reference(
    routes: Sequence[Route],
    allowed: Sequence[tuple[int, int]],
    route_blocked: Sequence[frozenset[int]] | None = None,
    preoccupied: Mapping[tuple[Direction, int], int] | None = None,
) -> np.ndarray:
    """DSATUR's fault pre-mark as a loop over every (route, channel) pair:
    ``[v, c]`` is set when ``allowed[c]``'s wavelength is banned for route
    ``v`` or its (direction, wavelength) span meets the route's mask."""
    n = len(routes)
    seen = np.zeros((n, len(allowed)), dtype=bool)
    if route_blocked is not None or preoccupied is not None:
        pre = preoccupied or {}
        masks = [route_mask_reference(route) for route in routes]
        for v in range(n):
            bans = route_blocked[v] if route_blocked is not None else frozenset()
            for c, (_f, lam) in enumerate(allowed):
                if lam in bans or pre.get((routes[v].direction, lam), 0) & masks[v]:
                    seen[v, c] = True
    return seen


def dsatur_assign_reference(
    routes: list[Route],
    n_segments: int,
    n_wavelengths: int,
    fibers_per_direction: int = 1,
    blocked: frozenset[int] = frozenset(),
    route_blocked: Sequence[frozenset[int]] | None = None,
    preoccupied: Mapping[tuple[Direction, int], int] | None = None,
) -> AssignmentResult | None:
    """Seed DSATUR: frozenset-intersection adjacency, linear-scan selection.

    A fault-banned color is never picked and does not count toward the
    route's saturation, which counts the distinct neighbour colors outside
    its bans.
    """
    n = len(routes)
    if n == 0:
        return AssignmentResult()
    seg_sets = [frozenset(r.segments) for r in routes]
    adjacency: list[set[int]] = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if routes[i].direction is routes[j].direction and seg_sets[i] & seg_sets[j]:
                adjacency[i].add(j)
                adjacency[j].add(i)
    allowed = [
        (f, lam)
        for f in range(fibers_per_direction)
        for lam in range(n_wavelengths)
        if lam not in blocked
    ]
    capacity = len(allowed)
    banned = [
        set(np.flatnonzero(row).tolist())
        for row in fault_bans_reference(routes, allowed, route_blocked, preoccupied)
    ]
    colors: dict[int, int] = {}
    neighbour_colors: list[set[int]] = [set() for _ in range(n)]
    uncolored = set(range(n))
    while uncolored:
        # Highest saturation, ties by degree then index (deterministic).
        pick = max(
            uncolored,
            key=lambda v: (
                len(neighbour_colors[v] - banned[v]), len(adjacency[v]), -v
            ),
        )
        color = 0
        taken = neighbour_colors[pick]
        while color in taken or color in banned[pick]:
            color += 1
        if color >= capacity:
            return None
        colors[pick] = color
        uncolored.discard(pick)
        for peer in adjacency[pick]:
            neighbour_colors[peer].add(color)
    result = AssignmentResult()
    for idx, color in colors.items():
        fiber, lam = allowed[color]
        result.assigned[idx] = (fiber, lam)
        result.peak_wavelength = max(result.peak_wavelength, lam + 1)
    return result


class _ChannelOccupancy:
    """Per-direction segment occupancy of every (fiber, wavelength)."""

    def __init__(self, n_segments: int, n_fibers: int, n_wavelengths: int) -> None:
        self.n_segments = n_segments
        self.n_fibers = n_fibers
        self.n_wavelengths = n_wavelengths
        self._busy = np.zeros((n_fibers, n_wavelengths, n_segments), dtype=bool)

    def fits(self, fiber: int, wavelength: int, segments: np.ndarray) -> bool:
        return not self._busy[fiber, wavelength, segments].any()

    def take(self, fiber: int, wavelength: int, segments: np.ndarray) -> None:
        self._busy[fiber, wavelength, segments] = True


def assign_wavelengths_reference(
    routes: list[Route],
    n_segments: int,
    n_wavelengths: int,
    fibers_per_direction: int = 1,
    strategy: str = "first_fit",
    rng: SeededRng | None = None,
    blocked: frozenset[int] = frozenset(),
    route_blocked: Sequence[frozenset[int]] | None = None,
    preoccupied: Mapping[tuple[Direction, int], int] | None = None,
) -> AssignmentResult:
    """Seed single-round assignment: numpy fancy-indexed occupancy probes.

    A ``preoccupied`` span is taken on every fiber of its (direction,
    wavelength) before any transfer probes; a wavelength in the route's
    ``route_blocked`` bans is skipped at probe time (after Random-Fit's
    shuffle, so the RNG stream does not depend on the bans).
    """
    check_positive_int("n_segments", n_segments)
    check_positive_int("n_wavelengths", n_wavelengths)
    check_positive_int("fibers_per_direction", fibers_per_direction)
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    if strategy == "random_fit" and rng is None:
        raise ValueError("random_fit requires an rng")

    occupancy = {
        direction: _ChannelOccupancy(n_segments, fibers_per_direction, n_wavelengths)
        for direction in Direction
    }
    for (direction, lam), span in (preoccupied or {}).items():
        if lam in blocked or not 0 <= lam < n_wavelengths:
            continue
        segments = np.array(
            [seg for seg in range(n_segments) if span >> seg & 1], dtype=np.intp
        )
        for fiber in range(fibers_per_direction):
            occupancy[direction].take(fiber, lam, segments)
    result = AssignmentResult()
    # Longest routes are hardest to place; assign them first. Ties keep the
    # original order so the outcome is deterministic.
    order = sorted(range(len(routes)), key=lambda i: (-routes[i].hops, i))
    for idx in order:
        route = routes[idx]
        segments = np.asarray(route.segments, dtype=np.intp)
        occ = occupancy[route.direction]
        bans = route_blocked[idx] if route_blocked is not None else frozenset()
        channels = [
            (f, lam)
            for f in range(fibers_per_direction)
            for lam in range(n_wavelengths)
            if lam not in blocked
        ]
        if strategy == "random_fit":
            rng.shuffle(channels)
        placed = False
        for fiber, lam in channels:
            if lam in bans:
                continue
            if occ.fits(fiber, lam, segments):
                occ.take(fiber, lam, segments)
                result.assigned[idx] = (fiber, lam)
                result.peak_wavelength = max(result.peak_wavelength, lam + 1)
                placed = True
                break
        if not placed:
            result.unassigned.append(idx)
    return result


def plan_rounds_reference(
    routes: list[Route],
    n_segments: int,
    n_wavelengths: int,
    fibers_per_direction: int = 1,
    strategy: str = "first_fit",
    rng: SeededRng | None = None,
    dsatur_fallback: bool = True,
    blocked: frozenset[int] = frozenset(),
    route_blocked: Sequence[frozenset[int]] | None = None,
    preoccupied: Mapping[tuple[Direction, int], int] | None = None,
    metrics: MetricsRegistry = NULL_METRICS,
) -> list[dict[int, tuple[int, int]]]:
    """Seed multi-round splitting over the reference single-round kernel.

    Takes :func:`repro.optical.rwa.plan_rounds`'s keywords so it can stand
    in for it inside :class:`~repro.optical.network.OpticalRingNetwork`;
    ``route_blocked`` and ``preoccupied`` reach both the single-round
    kernel and the DSATUR fallback. It records nothing into ``metrics``.
    """
    remaining = list(range(len(routes)))
    rounds: list[dict[int, tuple[int, int]]] = []
    first = True
    while remaining:
        subset = [routes[i] for i in remaining]
        subset_blocked = (
            [route_blocked[i] for i in remaining]
            if route_blocked is not None
            else None
        )
        assignment = assign_wavelengths_reference(
            subset, n_segments, n_wavelengths, fibers_per_direction,
            strategy=strategy, rng=rng, blocked=blocked,
            route_blocked=subset_blocked, preoccupied=preoccupied,
        )
        if first and assignment.unassigned and dsatur_fallback:
            structured = dsatur_assign_reference(
                subset, n_segments, n_wavelengths, fibers_per_direction,
                blocked=blocked, route_blocked=subset_blocked,
                preoccupied=preoccupied,
            )
            if structured is not None:
                assignment = structured
        first = False
        if not assignment.assigned:
            raise RuntimeError(
                "RWA failed to place any transfer on an empty round; "
                "file a bug"
            )
        rounds.append(
            {remaining[local]: chan for local, chan in assignment.assigned.items()}
        )
        remaining = [remaining[j] for j in assignment.unassigned]
    return rounds
