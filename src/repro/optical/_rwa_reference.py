"""Seed (pre-bitmask) RWA implementation, kept verbatim as a parity oracle.

The production kernel in :mod:`repro.optical.rwa` represents segment sets as
arbitrary-precision integer bitmasks. This module preserves the original
numpy-boolean-array implementation it replaced, for two purposes only:

- the parity property tests (``tests/optical/test_rwa_parity.py``) assert
  the bitmask kernel produces *identical* assignments and round structure
  on random instances, both strategies, multiple fibers, blocked
  wavelengths;
- ``benchmarks/bench_rwa.py`` times it to report honest before/after
  numbers in ``BENCH_rwa.json``.

Nothing in the library imports this module at runtime. Do not optimise it —
its value is being the frozen seed semantics.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.optical.rwa import STRATEGIES, AssignmentResult
from repro.optical.topology import Direction, Route
from repro.sim.rng import SeededRng
from repro.util.validation import check_positive_int


def dsatur_assign_reference(
    routes: list[Route],
    n_segments: int,
    n_wavelengths: int,
    fibers_per_direction: int = 1,
    blocked: frozenset[int] = frozenset(),
) -> AssignmentResult | None:
    """Seed DSATUR: frozenset-intersection adjacency, linear-scan selection."""
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
    colors: dict[int, int] = {}
    neighbour_colors: list[set[int]] = [set() for _ in range(n)]
    uncolored = set(range(n))
    while uncolored:
        # Highest saturation, ties by degree then index (deterministic).
        pick = max(
            uncolored,
            key=lambda v: (len(neighbour_colors[v]), len(adjacency[v]), -v),
        )
        color = 0
        taken = neighbour_colors[pick]
        while color in taken:
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
) -> AssignmentResult:
    """Seed single-round assignment: numpy fancy-indexed occupancy probes."""
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
    result = AssignmentResult()
    # Longest routes are hardest to place; assign them first. Ties keep the
    # original order so the outcome is deterministic.
    order = sorted(range(len(routes)), key=lambda i: (-routes[i].hops, i))
    for idx in order:
        route = routes[idx]
        segments = np.asarray(route.segments, dtype=np.intp)
        occ = occupancy[route.direction]
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
    in for it inside :class:`~repro.optical.network.OpticalRingNetwork`.
    The seed kernel predates per-route wavelength bans and stuck-MRR
    quarantine, so it runs only the healthy path: ``route_blocked`` and
    ``preoccupied`` must be ``None`` or empty. It records nothing into
    ``metrics``.

    Raises:
        ValueError: On a non-empty ``route_blocked`` or ``preoccupied``.
    """
    if route_blocked is not None and any(route_blocked):
        raise ValueError("the seed RWA kernel has no per-route wavelength bans")
    if preoccupied:
        raise ValueError("the seed RWA kernel has no pre-occupied channels")
    remaining = list(range(len(routes)))
    rounds: list[dict[int, tuple[int, int]]] = []
    first = True
    while remaining:
        subset = [routes[i] for i in remaining]
        assignment = assign_wavelengths_reference(
            subset, n_segments, n_wavelengths, fibers_per_direction,
            strategy=strategy, rng=rng, blocked=blocked,
        )
        if first and assignment.unassigned and dsatur_fallback:
            structured = dsatur_assign_reference(
                subset, n_segments, n_wavelengths, fibers_per_direction,
                blocked=blocked,
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
