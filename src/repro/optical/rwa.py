"""Routing and Wavelength Assignment (RWA) for one communication round.

Given the concurrent transfers of a step (already routed), assign each a
(fiber, wavelength) channel in its direction such that no two transfers
sharing a fiber+wavelength cross a common segment. Two strategies from the
paper's citations are provided:

- **First-Fit** [21] — transfers sorted longest-route-first, each takes the
  lowest-indexed free channel (deterministic, good packing).
- **Random-Fit** [31] — each transfer takes a uniformly random free channel
  (needs a :class:`~repro.sim.rng.SeededRng`).

Transfers that cannot be assigned in this round are reported back; the
executor schedules them into follow-up rounds (each paying another MRR
reconfiguration), which is how wavelength scarcity turns into time.

Representation
--------------

A route's segment set is encoded as an arbitrary-precision integer bitmask
(bit ``s`` set iff segment ``s`` is crossed), so a channel-occupancy probe
is a single ``busy & mask == 0`` and taking a channel is ``busy |= mask``.
This replaces the seed implementation's per-probe numpy fancy indexing and
is what makes paper-scale sweeps interactive; the seed implementation is
preserved in ``tests/optical/rwa_reference.py`` and the parity property
tests assert both produce identical assignments, round structure,
Random-Fit RNG consumption and DSATUR fault pre-marks.

Incremental repair
------------------

A fault delta (dead wavelength, port fault, quarantine growth) rarely
invalidates more than a handful of a step's assignments. Instead of
re-solving from scratch, :func:`repair_rounds` (implemented in
:mod:`repro.optical.repair`, re-exported here) recolors only the
conflict-affected subgraph with the untouched assignments pinned — see the
repair module for the cascade/fallback semantics and the paranoid
cross-check oracle.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.backend.errors import BackendError
from repro.obs.metrics import COUNT_EDGES, NULL_METRICS, MetricsRegistry
from repro.optical.topology import Direction, Route
from repro.sim.rng import SeededRng
from repro.util.validation import check_positive_int

STRATEGIES = ("first_fit", "random_fit")


class RwaInfeasibleError(BackendError):
    """No transfer of a round could be placed on an *empty* channel space.

    Raised by :func:`plan_rounds` when even a fresh round places nothing —
    which can only happen when the channel capacity is zero for some
    direction in use (e.g. every wavelength blocked). Carries the offending
    context so sweeps can report the combination instead of crashing. As a
    :class:`~repro.backend.errors.BackendError` it also carries the backend
    name and failing step index (filled in by the lowering loop).

    Attributes:
        routes: The routes that could not be placed.
        n_wavelengths: Wavelengths per fiber of the failing budget.
        fibers_per_direction: Fibers per direction of the failing budget.
        blocked: Blocked wavelength indices.
    """

    def __init__(
        self,
        routes: list[Route],
        n_wavelengths: int,
        fibers_per_direction: int,
        blocked: frozenset[int],
    ) -> None:
        self.routes = list(routes)
        self.n_wavelengths = n_wavelengths
        self.fibers_per_direction = fibers_per_direction
        self.blocked = frozenset(blocked)
        usable = n_wavelengths - len(self.blocked & set(range(n_wavelengths)))
        super().__init__(
            f"RWA cannot place any of {len(self.routes)} transfer(s) on an "
            f"empty round: budget is {fibers_per_direction} fiber(s) x "
            f"{n_wavelengths} wavelength(s) with {len(self.blocked)} blocked "
            f"({usable} usable per fiber)"
        )

    def __reduce__(self):
        """Pickle via the 4-argument constructor (sweep workers)."""
        return (
            self.__class__,
            (
                self.routes,
                self.n_wavelengths,
                self.fibers_per_direction,
                self.blocked,
            ),
            {"backend": self.backend, "step_index": self.step_index},
        )


def _route_masks(routes: list[Route]) -> list[int]:
    """Segment-set bitmask per route (bit ``s`` set iff segment crossed)."""
    masks = []
    for route in routes:
        mask = 0
        for seg in route.segments:
            mask |= 1 << seg
        masks.append(mask)
    return masks


def segment_bits(masks: Sequence[int], nbytes: int | None = None) -> np.ndarray:
    """One uint8 row of unpacked segment bits per mask (bit ``s`` in column
    ``s``), ``8 * nbytes`` columns wide; every mask must fit in ``nbytes``
    bytes, which default to the widest mask's."""
    if nbytes is None:
        nbytes = max(1, (max((m.bit_length() for m in masks), default=0) + 7) // 8)
    packed = np.frombuffer(
        b"".join(mask.to_bytes(nbytes, "little") for mask in masks),
        dtype=np.uint8,
    ).reshape(len(masks), nbytes)
    return np.unpackbits(packed, axis=1, bitorder="little")


def _allowed_channels(
    n_wavelengths: int, fibers_per_direction: int, blocked: frozenset[int]
) -> list[tuple[int, int, int]]:
    """The probe order shared by every transfer: (slot, fiber, wavelength).

    ``slot`` is the flat occupancy index ``fiber * n_wavelengths + lam``.
    Hoisted out of the per-transfer loop — the seed rebuilt this list for
    every transfer.
    """
    return [
        (f * n_wavelengths + lam, f, lam)
        for f in range(fibers_per_direction)
        for lam in range(n_wavelengths)
        if lam not in blocked
    ]


def fault_bans(
    routes: Sequence[Route],
    masks: Sequence[int],
    allowed: Sequence[tuple[int, int]],
    route_blocked: Sequence[frozenset[int]] | None = None,
    preoccupied: Mapping[tuple[Direction, int], int] | None = None,
) -> np.ndarray:
    """Which channels fault injection bans for each route.

    Row ``v``, column ``c`` is set when ``allowed[c]``'s wavelength is in
    route ``v``'s ``route_blocked`` bans (a dead MRR endpoint port) or its
    (direction, wavelength) ``preoccupied`` span intersects the route's
    mask (stuck-MRR quarantine). Bans are marked only for the routes that
    have any, and each span is tested once per (direction, wavelength) key
    against the route masks.
    """
    seen = np.zeros((len(routes), len(allowed)), dtype=bool)
    if route_blocked is None and not preoccupied:
        return seen
    lams = np.array([lam for _fiber, lam in allowed])
    for v, bans in enumerate(route_blocked or ()):
        if bans:
            seen[v] |= np.isin(lams, list(bans))
    for (direction, lam), span in (preoccupied or {}).items():
        columns = np.flatnonzero(lams == lam)
        if columns.size:
            hit = [
                v
                for v, route in enumerate(routes)
                if route.direction is direction and masks[v] & span
            ]
            seen[np.ix_(hit, columns)] = True
    return seen


def dsatur_assign(
    routes: list[Route],
    n_segments: int,
    n_wavelengths: int,
    fibers_per_direction: int = 1,
    blocked: frozenset[int] = frozenset(),
    masks: list[int] | None = None,
    route_blocked: Sequence[frozenset[int]] | None = None,
    preoccupied: Mapping[tuple[Direction, int], int] | None = None,
    metrics: MetricsRegistry = NULL_METRICS,
) -> AssignmentResult | None:
    """Optimal-leaning assignment via DSATUR graph coloring.

    Greedy channel packing can exceed the minimum wavelength count on
    circular-arc conflict graphs (the final WRHT all-to-all is exactly such
    an instance, where the ``⌈k²/8⌉`` bound of [13] is tight). DSATUR —
    color the vertex with the most distinctly-colored neighbours first —
    empirically achieves the max-load optimum on these structured
    instances. Used by the executor as a fallback when First-Fit spills.

    The conflict graph is built from the routes' segment bitmasks (packed
    into a byte matrix and AND-ed row-wise in numpy) and the
    highest-saturation vertex is tracked with a lazy max-heap; both steps
    reproduce the seed implementation's choices exactly (the tie order
    ``(saturation, degree, -index)`` is a total order).

    Args:
        masks: Precomputed :func:`_route_masks` output, to avoid recomputing
            when the caller (``plan_rounds``) already has them.
        route_blocked: Optional per-route wavelength bans (same length as
            ``routes``); fault injection uses these for dead MRR endpoint
            ports. Banned colors are pre-marked as ``seen`` without touching
            saturation, so the selection order is unchanged when no route
            has bans.
        preoccupied: Optional segment bitmask per (direction, wavelength)
            that counts as already busy (stuck-MRR quarantine spans).
        metrics: Observability registry; records the number of heap
            selections under ``rwa.dsatur_iterations`` (a deterministic
            count — the coloring itself never consults the registry).

    Returns:
        A complete assignment, or ``None`` if even DSATUR needs more than
        ``fibers × wavelengths`` channels (the caller then falls back to
        multi-round execution).
    """
    n = len(routes)
    if n == 0:
        return AssignmentResult()
    if masks is None:
        masks = _route_masks(routes)

    allowed = [
        (f, lam)
        for f in range(fibers_per_direction)
        for lam in range(n_wavelengths)
        if lam not in blocked
    ]
    capacity = len(allowed)
    if capacity == 0:
        return None

    # Conflict graph: same direction and overlapping segment masks. Each
    # direction group gets a boolean conflict matrix computed in one
    # float32 matmul over the unpacked mask bits (exact: dot products count
    # shared segments, ≤ the segment count, far below float32 precision).
    groups: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    local_of = np.zeros(n, dtype=np.intp)
    group_of = np.zeros(n, dtype=np.intp)
    deg = np.zeros(n, dtype=np.int64)
    for direction in Direction:
        members = np.array(
            [i for i in range(n) if routes[i].direction is direction],
            dtype=np.intp,
        )
        if members.size == 0:
            continue
        bits = segment_bits([masks[i] for i in members]).astype(np.float32)
        conflict = (bits @ bits.T) > 0
        np.fill_diagonal(conflict, False)
        group_of[members] = len(groups)
        local_of[members] = np.arange(members.size)
        deg[members] = conflict.sum(axis=1)
        groups.append((members, conflict, np.zeros(members.size, dtype=bool)))

    colors: dict[int, int] = {}
    # neighbour-color sets as one bool row per vertex; saturation is the
    # row's True count, tracked incrementally for the heap keys. Fault bans
    # are pre-marked as seen WITHOUT contributing to saturation: a banned
    # color can never be picked (free skips it) yet the selection order
    # stays bit-identical to the unfaulted run when no bans exist.
    seen = fault_bans(routes, masks, allowed, route_blocked, preoccupied)
    sat = [0] * n
    # Lazy max-heap over (saturation, degree, -index) — the seed's exact
    # selection order (the key is a total order, so ties cannot differ).
    # Entries are pushed whenever a vertex's saturation grows and skipped
    # on pop when stale.
    heap = [(0, -int(deg[v]), v) for v in range(n)]
    heapq.heapify(heap)
    pops = 0
    while len(colors) < n:
        while True:
            neg_sat, _neg_deg, pick = heapq.heappop(heap)
            pops += 1
            if pick not in colors and -neg_sat == sat[pick]:
                break
        free = np.flatnonzero(~seen[pick])
        if free.size == 0:
            metrics.inc("rwa.dsatur_iterations", pops)
            return None
        color = int(free[0])
        colors[pick] = color
        members, conflict, done = groups[group_of[pick]]
        done[local_of[pick]] = True
        peers = members[conflict[local_of[pick]] & ~done]
        fresh = peers[~seen[peers, color]]
        seen[fresh, color] = True
        for peer in fresh:
            peer = int(peer)
            sat[peer] += 1
            heapq.heappush(heap, (-sat[peer], -int(deg[peer]), peer))
    metrics.inc("rwa.dsatur_iterations", pops)
    result = AssignmentResult()
    for idx, color in colors.items():
        fiber, lam = allowed[color]
        result.assigned[idx] = (fiber, lam)
        result.peak_wavelength = max(result.peak_wavelength, lam + 1)
    return result


@dataclass
class AssignmentResult:
    """Outcome of one RWA round.

    Attributes:
        assigned: Maps input index -> (fiber, wavelength).
        unassigned: Input indices that did not fit this round.
        peak_wavelength: Highest wavelength index used, plus one (i.e. the
            number of distinct wavelength indices touched); 0 if nothing was
            assigned.
    """

    assigned: dict[int, tuple[int, int]] = field(default_factory=dict)
    unassigned: list[int] = field(default_factory=list)
    peak_wavelength: int = 0


def plan_rounds(
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
    """Split one step's transfers into conflict-free rounds.

    Each returned dict maps the *original* route index to its (fiber,
    wavelength). The first round tries the configured strategy and, when it
    spills and ``dsatur_fallback`` is set, retries with
    :func:`dsatur_assign` before paying an extra reconfiguration round.
    Used by both the step-timing executor and the live event-driven
    simulation so their round structure is identical by construction.

    Route masks are computed once here and reused across spill rounds and
    the DSATUR fallback. ``route_blocked`` (per-route wavelength bans, e.g.
    dead MRR endpoint ports) and ``preoccupied`` (segment bitmask per
    (direction, wavelength) counting as busy, e.g. stuck-MRR quarantine)
    thread through both assignment paths.

    When ``metrics`` is enabled, each round records ``rwa.rounds`` and a
    ``rwa.wavelengths_per_round`` histogram sample; mask construction is
    profiled under the ``rwa.mask_build`` span and DSATUR retries count
    ``rwa.dsatur_fallback`` / ``rwa.dsatur_iterations``. Recording never
    influences the assignment itself.

    Raises:
        RwaInfeasibleError: If a fresh round places nothing (zero channel
            capacity for a direction in use) — sweeps catch this and report
            the combination instead of aborting.
    """
    _validate_rwa_args(n_segments, n_wavelengths, fibers_per_direction, strategy, rng)
    if route_blocked is not None and len(route_blocked) != len(routes):
        raise ValueError(
            f"route_blocked has {len(route_blocked)} entries "
            f"for {len(routes)} routes"
        )
    with metrics.span("rwa.mask_build"):
        masks = _route_masks(routes)
    channels = _allowed_channels(n_wavelengths, fibers_per_direction, blocked)
    remaining = list(range(len(routes)))
    rounds: list[dict[int, tuple[int, int]]] = []
    first = True
    while remaining:
        subset = [routes[i] for i in remaining]
        subset_masks = [masks[i] for i in remaining]
        subset_blocked = (
            [route_blocked[i] for i in remaining]
            if route_blocked is not None
            else None
        )
        assignment = _assign_with_masks(
            subset, subset_masks, n_wavelengths, channels, strategy, rng,
            route_blocked=subset_blocked, preoccupied=preoccupied,
        )
        if first and assignment.unassigned and dsatur_fallback:
            metrics.inc("rwa.dsatur_fallback")
            structured = dsatur_assign(
                subset, n_segments, n_wavelengths, fibers_per_direction,
                blocked=blocked, masks=subset_masks,
                route_blocked=subset_blocked, preoccupied=preoccupied,
                metrics=metrics,
            )
            if structured is not None:
                assignment = structured
        first = False
        if not assignment.assigned:
            raise RwaInfeasibleError(
                subset, n_wavelengths, fibers_per_direction, blocked
            )
        rounds.append(
            {remaining[local]: chan for local, chan in assignment.assigned.items()}
        )
        if metrics.enabled:
            metrics.inc("rwa.rounds")
            metrics.observe(
                "rwa.wavelengths_per_round",
                float(assignment.peak_wavelength),
                edges=COUNT_EDGES,
            )
        remaining = [remaining[j] for j in assignment.unassigned]
    return rounds


def _validate_rwa_args(
    n_segments: int,
    n_wavelengths: int,
    fibers_per_direction: int,
    strategy: str,
    rng: SeededRng | None,
) -> None:
    """Shared argument validation for the assignment entry points."""
    check_positive_int("n_segments", n_segments)
    check_positive_int("n_wavelengths", n_wavelengths)
    check_positive_int("fibers_per_direction", fibers_per_direction)
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    if strategy == "random_fit" and rng is None:
        raise ValueError("random_fit requires an rng")


def _assign_with_masks(
    routes: list[Route],
    masks: list[int],
    n_wavelengths: int,
    channels: list[tuple[int, int, int]],
    strategy: str,
    rng: SeededRng | None,
    route_blocked: Sequence[frozenset[int]] | None = None,
    preoccupied: Mapping[tuple[Direction, int], int] | None = None,
) -> AssignmentResult:
    """Bitmask assignment core shared by both public entry points.

    ``channels`` is the hoisted :func:`_allowed_channels` probe order;
    occupancy is one integer per (direction, slot) where ``slot`` flattens
    (fiber, wavelength). Random-Fit shuffles a fresh copy of the channel
    list per transfer, consuming the RNG exactly as the seed implementation
    did (one same-length shuffle per transfer, placed or not).

    ``preoccupied`` seeds the occupancy integers (quarantined spans behave
    exactly like already-busy channels, on every fiber of the direction);
    ``route_blocked`` bans wavelengths per route at probe time.
    """
    n_slots = channels[-1][0] + 1 if channels else 0
    busy = {direction: [0] * n_slots for direction in Direction}
    if preoccupied:
        for (direction, lam), span in preoccupied.items():
            for slot, _fiber, chan_lam in channels:
                if chan_lam == lam:
                    busy[direction][slot] |= span
    result = AssignmentResult()
    # Longest routes are hardest to place; assign them first. Ties keep the
    # original order so the outcome is deterministic.
    order = sorted(range(len(routes)), key=lambda i: (-routes[i].hops, i))
    random_fit = strategy == "random_fit"
    peak = 0
    for idx in order:
        mask = masks[idx]
        occ = busy[routes[idx].direction]
        bans = route_blocked[idx] if route_blocked is not None else None
        if random_fit:
            probe = channels.copy()
            rng.shuffle(probe)
        else:
            probe = channels
        for slot, fiber, lam in probe:
            if bans is not None and lam in bans:
                continue
            if occ[slot] & mask == 0:
                occ[slot] = occ[slot] | mask
                result.assigned[idx] = (fiber, lam)
                if lam >= peak:
                    peak = lam + 1
                break
        else:
            result.unassigned.append(idx)
    result.peak_wavelength = peak
    return result


def repair_rounds(*args, **kwargs):
    """Incrementally repair a cached solution against a constraint delta.

    Thin dispatcher to :func:`repro.optical.repair.repair_rounds` (imported
    lazily to keep the module graph acyclic — the repair module calls back
    into :func:`plan_rounds` for its fallback and paranoid oracle). See that
    module for the full contract.
    """
    from repro.optical.repair import repair_rounds as _repair_rounds

    return _repair_rounds(*args, **kwargs)


def assign_wavelengths(
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
    """Assign channels to routed transfers for one round.

    Args:
        routes: One route per transfer (list index identifies the transfer).
        n_segments: Ring size (segments per direction).
        n_wavelengths: Wavelengths per fiber.
        fibers_per_direction: Parallel fibers per direction.
        strategy: ``"first_fit"`` or ``"random_fit"``.
        rng: Required for ``"random_fit"``.
        blocked: Wavelengths unusable on every fiber in both directions.
        route_blocked: Per-route wavelength bans (dead MRR endpoint ports).
        preoccupied: Busy segment bitmask per (direction, wavelength)
            (stuck-MRR quarantine spans).

    Returns:
        An :class:`AssignmentResult`; ``assigned ∪ unassigned`` covers all
        inputs exactly once.
    """
    _validate_rwa_args(n_segments, n_wavelengths, fibers_per_direction, strategy, rng)
    if route_blocked is not None and len(route_blocked) != len(routes):
        raise ValueError(
            f"route_blocked has {len(route_blocked)} entries "
            f"for {len(routes)} routes"
        )
    return _assign_with_masks(
        routes,
        _route_masks(routes),
        n_wavelengths,
        _allowed_channels(n_wavelengths, fibers_per_direction, blocked),
        strategy,
        rng,
        route_blocked=route_blocked,
        preoccupied=preoccupied,
    )
