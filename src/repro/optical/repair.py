"""Incremental DSATUR repair of cached RWA solutions.

:func:`repro.optical.rwa.plan_rounds` solves every step from scratch. That
is the right tool at lowering time, but a fault event or a single-transfer
edit invalidates only the transfers whose channel *claims* intersect the
delta — recoloring the whole step pays O(plan) work for an O(delta) change.
This module repairs a previously computed solution instead:

1. **Directly invalidated** transfers are found by intersecting each
   assignment with the delta: a newly dead wavelength, a new per-route ban
   (dead MRR endpoint port), a new quarantine span overlapping the route's
   segment bitmask, or an edited route (fiber-cut detour).
2. The invalidated set is recolored by **DSATUR over the conflict
   subgraph** with every untouched transfer *pinned*: pinned claims are
   seeded into the occupancy the recoloring probes, so the repair can never
   disturb a healthy assignment. Pinned occupancy is one integer segment
   mask per (direction, round, channel); the affected transfers' conflict
   and free-color matrices are matmuls over their unpacked segment bits,
   and selection is an argmax over one (saturation, degree, -index) key.
3. When a recolored transfer has no free channel under the pins, its
   pinned conflict neighbours (transfers sharing a segment bit in the same
   direction) are **unpinned transitively** and the recoloring retries —
   the cascade the paper's wavelength-reuse structure makes rare but
   possible.
4. If the cascade grows past ``max_affected_frac`` of the step (or the
   pinning is infeasible outright), repair **falls back to a full
   recolor** via ``plan_rounds`` — counted under ``rwa.repair_fallback``
   so sweeps can see how often the incremental path pays off.

Correctness oracle
------------------

``paranoid=True`` cross-checks every repair against a from-scratch
recolor: the repaired rounds are exhaustively re-validated
(:func:`validate_rounds`) and, only when the repair needs more rounds than
the scratch solution, the scratch result is returned instead (counted
under ``rwa.repair_paranoid_divergence``). A repair that needs no more
rounds is kept: pinning can pack tighter than scratch's greedy order, as
on a ring of 20 at w=4 with λ3 blocked, where the repair keeps the cached
2 rounds and a scratch ``plan_rounds`` needs 3. The live executor and the
fault smoke CLI expose this as ``--paranoid-repair``; the property tests
drive it over random deltas.

Repaired colorings are *valid by construction* but need not be identical
to a from-scratch recolor — repair optimizes for perturbation, scratch for
packing. Both must pass the :mod:`repro.check` plan rules; the test suite
asserts exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.backend.errors import BackendExecutionError
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.optical.rwa import plan_rounds, segment_bits
from repro.optical.topology import Direction, Route
from repro.sim.rng import SeededRng

#: Default cascade bound: past this fraction of invalidated transfers a
#: repair falls back to a full recolor (the subgraph is no longer "small").
DEFAULT_MAX_AFFECTED_FRAC = 0.5


class RepairValidationError(BackendExecutionError):
    """A repaired assignment violated a channel constraint (repair bug).

    A typed :class:`~repro.backend.errors.BackendError`, so callers handle
    it like any other lowering failure and it pickles across workers.
    """


@dataclass(frozen=True)
class RwaContext:
    """The channel-space constraints one RWA solution was computed under.

    Attributes:
        n_segments: Ring size (segments per direction).
        n_wavelengths: Wavelengths per fiber.
        fibers_per_direction: Parallel fibers per direction.
        blocked: Wavelengths unusable everywhere.
        route_blocked: Optional per-route wavelength bans.
        preoccupied: Busy segment bitmask per (direction, wavelength).
    """

    n_segments: int
    n_wavelengths: int
    fibers_per_direction: int = 1
    blocked: frozenset[int] = frozenset()
    route_blocked: tuple[frozenset[int], ...] | None = None
    preoccupied: Mapping[tuple[Direction, int], int] | None = None


@dataclass
class RwaSolution:
    """A solved step: routes, their masks, and the per-round assignments.

    Captured by :class:`~repro.optical.network.OpticalRingNetwork` when
    ``keep_solutions`` is set, and consumed by :func:`repair_rounds` when a
    fault delta arrives.

    Attributes:
        routes: One route per transfer (index identifies the transfer).
        masks: Segment bitmask per route.
        rounds: ``plan_rounds`` output — per round, index -> (fiber, λ).
        ctx: The constraints the solution was computed under.
    """

    routes: list[Route]
    masks: list[int]
    rounds: list[dict[int, tuple[int, int]]]
    ctx: RwaContext = field(default_factory=lambda: RwaContext(1, 1))


def route_masks(routes: Sequence[Route]) -> list[int]:
    """Segment-set bitmask per route (bit ``s`` set iff segment crossed)."""
    masks = []
    for route in routes:
        mask = 0
        for seg in route.segments:
            mask |= 1 << seg
        masks.append(mask)
    return masks


def capture_solution(
    routes: Sequence[Route],
    rounds: Sequence[Mapping[int, tuple[int, int]]],
    ctx: RwaContext,
    masks: Sequence[int] | None = None,
) -> RwaSolution:
    """Freeze a ``plan_rounds`` result into a repairable solution."""
    return RwaSolution(
        routes=list(routes),
        masks=list(masks) if masks is not None else route_masks(routes),
        rounds=[dict(r) for r in rounds],
        ctx=ctx,
    )


def affected_indices(
    solution: RwaSolution,
    new_routes: Sequence[Route],
    new_masks: Sequence[int],
    new_ctx: RwaContext,
    edited: frozenset[int] = frozenset(),
) -> set[int]:
    """Transfers whose existing claims intersect the constraint delta.

    A transfer is invalidated when its assigned wavelength became globally
    blocked, its per-route ban set grew to cover the assignment, a new
    quarantine span overlaps its segment mask on the assigned wavelength,
    or its route itself changed (``edited`` — fiber-cut detours). Removed
    constraints never invalidate anything: the old assignment stays
    feasible when the feasible set grows.
    """
    old, new = solution.ctx, new_ctx
    newly_blocked = new.blocked - old.blocked
    pre_old = old.preoccupied or {}
    # Each kind of delta is tested only when it is present.
    grown = {
        key: span & ~pre_old.get(key, 0)
        for key, span in (new.preoccupied or {}).items()
        if span & ~pre_old.get(key, 0)
    }
    affected = set(edited)
    for rnd in solution.rounds:
        for idx, (_fiber, lam) in rnd.items():
            if idx in affected:
                continue
            if lam in newly_blocked:
                affected.add(idx)
                continue
            if new.route_blocked and lam in new.route_blocked[idx] and not (
                old.route_blocked and lam in old.route_blocked[idx]
            ):
                affected.add(idx)
                continue
            if grown and grown.get((new_routes[idx].direction, lam), 0) & new_masks[idx]:
                affected.add(idx)
    return affected


def _allowed_channels(ctx: RwaContext) -> list[tuple[int, int]]:
    """The (fiber, wavelength) probe order, minus globally blocked λ."""
    return [
        (f, lam)
        for f in range(ctx.fibers_per_direction)
        for lam in range(ctx.n_wavelengths)
        if lam not in ctx.blocked
    ]


def _pin_recolor(
    routes: Sequence[Route],
    masks: Sequence[int],
    rounds: Sequence[Mapping[int, tuple[int, int]]],
    affected: set[int],
    ctx: RwaContext,
) -> tuple[list[dict[int, tuple[int, int]]] | None, set[int]]:
    """Recolor ``affected`` with every other transfer pinned in place.

    The color space is (round, fiber, wavelength); probe order prefers a
    transfer's earliest round so the splice perturbs the plan minimally.
    Selection follows DSATUR over the affected conflict subgraph with the
    seed kernel's tie order (saturation, degree, lowest index).

    Pinned occupancy is one integer segment mask per (direction, color),
    built in O(pinned). The affected masks are unpacked into bits once per
    direction, so that direction's conflict matrix and its free-color
    matrix against the occupancy are one matmul each (as in
    :func:`repro.optical.rwa.dsatur_assign`). The next vertex is the argmax
    of one integer key ordering (saturation, degree, -index)
    lexicographically: the total order of the lazy-heap kernel in
    ``tests/optical/pin_recolor_reference.py``, so both return the same
    rounds or the same stuck vertex.

    Returns:
        ``(new_rounds, set())`` on success, or ``(None, stuck)`` where
        ``stuck`` holds the first vertex that had no free channel — the
        caller unpins its neighbours and retries.
    """
    allowed = _allowed_channels(ctx)
    capacity = len(allowed)
    if capacity == 0:
        return None, set(affected)
    n_rounds = len(rounds)
    n_colors = n_rounds * capacity
    chan_index = {chan: c for c, chan in enumerate(allowed)}

    # Occupancy per direction and color (round * capacity + channel),
    # seeded from quarantine spans plus pinned claims.
    cw = Direction.CW
    busy_cw, busy_ccw = [0] * n_colors, [0] * n_colors
    pre = ctx.preoccupied or {}
    if pre:
        for c, (_f, lam) in enumerate(allowed):
            for direction, busy in ((cw, busy_cw), (Direction.CCW, busy_ccw)):
                span = pre.get((direction, lam), 0)
                if span:
                    for color in range(c, n_colors, capacity):
                        busy[color] |= span
    for r, rnd in enumerate(rounds):
        offset = r * capacity
        for idx, chan in rnd.items():
            if idx in affected:
                continue
            c = chan_index.get(chan)
            if c is None:
                # A pinned claim on a now-banned channel means the delta
                # computation missed it — treat as infeasible pinning.
                return None, {idx}
            if routes[idx].direction is cw:
                busy_cw[offset + c] |= masks[idx]
            else:
                busy_ccw[offset + c] |= masks[idx]

    # Affected vertices by position: clockwise first, each direction in
    # index order, so a direction's rows are one contiguous slice.
    ascending = sorted(affected)
    order = [v for v in ascending if routes[v].direction is cw]
    split = len(order)
    order += [v for v in ascending if routes[v].direction is not cw]
    n_aff = len(order)
    # Per direction: (first position, conflict, free, key slice).
    # ``free[color, local]`` turns False once ``color`` is banned, occupied
    # or taken by a colored neighbour, and for every color once the vertex
    # itself is colored. Bans and pinned occupancy are pre-marked WITHOUT
    # saturation, mirroring dsatur_assign's fault handling: the selection
    # order depends only on the affected vertices' mutual conflicts.
    # ``key`` orders (saturation, degree, -index) as one integer; a colored
    # vertex's key is -1.
    ceiling = max(order, default=0) + 1
    key = np.zeros(n_aff, dtype=np.int64)
    max_deg = 0
    groups = []
    for lo, hi, busy in ((0, split, busy_cw), (split, n_aff, busy_ccw)):
        members = order[lo:hi]
        bits = segment_bits([masks[v] for v in members])
        # Occupied segments beyond the members' widest mask cannot collide.
        width = (1 << bits.shape[1]) - 1
        occupied = segment_bits([mask & width for mask in busy], bits.shape[1] // 8)
        bits = bits.astype(np.float32)
        free = (occupied.astype(np.float32) @ bits.T) == 0
        conflict = (bits @ bits.T) > 0
        np.fill_diagonal(conflict, False)
        if ctx.route_blocked:
            by_round = free.reshape(n_rounds, capacity, hi - lo)
            for local, v in enumerate(members):
                bans = ctx.route_blocked[v]
                if bans:
                    banned = [c for c, (_f, lam) in enumerate(allowed) if lam in bans]
                    by_round[:, banned, local] = False
        deg = np.count_nonzero(conflict, axis=1)
        max_deg = max(max_deg, int(deg.max(initial=0)))
        key[lo:hi] = deg * ceiling + (ceiling - 1 - np.array(members, dtype=np.int64))
        groups.append((lo, conflict, free, key[lo:hi]))
    sat_unit = np.int64((max_deg + 1) * ceiling)
    if order and not n_colors:
        return None, {order[int(key.argmax())]}
    colors = [0] * n_aff
    for _ in range(n_aff):
        pos = int(key.argmax())
        lo, conflict, free, group_key = groups[pos >= split]
        local = pos - lo
        column = free[:, local]
        color = int(column.argmax())
        if not column[color]:
            return None, {order[pos]}
        colors[pos] = color
        key[pos] = -1
        column[:] = False
        fresh = conflict[local] & free[color]
        free[color] ^= fresh
        group_key += fresh * sat_unit

    new_rounds = [
        {idx: chan for idx, chan in rnd.items() if idx not in affected}
        for rnd in rounds
    ]
    for v, color in sorted(zip(order, colors)):
        r, c = divmod(color, capacity)
        new_rounds[r][v] = allowed[c]
    return [rnd for rnd in new_rounds if rnd], set()


def repair_rounds(
    solution: RwaSolution,
    new_routes: Sequence[Route],
    new_ctx: RwaContext,
    *,
    edited: frozenset[int] = frozenset(),
    strategy: str = "first_fit",
    rng: SeededRng | None = None,
    max_affected_frac: float = DEFAULT_MAX_AFFECTED_FRAC,
    paranoid: bool = False,
    metrics: MetricsRegistry = NULL_METRICS,
) -> list[dict[int, tuple[int, int]]]:
    """Splice a constraint delta into a cached solution.

    Args:
        solution: The cached assignment (same transfer indexing as
            ``new_routes``).
        new_routes: Routes under the new constraints; differs from
            ``solution.routes`` only at ``edited`` indices.
        new_ctx: The new channel-space constraints.
        edited: Indices whose route (or payload identity) changed and must
            be recolored regardless of claim intersection.
        strategy / rng: Forwarded to the full-recolor fallback only — the
            incremental path itself is deterministic.
        max_affected_frac: Cascade bound; past it the repair falls back to
            a full recolor (``rwa.repair_fallback``).
        paranoid: Cross-check against a from-scratch recolor (see module
            docstring); the oracle behind ``--paranoid-repair``.
        metrics: Records ``rwa.repair_calls``, ``rwa.repair_affected``,
            ``rwa.repair_noop``, ``rwa.repair_cascades``,
            ``rwa.repair_fallback`` and ``rwa.repair_paranoid_divergence``
            plus the wall-clock ``rwa.repair`` span.

    Returns:
        Rounds in ``plan_rounds`` format, covering every index exactly
        once and valid under ``new_ctx``.
    """
    n = len(new_routes)
    if n != len(solution.routes):
        raise ValueError(
            f"solution covers {len(solution.routes)} transfers but the "
            f"delta has {n}"
        )
    metrics.inc("rwa.repair_calls")

    def full_recolor(
        oracle: bool = False,
    ) -> list[dict[int, tuple[int, int]]]:
        # The paranoid oracle's scratch solve is a cross-check, not a
        # fallback: it neither counts rwa.repair_fallback nor distorts the
        # plan_rounds counters of the run under observation.
        if not oracle:
            metrics.inc("rwa.repair_fallback")
        return plan_rounds(
            list(new_routes),
            n_segments=new_ctx.n_segments,
            n_wavelengths=new_ctx.n_wavelengths,
            fibers_per_direction=new_ctx.fibers_per_direction,
            strategy=strategy,
            rng=rng,
            blocked=new_ctx.blocked,
            route_blocked=new_ctx.route_blocked,
            preoccupied=new_ctx.preoccupied,
            metrics=NULL_METRICS if oracle else metrics,
        )

    with metrics.span("rwa.repair"):
        masks = list(solution.masks)
        for i in sorted(edited):
            masks[i] = route_masks([new_routes[i]])[0]
        affected = affected_indices(solution, new_routes, masks, new_ctx, edited)
        metrics.inc("rwa.repair_affected", len(affected))
        if not affected:
            metrics.inc("rwa.repair_noop")
            return [dict(rnd) for rnd in solution.rounds]

        repaired: list[dict[int, tuple[int, int]]] | None = None
        # Segment bits and direction of every transfer, unpacked on the
        # first cascade only: a repair that never cascades pays nothing.
        bits = clockwise = None
        while True:
            if len(affected) > max_affected_frac * n:
                repaired = None
                break
            repaired, stuck = _pin_recolor(
                new_routes, masks, solution.rounds, affected, new_ctx
            )
            if repaired is not None:
                break
            # Unpin the stuck vertices' conflict neighbours (same
            # direction, a shared segment bit) and retry — the transitive
            # closure over the bitmask occupancy.
            if bits is None:
                bits = segment_bits(masks).view(bool)
                clockwise = np.fromiter(
                    (route.direction is Direction.CW for route in new_routes),
                    dtype=bool, count=n,
                )
            grown = set(affected)
            for v in stuck:
                row = bits[:, bits[v]].any(axis=1) & (clockwise == clockwise[v])
                grown.update(np.flatnonzero(row).tolist())
            if grown == affected:
                repaired = None
                break
            metrics.inc("rwa.repair_cascades")
            affected = grown

        if repaired is None:
            return full_recolor()

    if paranoid:
        validate_rounds(new_routes, masks, repaired, new_ctx)
        scratch = full_recolor(oracle=True)
        if len(repaired) > len(scratch):
            metrics.inc("rwa.repair_paranoid_divergence")
            return scratch
    return repaired


def validate_rounds(
    routes: Sequence[Route],
    masks: Sequence[int],
    rounds: Sequence[Mapping[int, tuple[int, int]]],
    ctx: RwaContext,
) -> None:
    """Exhaustively re-derive every channel constraint on ``rounds``.

    Checks coverage (each index assigned exactly once), segment
    exclusivity per (round, direction, fiber, wavelength), global and
    per-route wavelength bans, and quarantine-span disjointness.

    Raises:
        RepairValidationError: Naming the first violated constraint.
    """
    seen_idx: set[int] = set()
    pre = ctx.preoccupied or {}
    for r, rnd in enumerate(rounds):
        occupancy: dict[tuple[Direction, int, int], int] = {}
        for idx, (fiber, lam) in rnd.items():
            if idx in seen_idx:
                raise RepairValidationError(f"transfer {idx} assigned twice")
            seen_idx.add(idx)
            if lam in ctx.blocked:
                raise RepairValidationError(
                    f"round {r}: transfer {idx} rides blocked wavelength {lam}"
                )
            if ctx.route_blocked is not None and lam in ctx.route_blocked[idx]:
                raise RepairValidationError(
                    f"round {r}: transfer {idx} rides banned wavelength {lam}"
                )
            if fiber >= ctx.fibers_per_direction or lam >= ctx.n_wavelengths:
                raise RepairValidationError(
                    f"round {r}: transfer {idx} on out-of-range channel "
                    f"({fiber}, {lam})"
                )
            direction = routes[idx].direction
            if pre.get((direction, lam), 0) & masks[idx]:
                raise RepairValidationError(
                    f"round {r}: transfer {idx} crosses a quarantined span "
                    f"on wavelength {lam}"
                )
            key = (direction, fiber, lam)
            if occupancy.get(key, 0) & masks[idx]:
                raise RepairValidationError(
                    f"round {r}: channel {key} carries overlapping segments"
                )
            occupancy[key] = occupancy.get(key, 0) | masks[idx]
    missing = set(range(len(routes))) - seen_idx
    if missing:
        raise RepairValidationError(
            f"transfers never assigned: {sorted(missing)}"
        )
