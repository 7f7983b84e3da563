"""The pure-Python repair kernels: parity oracles for ``repro.optical.repair``.

``pin_recolor_reference`` is the pinned DSATUR recolor ``_pin_recolor``
ran before it moved to arrays, and ``affected_indices_reference`` the
delta scan ``affected_indices`` ran before it tested only the kinds of
delta present; both are kept verbatim. The recolor builds one ``seen``
bytearray per affected vertex and an O(affected²) adjacency in pure
Python, and pops the next vertex from a lazy heap keyed on (saturation,
degree, lowest index). The array kernels must return the same results on
every call (``tests/optical/test_pin_recolor_parity.py``). They are slow:
use them on small inputs only.
"""

from __future__ import annotations

import heapq
from typing import Mapping, Sequence

from repro.optical.repair import RwaContext, RwaSolution, _allowed_channels
from repro.optical.topology import Direction, Route


def affected_indices_reference(
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
    pre_new = new.preoccupied or {}
    affected = set(edited)
    for rnd in solution.rounds:
        for idx, (_fiber, lam) in rnd.items():
            if idx in affected:
                continue
            if lam in newly_blocked:
                affected.add(idx)
                continue
            bans_old = old.route_blocked[idx] if old.route_blocked else frozenset()
            bans_new = new.route_blocked[idx] if new.route_blocked else frozenset()
            if lam in bans_new - bans_old:
                affected.add(idx)
                continue
            direction = new_routes[idx].direction
            grown = pre_new.get((direction, lam), 0) & ~pre_old.get((direction, lam), 0)
            if grown & new_masks[idx]:
                affected.add(idx)
    return affected


def pin_recolor_reference(
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

    # Occupancy seeded from pinned claims plus quarantine spans.
    busy: list[dict[Direction, list[int]]] = [
        {d: [0] * capacity for d in Direction} for _ in range(n_rounds)
    ]
    pre = ctx.preoccupied or {}
    if pre:
        for c, (_f, lam) in enumerate(allowed):
            for direction in Direction:
                span = pre.get((direction, lam), 0)
                if span:
                    for r in range(n_rounds):
                        busy[r][direction][c] |= span
    for r, rnd in enumerate(rounds):
        for idx, chan in rnd.items():
            if idx in affected:
                continue
            c = chan_index.get(chan)
            if c is None:
                # A pinned claim on a now-banned channel means the delta
                # computation missed it — treat as infeasible pinning.
                return None, {idx}
            busy[r][routes[idx].direction][c] |= masks[idx]

    order = sorted(affected)
    adj: dict[int, list[int]] = {v: [] for v in order}
    for i, v in enumerate(order):
        for u in order[i + 1 :]:
            if routes[v].direction is routes[u].direction and masks[v] & masks[u]:
                adj[v].append(u)
                adj[u].append(v)
    deg = {v: len(adj[v]) for v in order}
    # Bans and pinned occupancy are pre-marked as seen WITHOUT saturation,
    # mirroring dsatur_assign's fault handling: the selection order among
    # the affected vertices depends only on their mutual conflicts.
    seen = {v: bytearray(n_colors) for v in order}
    for v in order:
        bans = ctx.route_blocked[v] if ctx.route_blocked else frozenset()
        mask = masks[v]
        direction = routes[v].direction
        for c, (_f, lam) in enumerate(allowed):
            banned = lam in bans
            for r in range(n_rounds):
                if banned or busy[r][direction][c] & mask:
                    seen[v][r * capacity + c] = 1

    sat = {v: 0 for v in order}
    heap = [(0, -deg[v], v) for v in order]
    heapq.heapify(heap)
    colors: dict[int, int] = {}
    while len(colors) < len(order):
        while True:
            neg_sat, _neg_deg, pick = heapq.heappop(heap)
            if pick not in colors and -neg_sat == sat[pick]:
                break
        row = seen[pick]
        color = next((c for c in range(n_colors) if not row[c]), None)
        if color is None:
            return None, {pick}
        colors[pick] = color
        r, c = divmod(color, capacity)
        busy[r][routes[pick].direction][c] |= masks[pick]
        for peer in adj[pick]:
            if peer in colors or seen[peer][color]:
                continue
            seen[peer][color] = 1
            sat[peer] += 1
            heapq.heappush(heap, (-sat[peer], -deg[peer], peer))

    new_rounds = [
        {idx: chan for idx, chan in rnd.items() if idx not in affected}
        for rnd in rounds
    ]
    for v in order:
        r, c = divmod(colors[v], capacity)
        new_rounds[r][v] = allowed[c]
    return [rnd for rnd in new_rounds if rnd], set()
