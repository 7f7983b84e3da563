"""Hierarchical-Ring (H-Ring) All-reduce (Ueno & Yokota [28]).

Three phases over groups of ``m`` contiguous nodes:

1. **Intra-group ring All-reduce** — each group runs a full ring All-reduce
   on its members (reduce-scatter + all-gather over ``g`` chunks),
   ``2(max_g − 1)`` bulk-synchronous steps with every group progressing
   concurrently. Afterwards every member holds its group's sum.
2. **Inter-group ring All-reduce** — the group leaders (first member of
   each group) run a ring All-reduce over ``G = ⌈N/m⌉`` leaders,
   ``2(G − 1)`` steps. Leaders now hold the global sum.
3. **Leader broadcast** — each leader copies the full result to its group
   members in one step (``⌊m/2⌋`` wavelengths on the optical ring).

Total: ``2(m−1) + 2(G−1) + 1 = 2m + 2N/m − 3`` steps for ``m | N`` — exactly
the Table 1 closed form for ``⌈m/w⌉ = 1`` (e.g. N=1024, m=5 → 417 steps).
When wavelengths are scarce (``⌈m/w⌉ > 1``) the optical executor serializes
intra-group steps into rounds; the closed form in
:func:`repro.core.steps.hring_steps` accounts for that case analytically.
"""

from __future__ import annotations

import numpy as np

from repro.collectives.base import COPY, SUM, Schedule, singleton_schedule
from repro.collectives.structure import (
    TOTAL,
    ZERO,
    Draft,
    Structure,
    instantiate,
    memoized,
)
from repro.core.grouping import partition_ring
from repro.util.validation import check_positive_int


def _ring_hops(rings: list[tuple[int, ...]]) -> tuple[np.ndarray, np.ndarray]:
    """Senders and receivers of one ring step in every ring, ring-major."""
    src = [member for ring in rings for member in ring]
    dst = [ring[(i + 1) % len(ring)] for ring in rings for i in range(len(ring))]
    return np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)


def _ring_chunks(draft: Draft, rings: list[tuple[int, ...]], s: int) -> np.ndarray:
    """Chunk refs of reduce-scatter step ``s``: member ``i`` of each ring
    sends chunk ``(i − s) mod g`` of its ring's ``g`` balanced chunks (the
    all-gather passes ``s − 1``)."""
    return np.concatenate([
        draft.layout.edges(len(ring)) + (np.arange(len(ring)) - s) % len(ring)
        for ring in rings
    ])


def _intra_steps(draft: Draft, groups) -> list[int]:
    """Concurrent per-group ring All-reduce steps (phases padded to max g)."""
    max_g = max(len(g.members) for g in groups)
    steps: list[int] = []
    for s in range(max_g - 1):  # reduce-scatter
        rings = [g.members for g in groups if s < len(g.members) - 1]
        src, dst = _ring_hops(rings)
        chunk = _ring_chunks(draft, rings, s)
        steps.append(draft.add(src, dst, chunk, chunk + 1, SUM, "reduce", 1))
    for s in range(max_g - 1):  # all-gather
        rings = [g.members for g in groups if s < len(g.members) - 1]
        src, dst = _ring_hops(rings)
        chunk = _ring_chunks(draft, rings, s - 1)
        steps.append(draft.add(src, dst, chunk, chunk + 1, COPY, "broadcast", 1))
    return steps


def _inter_steps(draft: Draft, leaders: tuple[int, ...]) -> list[int]:
    """Ring All-reduce over the group leaders."""
    if len(leaders) == 1:
        return []
    src, dst = _ring_hops([leaders])
    steps = []
    for s in range(len(leaders) - 1):
        chunk = _ring_chunks(draft, [leaders], s)
        steps.append(draft.add(src, dst, chunk, chunk + 1, SUM, "reduce", 2))
    for s in range(len(leaders) - 1):
        chunk = _ring_chunks(draft, [leaders], s - 1)
        steps.append(draft.add(src, dst, chunk, chunk + 1, COPY, "broadcast", 2))
    return steps


def _leader_broadcast(draft: Draft, groups) -> int | None:
    """Leaders push the global sum to their members (one step)."""
    src = [g.members[0] for g in groups for _ in g.members[1:]]
    dst = [member for g in groups for member in g.members[1:]]
    if not src:
        return None
    return draft.add(src, dst, ZERO, TOTAL, COPY, "broadcast", 1)


def _structure(n: int, m: int, materialize: bool) -> Structure:
    groups = partition_ring(list(range(n)), m)
    leaders = tuple(g.members[0] for g in groups)
    draft = Draft()
    steps: list[int] = []
    if materialize:
        steps = _intra_steps(draft, groups)
        inter = _inter_steps(draft, leaders)
        steps += inter
        if inter:  # members only lack the global sum if an inter phase ran
            bcast = _leader_broadcast(draft, groups)
            if bcast is not None:
                steps.append(bcast)
    # Uniform-size timing profile (see ring.py for the approximation note).
    max_g = max(len(g.members) for g in groups)
    n_groups = len(groups)
    profile: list[tuple[int, int]] = []
    if max_g > 1:
        intra_chunk = draft.layout.chunk(max_g)
        src, dst = _ring_hops([g.members for g in groups if len(g.members) > 1])
        profile.append(
            (draft.add(src, dst, ZERO, intra_chunk, SUM, "reduce", 1), max_g - 1)
        )
        profile.append(
            (draft.add(src, dst, ZERO, intra_chunk, COPY, "broadcast", 1), max_g - 1)
        )
    if n_groups > 1:
        inter_chunk = draft.layout.chunk(n_groups)
        src, dst = _ring_hops([leaders])
        profile.append(
            (draft.add(src, dst, ZERO, inter_chunk, SUM, "reduce", 2), n_groups - 1)
        )
        profile.append(
            (draft.add(src, dst, ZERO, inter_chunk, COPY, "broadcast", 2), n_groups - 1)
        )
        bcast = _leader_broadcast(draft, groups)
        if bcast is not None:
            profile.append((bcast, 1))
    return draft.finish(steps, profile, keep_steps=materialize, extras=n_groups)


def build_hring_schedule(
    n_nodes: int,
    total_elems: int,
    m: int | None = None,
    materialize: bool | None = None,
) -> Schedule:
    """Build the H-Ring All-reduce schedule.

    Args:
        n_nodes: Participants N >= 1.
        total_elems: Gradient vector length.
        m: Intra-group size; defaults to the paper's ``min(5, N)``.
        materialize: Force/skip exact steps; ``None`` materializes for
            N <= 128.

    Returns:
        A :class:`Schedule`; ``meta["n_groups"]`` records ``⌈N/m⌉``.
    """
    check_positive_int("n_nodes", n_nodes)
    check_positive_int("total_elems", total_elems)
    if m is None:
        m = min(5, n_nodes)
    check_positive_int("m", m)
    if n_nodes == 1:
        return singleton_schedule("hring", total_elems)
    if m > n_nodes:
        raise ValueError(f"group size m={m} exceeds n_nodes={n_nodes}")
    if materialize is None:
        materialize = n_nodes <= 128
    materialize = bool(materialize)
    structure = memoized(
        ("hring", n_nodes, materialize, m),
        lambda: _structure(n_nodes, m, materialize),
    )
    steps, profile = instantiate(structure, total_elems)
    return Schedule(
        algorithm="hring",
        n_nodes=n_nodes,
        total_elems=total_elems,
        steps=steps,
        timing_profile=profile,
        meta={
            "profile_exact": False,
            "n_groups": structure.extras,
            "m": m,
        },
    )
