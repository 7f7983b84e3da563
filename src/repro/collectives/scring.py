"""Short-circuiting ring (SCRing) All-reduce: chord-accelerated ring phases.

The latency repair for Ring All-reduce in the spirit of short-circuiting
rings (arXiv 2510.03491), adapted to this repo's bulk-synchronous step
model: Ring's ``2(N−1)`` steps are almost all latency (each step moves only
``d/N``), so SCRing cuts the *length of the dependency chains* instead of
the per-step volume.

For each chunk ``c`` (owned by node ``c``) the other ``N−1`` nodes — at
ring offsets ``1..N−1`` from the owner — are split into ``A`` contiguous
arcs. During reduce-scatter every arc accumulates its members'
contributions along a neighbor-hop chain toward the arc *head* (the arc
endpoint closest to the owner), and in one final delivery step all ``A``
heads send their arc partials straight to the owner over ring *chords*
(the short-circuit links). The all-gather mirrors this: one multicast step
from each owner to its chunk's arc heads, then neighbor-hop ``copy``
chains outward. All chunks proceed concurrently, so every step is a
circulant pattern.

With ``L = ⌈(N−1)/A⌉`` the longest arc, the schedule takes ``2L`` steps —
``A = 2`` (the ``pipeline=1`` default, one arc per ring direction) gives
``2⌈(N−1)/2⌉ ≈ N−1`` steps, half of Ring; the ``pipeline`` knob doubles
the arc count per unit, smoothly trading per-step fan-in (``A`` concurrent
wavelengths into each owner during the hub steps) for latency down to the
early-termination limit of 2 steps at ``A = N−1``.
"""

from __future__ import annotations

import numpy as np

from repro.collectives.base import COPY, SUM, Schedule, singleton_schedule
from repro.collectives.ring import MATERIALIZE_DEFAULT_LIMIT, chunk_bounds
from repro.collectives.structure import (
    ZERO,
    Draft,
    Structure,
    instantiate,
    memoized,
)
from repro.util.validation import check_positive_int


def scring_arcs(n_nodes: int, pipeline: int) -> list[tuple[int, ...]]:
    """Arc layout shared by the builder and the closed forms.

    Returns one offset tuple per arc, ordered far-end → head; offsets are
    relative to the chunk owner (``1..N−1``), arcs are contiguous and
    balanced. The head is the arc endpoint with the smaller ring distance
    to the owner, so chains always accumulate toward the owner.
    """
    check_positive_int("n_nodes", n_nodes)
    check_positive_int("pipeline", pipeline)
    if n_nodes < 2:
        return []
    n_arcs = min(2 * pipeline, n_nodes - 1)
    arcs: list[tuple[int, ...]] = []
    for lo, hi in chunk_bounds(n_nodes - 1, n_arcs):
        offsets = tuple(range(lo + 1, hi + 1))
        lo_dist = min(offsets[0], n_nodes - offsets[0])
        hi_dist = min(offsets[-1], n_nodes - offsets[-1])
        if lo_dist <= hi_dist:  # head at the low-offset end: chain runs downward
            arcs.append(tuple(reversed(offsets)))
        else:  # head at the high-offset end: chain runs upward
            arcs.append(offsets)
    return arcs


def _structure(n: int, pipeline: int, materialize: bool) -> Structure:
    """Every step is circulant: for each chunk ``c`` (in order), one
    transfer per active arc hop, offsets taken relative to the owner."""
    arcs = scring_arcs(n, pipeline)
    longest = max(len(arc) for arc in arcs)
    owners = np.arange(n)[:, None]
    draft = Draft()
    if materialize:
        chunks = draft.layout.edges(n) + np.arange(n)
    else:
        uniform = draft.layout.chunk(n)

    def circulant(hops: list[tuple[int, int]], op: int, stage: str) -> int:
        """One transfer per (chunk, hop), chunk-major, moving chunk ``c``'s
        own range when materialized and a uniform ``⌈d/N⌉`` otherwise."""
        src_off, dst_off = np.array(hops, dtype=np.int64).T
        src = ((owners + src_off) % n).ravel()
        dst = ((owners + dst_off) % n).ravel()
        if materialize:
            lo = np.repeat(chunks, len(hops))
            return draft.add(src, dst, lo, lo + 1, op, stage)
        return draft.add(src, dst, ZERO, uniform, op, stage)

    if materialize:
        steps = []
        for s in range(longest):  # reduce-scatter: chains end-aligned, then hub
            if s == longest - 1:  # delivery: every head chords to the owner
                hops = [(arc[-1], 0) for arc in arcs]
            else:
                hops = []
                for arc in arcs:
                    j = s - (longest - len(arc))  # chain hop index (end-aligned)
                    if 0 <= j < len(arc) - 1:
                        hops.append((arc[j], arc[j + 1]))
            steps.append(circulant(hops, SUM, "reduce"))
        for t in range(longest):  # all-gather: hub multicast, then chains outward
            if t == 0:  # owner chords the reduced chunk to every head
                hops = [(0, arc[-1]) for arc in arcs]
            else:
                hops = []
                for arc in arcs:
                    j = len(arc) - 1 - t  # chains start-aligned (short arcs finish early)
                    if j >= 0:
                        hops.append((arc[j + 1], arc[j]))
            steps.append(circulant(hops, COPY, "broadcast"))
        return draft.finish(steps, None, keep_steps=True, extras=arcs)
    # Synthetic circulant profile: chain, hub, hub, chain. Chain
    # representatives use each arc's steady-state hop (exact once every
    # chain is active; early ramp steps of shorter arcs carry fewer
    # transfers). Hub steps — chord delivery and multicast — are exact
    # patterns.
    profile = []
    if longest > 1:  # steady-state chain hop of every multi-node arc
        rs_hops = [(arc[-2], arc[-1]) for arc in arcs if len(arc) > 1]
        profile.append((circulant(rs_hops, SUM, "reduce"), longest - 1))
    delivery = [(arc[-1], 0) for arc in arcs]  # heads chord to the owner
    profile.append((circulant(delivery, SUM, "reduce"), 1))
    multicast = [(0, arc[-1]) for arc in arcs]  # owner chords to the heads
    profile.append((circulant(multicast, COPY, "broadcast"), 1))
    if longest > 1:
        ag_hops = [(arc[-1], arc[-2]) for arc in arcs if len(arc) > 1]
        profile.append((circulant(ag_hops, COPY, "broadcast"), longest - 1))
    return draft.finish(None, profile, keep_steps=False, extras=arcs)


def build_scring_schedule(
    n_nodes: int,
    total_elems: int,
    materialize: bool | None = None,
    pipeline: int = 1,
) -> Schedule:
    """Build the short-circuiting-ring All-reduce schedule.

    Args:
        n_nodes: Participants N >= 1 (any N — no power-of-two requirement).
        total_elems: Gradient vector length.
        materialize: Force (True) or skip (False) exact step construction;
            ``None`` materializes for N <= 128 (O(N²) transfers, like Ring).
        pipeline: Short-circuit degree >= 1. The chunk arcs number
            ``min(2·pipeline, N−1)``; 1 halves Ring's latency, larger
            values trade hub-step fan-in for fewer steps down to the
            2-step limit.

    Returns:
        A :class:`Schedule` with ``2·⌈(N−1)/min(2·pipeline, N−1)⌉`` steps.
    """
    check_positive_int("n_nodes", n_nodes)
    check_positive_int("total_elems", total_elems)
    check_positive_int("pipeline", pipeline)
    if n_nodes == 1:
        return singleton_schedule("scring", total_elems)
    if materialize is None:
        materialize = n_nodes <= MATERIALIZE_DEFAULT_LIMIT
    materialize = bool(materialize)
    structure = memoized(
        ("scring", n_nodes, materialize, pipeline),
        lambda: _structure(n_nodes, pipeline, materialize),
    )
    arcs = structure.extras
    steps, profile = instantiate(structure, total_elems)
    exact = materialize or (
        len({len(arc) for arc in arcs}) == 1 and total_elems % n_nodes == 0
    )
    return Schedule(
        algorithm="scring",
        n_nodes=n_nodes,
        total_elems=total_elems,
        steps=steps,
        timing_profile=profile,
        meta={
            "profile_exact": exact,
            "power_of_two": n_nodes & (n_nodes - 1) == 0,
            "pipeline": pipeline,
            "arcs": len(arcs),
        },
    )
