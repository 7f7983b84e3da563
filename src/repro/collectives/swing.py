"""Swing All-reduce: distance-doubling ring with alternating short-cuts.

The logical construction of Swing (arXiv 2401.09356): the vector is split
into ``P`` blocks over ``P = 2^K`` core ranks and reduced in ``K`` steps of
recursive halving followed by ``K`` mirrored all-gather steps — the same
``2·⌈log₂P⌉`` step count as Rabenseifner's halving/doubling — but the peer
of rank ``i`` at step ``s`` is chosen on the *ring*:

    π(i, s) = (i + (−1)^i · ρ(s)) mod P,   ρ(s) = Σ_{k≤s} (−2)^k

so even ranks hop ``+ρ(s)`` and odd ranks ``−ρ(s)`` (ρ = 1, −1, 3, −5, 11,
…). ρ is always odd, which makes π an involution pairing even with odd
ranks, and the alternating signs keep the ring distance of every exchange
bounded by ≈ P/3 instead of recursive doubling's P/2 — the property that
makes Swing attractive on ring-like physical topologies.

Block routing follows the standard cover-set recursion: after the final
step rank ``i`` is responsible for block ``i`` alone (``c(i, K) = {i}``),
and one step earlier it was responsible for ``c(i, s) = c(i, s+1) ∪
c(π(i,s), s+1)``. Reduce-scatter step ``s`` therefore sends the blocks
``c(π(i,s), s+1)`` (``2^{K−s−1}`` of them, i.e. payload ``d/2^{s+1}``) to
the peer; the all-gather mirrors the recursion in reverse with ``copy``
transfers. Cover sets are generally non-contiguous, so materialized steps
carry one transfer per consecutive block run.

Non-powers of two use the MPICH fold of :mod:`repro.collectives.rd`: the
first ``2r`` nodes (``r = N − P``) fold odd→even in a pre-step and receive
the result back in a post-step, adding two full-vector steps.
"""

from __future__ import annotations

import numpy as np

from repro.collectives.base import COPY, SUM, Schedule, singleton_schedule
from repro.collectives.rd import _core_node
from repro.collectives.ring import MATERIALIZE_DEFAULT_LIMIT
from repro.collectives.structure import (
    TOTAL,
    ZERO,
    Draft,
    Structure,
    instantiate,
    memoized,
)
from repro.util.validation import check_positive_int


def swing_distance(s: int) -> int:
    """The step-``s`` hop distance ``ρ(s) = Σ_{k=0}^{s} (−2)^k`` (1, −1, 3, …)."""
    if s < 0:
        raise ValueError(f"step index must be >= 0, got {s!r}")
    return (1 - (-2) ** (s + 1)) // 3


def swing_peer(rank: int, s: int, p: int) -> int:
    """Swing's step-``s`` peer of ``rank`` among ``p`` core ranks.

    ρ(s) is odd, so the map is an involution that always pairs an even
    rank with an odd one — every rank has exactly one peer per step.
    """
    sign = 1 if rank % 2 == 0 else -1
    return (rank + sign * swing_distance(s)) % p


def _cover_sets(p: int) -> list[dict[int, tuple[int, ...]]]:
    """``cover[s][i]`` = blocks rank ``i`` is responsible for before step ``s``.

    ``cover[K][i] = (i,)``; going backward each step merges a rank's set
    with its peer's. The sets at a fixed ``s`` partition ``range(p)`` —
    the invariant that makes the reduce-scatter conflict-free.
    """
    k_levels = p.bit_length() - 1
    cover: list[dict[int, tuple[int, ...]]] = [{} for _ in range(k_levels + 1)]
    cover[k_levels] = {i: (i,) for i in range(p)}
    for s in range(k_levels - 1, -1, -1):
        nxt = cover[s + 1]
        cover[s] = {
            i: tuple(sorted(nxt[i] + nxt[swing_peer(i, s, p)])) for i in range(p)
        }
    return cover


def _block_runs(
    src: int, dst: int, blocks: tuple[int, ...]
) -> list[tuple[int, int, int, int]]:
    """``(src, dst, first block, end block)`` per consecutive run of block
    ids (blocks are sorted)."""
    runs = []
    run_start = 0
    for idx in range(1, len(blocks) + 1):
        if idx == len(blocks) or blocks[idx] != blocks[idx - 1] + 1:
            runs.append((src, dst, blocks[run_start], blocks[idx - 1] + 1))
            run_start = idx
    return runs


def _structure(n: int, materialize: bool) -> Structure:
    k_levels = n.bit_length() - 1
    p = 1 << k_levels
    r = n - p
    draft = Draft()
    ranks = np.arange(p)
    nodes = _core_node(ranks, r)
    sign = 1 - 2 * (ranks % 2)  # swing_peer for every rank at once
    peer_ranks = [(ranks + sign * swing_distance(s)) % p for s in range(k_levels)]
    peers = [_core_node(peer_rank, r) for peer_rank in peer_ranks]
    folded = np.arange(r)
    steps: list[int] = []
    if r > 0:  # MPICH fold: odds of the first 2r nodes onto the evens
        steps.append(draft.add(2 * folded + 1, 2 * folded, ZERO, TOTAL, SUM, "reduce"))
    if materialize:
        # One transfer per consecutive block run of the cover set: the
        # peer's set while reducing, the rank's own while gathering.
        edges = draft.layout.edges(p)
        cover = _cover_sets(p)

        def add_runs(s: int, op: int, stage: str, own: bool) -> int:
            runs = [
                run
                for i in range(p)
                for run in _block_runs(
                    int(nodes[i]), int(peers[s][i]),
                    cover[s + 1][i if own else int(peer_ranks[s][i])],
                )
            ]
            src, dst, first, end = np.array(runs, dtype=np.int64).T.copy()
            return draft.add(src, dst, edges + first, edges + end, op, stage, s + 1)

        steps += [add_runs(s, SUM, "reduce", own=False) for s in range(k_levels)]
        steps += [
            add_runs(k_levels - 1 - t, COPY, "broadcast", own=True)
            for t in range(k_levels)
        ]
    else:
        # One coalesced transfer per (rank, peer) pair of the uniform
        # ⌈d/P⌉ chunk times the blocks it carries — the same per-pair volume
        # as the materialized block runs, without the O(N·P) intervals.
        for s in range(k_levels):
            size = draft.layout.chunk(p, 1 << (k_levels - s - 1))
            steps.append(draft.add(nodes, peers[s], ZERO, size, SUM, "reduce", s + 1))
        for t in range(k_levels):
            s = k_levels - 1 - t
            size = draft.layout.chunk(p, 1 << t)
            steps.append(
                draft.add(nodes, peers[s], ZERO, size, COPY, "broadcast", s + 1)
            )
    if r > 0:  # hand the result back to the folded odd nodes
        steps.append(draft.add(2 * folded, 2 * folded + 1, ZERO, TOTAL, COPY, "broadcast"))
    if materialize:
        return draft.finish(steps, None, keep_steps=True)
    return draft.finish(steps, [(i, 1) for i in steps], keep_steps=False)


def build_swing_schedule(
    n_nodes: int, total_elems: int, materialize: bool | None = None
) -> Schedule:
    """Build the Swing All-reduce schedule.

    Args:
        n_nodes: Participants N >= 1 (any N; non-powers of two pay the
            two-step MPICH fold).
        total_elems: Gradient vector length.
        materialize: Force (True) or skip (False) exact step construction;
            ``None`` materializes for N <= 128 (cover-set materialization
            is O(N·P) intervals).

    Returns:
        A :class:`Schedule` with ``2⌊log₂N⌋`` core steps (+2 fold steps
        for non-powers of two). ``meta["profile_exact"]`` is True only for
        materialized schedules — the synthetic profile coalesces each
        peer's block runs into one uniform-chunk transfer.
    """
    check_positive_int("n_nodes", n_nodes)
    check_positive_int("total_elems", total_elems)
    if n_nodes == 1:
        return singleton_schedule("swing", total_elems)
    floor_log = n_nodes.bit_length() - 1
    p = 1 << floor_log
    r = n_nodes - p
    if materialize is None:
        materialize = n_nodes <= MATERIALIZE_DEFAULT_LIMIT
    materialize = bool(materialize)
    structure = memoized(
        ("swing", n_nodes, materialize), lambda: _structure(n_nodes, materialize)
    )
    steps, profile = instantiate(structure, total_elems)
    return Schedule(
        algorithm="swing",
        n_nodes=n_nodes,
        total_elems=total_elems,
        steps=steps,
        timing_profile=profile,
        meta={"profile_exact": bool(materialize), "power_of_two": r == 0},
    )
