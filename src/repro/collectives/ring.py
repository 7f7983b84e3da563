"""Ring All-reduce: reduce-scatter followed by all-gather, ``2(N−1)`` steps.

The classic bandwidth-optimal construction (Baidu/Horovod style): the vector
is split into N chunks; in reduce-scatter step ``s`` node ``i`` sends chunk
``(i − s) mod N`` to node ``(i + 1) mod N`` which accumulates it, so after
``N−1`` steps node ``i`` owns the fully reduced chunk ``(i + 1) mod N``.
All-gather then circulates the reduced chunks with ``copy`` transfers for
another ``N−1`` steps. Every step moves ``d/N`` per node — the paper's
motivating contrast with WRHT's constant-``d`` steps.

Timing profile note: with ``total_elems`` not divisible by N, the exact
balanced chunks differ by one element between nodes, which would make every
step a distinct pattern. The profile instead uses a uniform chunk of
``⌈total/N⌉`` elements (marked ``meta["profile_exact"] = False``); the
timing error is below one element per transfer.
"""

from __future__ import annotations

import numpy as np

from repro.collectives.base import COPY, SUM, Schedule, singleton_schedule
from repro.collectives.structure import (
    ZERO,
    Draft,
    Structure,
    instantiate,
    memoized,
)
from repro.util.validation import check_positive_int

# Auto-materialization cutoff: above this node count the exact steps are not
# built unless explicitly requested (they are only needed for verification).
MATERIALIZE_DEFAULT_LIMIT = 128


def chunk_bounds(total_elems: int, n_chunks: int) -> list[tuple[int, int]]:
    """Balanced split of ``[0, total)`` into ``n_chunks`` contiguous ranges.

    The first ``total % n_chunks`` chunks get one extra element; empty
    chunks are produced when ``total < n_chunks`` (legal — they model nodes
    that own no slice this round).
    """
    check_positive_int("n_chunks", n_chunks)
    if total_elems < 0:
        raise ValueError(f"total_elems must be >= 0, got {total_elems!r}")
    base, extra = divmod(total_elems, n_chunks)
    bounds = []
    lo = 0
    for c in range(n_chunks):
        hi = lo + base + (1 if c < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def _structure(n: int, materialize: bool) -> Structure:
    """Every step sends node ``i``'s chunk to ``i + 1``; the chunk index
    rotates with the step, and the profile uses the uniform ``⌈d/N⌉``."""
    draft = Draft()
    edges = draft.layout.edges(n)
    nodes = np.arange(n)
    succ = (nodes + 1) % n
    steps = []
    if materialize:
        for s in range(n - 1):  # reduce-scatter: node i sends chunk (i - s)
            chunk = edges + (nodes - s) % n
            steps.append(draft.add(nodes, succ, chunk, chunk + 1, SUM, "reduce"))
        for s in range(n - 1):  # all-gather: node i forwards chunk (i + 1 - s)
            chunk = edges + (nodes + 1 - s) % n
            steps.append(draft.add(nodes, succ, chunk, chunk + 1, COPY, "broadcast"))
    uniform = draft.layout.chunk(n)
    rs = draft.add(nodes, succ, ZERO, uniform, SUM, "reduce")
    ag = draft.add(nodes, succ, ZERO, uniform, COPY, "broadcast")
    return draft.finish(steps, [(rs, n - 1), (ag, n - 1)], keep_steps=materialize)


def build_ring_schedule(
    n_nodes: int, total_elems: int, materialize: bool | None = None
) -> Schedule:
    """Build the Ring All-reduce schedule.

    Args:
        n_nodes: Participants N >= 1.
        total_elems: Gradient vector length.
        materialize: Force (True) or skip (False) exact step construction;
            ``None`` materializes for N <= 128.

    Returns:
        A :class:`Schedule` with ``2(N−1)`` steps.
    """
    check_positive_int("n_nodes", n_nodes)
    check_positive_int("total_elems", total_elems)
    if n_nodes == 1:
        return singleton_schedule("ring", total_elems)
    if materialize is None:
        materialize = n_nodes <= MATERIALIZE_DEFAULT_LIMIT
    materialize = bool(materialize)
    structure = memoized(
        ("ring", n_nodes, materialize), lambda: _structure(n_nodes, materialize)
    )
    steps, profile = instantiate(structure, total_elems)
    return Schedule(
        algorithm="ring",
        n_nodes=n_nodes,
        total_elems=total_elems,
        steps=steps,
        timing_profile=profile,
        meta={"profile_exact": total_elems % n_nodes == 0},
    )
