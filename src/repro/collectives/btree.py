"""Binary-tree (BT) All-reduce: binomial reduce + binomial broadcast.

The paper's Figure 2(a) baseline [33]: in reduce step ``k`` (1-based) the
ring is viewed in blocks of ``2^k``; the node at offset ``2^(k−1)`` of each
block sends its full partial sum to the block's first node. After
``⌈log₂ N⌉`` steps node 0 holds the global sum; broadcast replays the steps
in reverse with ``copy`` transfers. Every transfer carries the **full**
vector — the step count is logarithmic but each step pays ``d/B``, which is
why BT struggles on large models (Sec 5.5).
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
from repro.util.validation import check_positive_int


def _structure(n: int, keep_steps: bool) -> Structure:
    """Level ``k`` pairs the node at offset ``2^(k−1)`` of each ``2^k``
    block with the block's first node; every transfer is the full vector."""
    # ``(n-1).bit_length()`` is ⌈log₂ n⌉ computed exactly in integers —
    # no float log2 that could misround near large powers of two.
    n_levels = (n - 1).bit_length()
    draft = Draft()
    senders, heads = {}, {}
    for k in range(1, n_levels + 1):
        half = 1 << (k - 1)
        senders[k] = np.arange(half, n, 1 << k)
        heads[k] = senders[k] - half
    steps = [
        draft.add(senders[k], heads[k], ZERO, TOTAL, SUM, "reduce", k)
        for k in range(1, n_levels + 1)
    ]
    steps += [
        draft.add(heads[k], senders[k], ZERO, TOTAL, COPY, "broadcast", k)
        for k in range(n_levels, 0, -1)
    ]
    return draft.finish(steps, None, keep_steps=keep_steps, extras=n_levels)


def build_bt_schedule(n_nodes: int, total_elems: int, materialize: bool | None = None) -> Schedule:
    """Build the binary-tree All-reduce schedule (``2⌈log₂N⌉`` steps).

    Args:
        n_nodes: Participants N >= 1 (any N, not just powers of two).
        total_elems: Gradient vector length.
        materialize: Kept for builder-API symmetry; BT schedules are always
            cheap to materialize (O(N log N) transfers), so exact steps are
            built unless explicitly disabled.
    """
    check_positive_int("n_nodes", n_nodes)
    check_positive_int("total_elems", total_elems)
    if n_nodes == 1:
        return singleton_schedule("bt", total_elems)
    keep_steps = materialize is not False
    structure = memoized(
        ("bt", n_nodes, keep_steps), lambda: _structure(n_nodes, keep_steps)
    )
    steps, profile = instantiate(structure, total_elems)
    return Schedule(
        algorithm="bt",
        n_nodes=n_nodes,
        total_elems=total_elems,
        steps=steps,
        timing_profile=profile,
        meta={"profile_exact": True, "n_levels": structure.extras},
    )
