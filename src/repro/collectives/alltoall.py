"""One-step all-to-all exchange among a set of ring nodes.

WRHT's final reduce step (when the wavelength budget allows) is a single
all-to-all among the ``m*`` surviving representatives: every representative
sends its partial sum to every other and accumulates what it receives. The
partials cover disjoint original-node sets, so afterwards *all*
representatives hold the global sum — which is what lets the broadcast stage
skip one level (θ = 2L − 1).

The ``⌈k²/8⌉`` wavelength requirement for this step on a ring comes from the
one-stage model of Liang & Shen [13]; the optical substrate validates it
constructively by actually assigning wavelengths to these transfers.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.collectives.base import SUM, CommStep


def alltoall_pairs(nodes: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Senders and receivers of a full all-to-all among ``nodes``, in
    ``(a, b)`` order for every ``a`` then every ``b != a``.

    Raises:
        ValueError: Fewer than 2 nodes, or a repeated node.
    """
    nodes = np.array(list(nodes), dtype=np.int64)
    if len(nodes) < 2:
        raise ValueError(f"all-to-all needs >= 2 nodes, got {len(nodes)}")
    if len(np.unique(nodes)) != len(nodes):
        raise ValueError("all-to-all nodes must be distinct")
    k = len(nodes)
    off_diagonal = ~np.eye(k, dtype=bool)
    src = np.repeat(nodes, k).reshape(k, k)[off_diagonal]
    dst = np.tile(nodes, k).reshape(k, k)[off_diagonal]
    return src, dst


def build_alltoall_step(
    nodes: Sequence[int], total_elems: int, stage: str = "exchange", level: int = 0
) -> CommStep:
    """Full-vector all-to-all among ``nodes`` as one bulk-synchronous step.

    Args:
        nodes: Participating node ids (at least 2, all distinct).
        total_elems: Gradient vector length.
        stage: Stage label for reporting.
        level: Hierarchy level for reporting.

    Returns:
        A :class:`CommStep` with ``k(k−1)`` concurrent ``sum`` transfers.
    """
    src, dst = alltoall_pairs(nodes)
    return CommStep.from_arrays(
        src, dst, np.zeros_like(src), np.full_like(src, total_elems),
        np.full(len(src), SUM), stage=stage, level=level,
    )
