"""Recursive-doubling (RD) All-reduce with the MPICH non-power-of-two fix-up.

The Sec 5.6 electrical baseline. For ``N = 2^K`` nodes, step ``k`` pairs
node ``q`` with ``q XOR 2^k``; both exchange their full partial sums and
accumulate, so every node holds the global sum after ``K`` steps. For other
``N``, let ``P = 2^⌊log₂N⌋`` and ``r = N − P``: a pre-step folds the first
``2r`` nodes pairwise onto the even members, the power-of-two core runs on
the ``P`` survivors, and a post-step copies results back — ``⌊log₂N⌋ + 2``
steps total (matching :func:`repro.core.steps.rd_steps`).

A second variant, ``"halving_doubling"`` (Rabenseifner's algorithm — the
large-message RD used by MPI implementations), is provided for the ablation
study in ``benchmarks/bench_ablation_rd.py``: a recursive-*halving*
reduce-scatter (exchanged payload halves every step: d/2, d/4, …, d/P)
followed by a recursive-doubling all-gather, ``2·log₂P`` core steps moving
``≈2d`` total instead of ``K·d``. The paper's Fig 7 behaviour matches the
full-vector variant (see EXPERIMENTS.md), which therefore stays the
default.
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

VARIANTS = ("doubling", "halving_doubling")


def _participant_label(node: int, r: int) -> int | None:
    """Map a node id to its core-phase rank, or ``None`` if folded away."""
    if node < 2 * r:
        return node // 2 if node % 2 == 0 else None
    return node - r


def _core_node(rank: np.ndarray, r: int) -> np.ndarray:
    """Inverse of :func:`_participant_label` for an array of participating
    ranks."""
    return np.where(rank < r, 2 * rank, rank + r)


def _halving_doubling_core_steps(draft: Draft, p: int, r: int) -> list[int]:
    """Rabenseifner core: recursive-halving RS + recursive-doubling AG.

    Every rank tracks its chunk window ``[lo, hi)`` over ``p`` balanced
    chunks; a transfer moves the elements from edge ``lo`` to edge ``hi``.
    """
    k_levels = p.bit_length() - 1
    edges = draft.layout.edges(p)
    ranks = np.arange(p)
    nodes = _core_node(ranks, r)
    lo, hi = np.zeros(p, dtype=np.int64), np.full(p, p, dtype=np.int64)
    steps: list[int] = []
    for k in range(k_levels - 1, -1, -1):  # reduce-scatter, farthest first
        peer = ranks ^ (1 << k)
        mid = (lo + hi) // 2
        upper = (ranks & (1 << k)) != 0  # keeps the upper half, sends the lower
        send_lo, send_hi = np.where(upper, lo, mid), np.where(upper, mid, hi)
        steps.append(draft.add(
            nodes, _core_node(peer, r), edges + send_lo, edges + send_hi,
            SUM, "reduce", k + 1,
        ))
        lo, hi = np.where(upper, mid, lo), np.where(upper, hi, mid)
    for k in range(k_levels):  # all-gather, nearest first
        peer = ranks ^ (1 << k)
        steps.append(draft.add(
            nodes, _core_node(peer, r), edges + lo, edges + hi,
            COPY, "broadcast", k + 1,
        ))
        lo, hi = np.minimum(lo, lo[peer]), np.maximum(hi, hi[peer])
    return steps


def _structure(n: int, variant: str, keep_steps: bool) -> Structure:
    floor_log = n.bit_length() - 1
    p = 1 << floor_log
    r = n - p
    if p < 2:
        # Unreachable today (n_nodes == 1 returns a singleton, n_nodes < 1
        # is rejected), but the floor path must never emit an empty core: a
        # regression surfaces as a typed error, not an ill-formed schedule.
        raise ValueError(
            f"recursive doubling needs a >= 2-rank core, got n_nodes={n}"
        )
    draft = Draft()
    steps: list[int] = []
    folded = np.arange(r)
    if r > 0:  # pre-step: odd members of the first 2r nodes fold onto evens
        steps.append(
            draft.add(2 * folded + 1, 2 * folded, ZERO, TOTAL, SUM, "reduce")
        )
    if variant == "doubling":
        ranks = np.arange(p)
        nodes = _core_node(ranks, r)
        for k in range(floor_log):  # full-vector exchange among P survivors
            steps.append(draft.add(
                nodes, _core_node(ranks ^ (1 << k), r), ZERO, TOTAL,
                SUM, "exchange", k + 1,
            ))
    else:
        steps.extend(_halving_doubling_core_steps(draft, p, r))
    if r > 0:  # post-step: evens hand the result back to the folded odds
        steps.append(
            draft.add(2 * folded, 2 * folded + 1, ZERO, TOTAL, COPY, "broadcast")
        )
    return draft.finish(steps, None, keep_steps=keep_steps, extras=r == 0)


def build_rd_schedule(
    n_nodes: int,
    total_elems: int,
    materialize: bool | None = None,
    variant: str = "doubling",
) -> Schedule:
    """Build a recursive-doubling All-reduce schedule.

    Args:
        n_nodes: Participants N >= 1 (any N).
        total_elems: Gradient vector length.
        materialize: API symmetry; RD is always cheap to materialize
            (O(N log N) transfers) so exact steps are built unless disabled.
        variant: ``"doubling"`` (full-vector exchanges, the paper baseline)
            or ``"halving_doubling"`` (Rabenseifner; see module docstring).
    """
    check_positive_int("n_nodes", n_nodes)
    check_positive_int("total_elems", total_elems)
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if n_nodes == 1:
        return singleton_schedule("rd", total_elems)
    keep_steps = materialize is not False
    structure = memoized(
        ("rd", n_nodes, keep_steps, variant),
        lambda: _structure(n_nodes, variant, keep_steps),
    )
    steps, profile = instantiate(structure, total_elems)
    return Schedule(
        algorithm="rd",
        n_nodes=n_nodes,
        total_elems=total_elems,
        steps=steps,
        timing_profile=profile,
        meta={
            "profile_exact": True,
            "power_of_two": structure.extras,
            "variant": variant,
        },
    )
