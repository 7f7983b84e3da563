"""Numerical execution and correctness verification of schedules.

`run_schedule` executes a materialized schedule on real numpy buffers with
bulk-synchronous semantics: all transfers of a step read the pre-step state,
then apply. `verify_allreduce` checks the All-reduce postcondition — every
node ends with the exact elementwise sum of all initial vectors — using
integer-valued float64 data so equality is exact, not approximate.

The executor also enforces step well-formedness that the static dataclass
validation cannot see:

- two ``copy`` transfers into the same destination range in one step would
  be racy — rejected;
- a ``copy`` and a ``sum`` into the same destination range in one step are
  order-dependent — rejected.
"""

from __future__ import annotations

import numpy as np

from repro.check.intervals import Conflict, find_conflicts
from repro.collectives.base import COPY, SUM, CommStep, Schedule


class ScheduleConflictError(ValueError):
    """A step contains order-dependent writes to one destination range."""


def _writes_clean(step: CommStep) -> bool:
    """True iff no ``copy`` overlaps another write to the same destination.

    One sort of the step's non-empty writes by (dst, lo): a write overlaps
    an earlier one on its destination exactly when that group's running
    maximum ``hi`` passes its ``lo``, and a ``copy`` takes part in the
    overlap when it is the later write or holds the copies' running
    maximum. Each destination group's values are lifted above the previous
    group's, so one cumulative maximum serves every group. ``False`` means
    "not proven": a real conflict, or values the lift cannot hold exactly.
    """
    dst, lo, hi, op = step.dst, step.lo, step.hi, step.op
    keep = hi > lo
    if not keep.all():
        dst, lo, hi, op = dst[keep], lo[keep], hi[keep], op[keep]
    if len(dst) < 2:
        return True
    order = np.lexsort((lo, dst))
    dst, lo, hi, copy = dst[order], lo[order], hi[order], op[order] == COPY
    group = np.concatenate(([0], np.cumsum(dst[1:] != dst[:-1])))
    span = int(hi.max()) + 1
    if int(lo.min()) < 0 or (int(group[-1]) + 1) * span >= 1 << 62:
        return False
    base = group * span
    ends = base + hi
    prev_end = np.maximum.accumulate(ends)[:-1]
    prev_copy_end = np.maximum.accumulate(np.where(copy, ends, base - 1))[:-1]
    starts = base[1:] + lo[1:]
    return not np.any(
        (copy[1:] & (prev_end > starts)) | (prev_copy_end > starts)
    )


def step_write_conflicts(step: CommStep, first_only: bool = False) -> list[Conflict]:
    """Order-dependent write overlaps within one step.

    Every step is first decided by one sort of its write arrays; only a
    step that test cannot prove clean has its destination writes turned
    into interval claims on the destination node (``sum`` writes
    combinable, ``copy`` writes exclusive) and swept by the shared
    interval engine — the same analysis the optical circuit validator and
    the :mod:`repro.check` plan rules use. ``sum`` writes are the only
    combinable claims, so the sweep finds nothing exactly when the sort
    finds no ``copy`` overlap.
    """
    if _writes_clean(step):
        return []
    return find_conflicts(step.write_claims(), first_only=first_only)


def check_step_conflicts(step: CommStep) -> None:
    """Reject steps whose outcome would depend on transfer ordering.

    Thin raising wrapper over :func:`step_write_conflicts` (the sorted
    gate, then the shared interval engine on a flagged step).
    """
    conflicts = step_write_conflicts(step, first_only=True)
    if conflicts:
        first, second = conflicts[0].first, conflicts[0].second
        raise ScheduleConflictError(
            f"step writes ranges [{first.lo},{first.hi}):"
            f"{first.owner.op} and [{second.lo},{second.hi}):{second.owner.op} "
            f"into node {conflicts[0].resource}; ordering would matter"
        )


def run_schedule(schedule: Schedule, buffers: np.ndarray, check: bool = True) -> np.ndarray:
    """Execute a materialized schedule in place.

    Args:
        schedule: A schedule with materialized steps.
        buffers: Array of shape ``(n_nodes, total_elems)``; modified in place.
        check: Run per-step conflict checks (cheap; on by default).

    Returns:
        ``buffers`` (same object) after all steps.
    """
    if buffers.shape != (schedule.n_nodes, schedule.total_elems):
        raise ValueError(
            f"buffers shape {buffers.shape} does not match schedule "
            f"({schedule.n_nodes}, {schedule.total_elems})"
        )
    for step in schedule.iter_steps():
        if check:
            check_step_conflicts(step)
        rows = [
            row
            for row in zip(
                step.src.tolist(), step.dst.tolist(), step.lo.tolist(),
                step.hi.tolist(), step.op.tolist(),
            )
            if row[3] > row[2]
        ]
        payloads = [buffers[src, lo:hi].copy() for src, _, lo, hi, _ in rows]
        for (_, dst, lo, hi, op), data in zip(rows, payloads):
            if op == SUM:
                buffers[dst, lo:hi] += data
            else:
                buffers[dst, lo:hi] = data
    return buffers


def initial_buffers(n_nodes: int, total_elems: int) -> np.ndarray:
    """Deterministic integer-valued test data: node ``i`` gets
    ``(i+1)·10⁴ + index`` so every (node, element) pair is distinguishable
    and all arithmetic stays exact in float64."""
    nodes = (np.arange(n_nodes, dtype=np.float64) + 1.0)[:, None] * 1.0e4
    elems = np.arange(total_elems, dtype=np.float64)[None, :]
    return nodes + elems


def verify_allreduce(schedule: Schedule) -> None:
    """Assert the All-reduce postcondition for ``schedule``.

    Raises:
        AssertionError: with the first offending node if any node's final
            buffer differs from the exact elementwise sum.
    """
    buffers = initial_buffers(schedule.n_nodes, schedule.total_elems)
    expected = buffers.sum(axis=0)
    run_schedule(schedule, buffers)
    for node in range(schedule.n_nodes):
        if not np.array_equal(buffers[node], expected):
            bad = int(np.flatnonzero(buffers[node] != expected)[0])
            raise AssertionError(
                f"{schedule.algorithm}: node {node} element {bad} is "
                f"{buffers[node, bad]!r}, expected {expected[bad]!r}"
            )
