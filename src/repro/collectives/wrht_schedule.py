"""WRHT as an executable schedule, built from a :class:`WrhtPlan`.

Reduce stage: one step per hierarchy level; within a level, every group's
non-representative members send their full partial sum to the group's
representative concurrently (``⌊m/2⌋`` wavelengths per group, reused across
groups and ring directions — the optical substrate checks this). When the
plan's all-to-all shortcut is on, the final reduce step is instead a single
all-to-all exchange among the surviving representatives.

Broadcast stage: the reduce levels replayed in reverse with ``copy``
transfers (skipping the last level when the all-to-all already left every
representative with the global sum).

Step count of the generated schedule equals the plan's θ by construction;
the test suite cross-checks it against the Table 1 closed form.
"""

from __future__ import annotations

from repro.collectives.alltoall import alltoall_pairs
from repro.collectives.base import COPY, SUM, Schedule, singleton_schedule
from repro.collectives.structure import (
    TOTAL,
    ZERO,
    Draft,
    Structure,
    instantiate,
    memoized,
)
from repro.core.planner import WrhtPlan, plan_wrht
from repro.util.validation import check_positive_int


def _level_pairs(level) -> tuple[list[int], list[int]]:
    """Every group's non-representative members and their representative."""
    members = [m for g in level.groups for m in g.non_representatives]
    reps = [g.representative for g in level.groups for _ in g.non_representatives]
    return members, reps


def _collect_step(draft: Draft, level) -> int:
    """All groups of one level collect to their representatives."""
    members, reps = _level_pairs(level)
    if not members:
        raise ValueError(
            f"level {level.level} has only singleton groups; "
            "the planner should never produce this"
        )
    return draft.add(members, reps, ZERO, TOTAL, SUM, "reduce", level.level)


def _broadcast_step(draft: Draft, level) -> int:
    """Representatives of one level push the result back to their groups."""
    members, reps = _level_pairs(level)
    return draft.add(reps, members, ZERO, TOTAL, COPY, "broadcast", level.level)


def _structure(plan: WrhtPlan, keep_steps: bool) -> Structure:
    draft = Draft()
    steps: list[int] = []
    reduce_levels = plan.levels
    for level in reduce_levels[:-1]:
        steps.append(_collect_step(draft, level))
    last = reduce_levels[-1]
    if plan.alltoall:
        src, dst = alltoall_pairs(last.population)
        steps.append(draft.add(src, dst, ZERO, TOTAL, SUM, "reduce", last.level))
        bcast_levels = reduce_levels[:-1]
    else:
        steps.append(_collect_step(draft, last))
        bcast_levels = reduce_levels
    for level in reversed(bcast_levels):
        steps.append(_broadcast_step(draft, level))
    if len(steps) != plan.theta:
        raise AssertionError(
            f"WRHT schedule has {len(steps)} steps but the plan says θ={plan.theta}"
        )
    return draft.finish(steps, None, keep_steps=keep_steps, extras=plan)


def build_wrht_schedule(
    n_nodes: int,
    total_elems: int,
    n_wavelengths: int = 64,
    m: int | None = None,
    plan: WrhtPlan | None = None,
    materialize: bool | None = None,
) -> Schedule:
    """Build the WRHT All-reduce schedule.

    Args:
        n_nodes: Ring size N >= 1.
        total_elems: Gradient vector length.
        n_wavelengths: Available wavelengths (used when planning).
        m: Optional forced group size (forwarded to the planner).
        plan: Pre-computed plan; overrides ``n_wavelengths``/``m``.
        materialize: API symmetry; WRHT schedules are O(N log N) transfers
            and are always materialized unless explicitly disabled.

    Returns:
        A :class:`Schedule` whose ``meta["plan"]`` holds the resolved plan.
    """
    check_positive_int("n_nodes", n_nodes)
    check_positive_int("total_elems", total_elems)
    if n_nodes == 1:
        return singleton_schedule("wrht", total_elems)
    keep_steps = materialize is not False
    if plan is None:
        structure = memoized(
            ("wrht", n_nodes, keep_steps, n_wavelengths, m),
            lambda: _structure(plan_wrht(n_nodes, n_wavelengths, m=m), keep_steps),
        )
    elif plan.n_nodes != n_nodes:
        raise ValueError(f"plan is for N={plan.n_nodes}, schedule for N={n_nodes}")
    else:
        structure = memoized(
            ("wrht", n_nodes, keep_steps, plan),
            lambda: _structure(plan, keep_steps),
        )
    steps, profile = instantiate(structure, total_elems)
    return Schedule(
        algorithm="wrht",
        n_nodes=n_nodes,
        total_elems=total_elems,
        steps=steps,
        timing_profile=profile,
        meta={"profile_exact": True, "plan": structure.extras},
    )
