"""Transfer-object schedule builders: the parity oracle for the array builders.

These are the builders as they were before schedules became payload-free
structures instantiated by array arithmetic: every step is a tuple of
:class:`~repro.collectives.base.Transfer` objects built per payload, and
timing profiles are run-length encoded with the tuple pattern key
(:func:`reference_pattern_key`). ``tests/collectives/test_structure.py``
asserts that ``repro.collectives.registry.build_schedule`` returns the same
steps, profile representatives, counts, step totals, meta and errors, and
that bytes pattern keys partition steps exactly as these tuple keys do —
the same role ``maxmin_reference.py`` plays for the max-min kernel.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.collectives.base import CommStep, Schedule, Transfer, singleton_schedule
from repro.collectives.ring import MATERIALIZE_DEFAULT_LIMIT, chunk_bounds
from repro.collectives.scring import scring_arcs
from repro.collectives.swing import swing_peer
from repro.core.grouping import partition_ring
from repro.core.planner import WrhtPlan, plan_wrht
from repro.util.validation import check_positive_int


def reference_pattern_key(step: CommStep) -> tuple:
    """The tuple plan-cache key: sorted (src, dst, n_elems, op) rows."""
    return tuple(sorted((t.src, t.dst, t.n_elems, t.op) for t in step.transfers))


def reference_compress_steps(steps: Sequence[CommStep]) -> list[tuple[CommStep, int]]:
    """Run-length encode consecutive steps with equal tuple pattern keys."""
    profile: list[tuple[CommStep, int]] = []
    prev_key = None
    for step in steps:
        key = reference_pattern_key(step)
        if profile and key == prev_key:
            rep, count = profile[-1]
            profile[-1] = (rep, count + 1)
        else:
            profile.append((step, 1))
            prev_key = key
    return profile


# -- ring ---------------------------------------------------------------------


def _ring_materialize(n: int, total: int) -> list[CommStep]:
    bounds = chunk_bounds(total, n)
    steps: list[CommStep] = []
    for s in range(n - 1):
        transfers = []
        for i in range(n):
            lo, hi = bounds[(i - s) % n]
            transfers.append(Transfer(src=i, dst=(i + 1) % n, lo=lo, hi=hi, op="sum"))
        steps.append(CommStep(tuple(transfers), stage="reduce"))
    for s in range(n - 1):
        transfers = []
        for i in range(n):
            lo, hi = bounds[(i + 1 - s) % n]
            transfers.append(Transfer(src=i, dst=(i + 1) % n, lo=lo, hi=hi, op="copy"))
        steps.append(CommStep(tuple(transfers), stage="broadcast"))
    return steps


def _ring_profile(n: int, total: int) -> list[tuple[CommStep, int]]:
    chunk = math.ceil(total / n)
    chunk = min(chunk, total)
    rs = CommStep(
        tuple(Transfer(i, (i + 1) % n, 0, chunk, "sum") for i in range(n)),
        stage="reduce",
    )
    ag = CommStep(
        tuple(Transfer(i, (i + 1) % n, 0, chunk, "copy") for i in range(n)),
        stage="broadcast",
    )
    return [(rs, n - 1), (ag, n - 1)]


def build_ring_schedule(
    n_nodes: int, total_elems: int, materialize: bool | None = None
) -> Schedule:
    check_positive_int("n_nodes", n_nodes)
    check_positive_int("total_elems", total_elems)
    if n_nodes == 1:
        return singleton_schedule("ring", total_elems)
    if materialize is None:
        materialize = n_nodes <= MATERIALIZE_DEFAULT_LIMIT
    steps = _ring_materialize(n_nodes, total_elems) if materialize else None
    return Schedule(
        algorithm="ring",
        n_nodes=n_nodes,
        total_elems=total_elems,
        steps=steps,
        timing_profile=_ring_profile(n_nodes, total_elems),
        meta={"profile_exact": total_elems % n_nodes == 0},
    )


# -- H-Ring -------------------------------------------------------------------


def _hring_intra_steps(groups, total: int) -> list[CommStep]:
    max_g = max(len(g.members) for g in groups)
    if max_g == 1:
        return []
    per_group_bounds = {g.members: chunk_bounds(total, len(g.members)) for g in groups}
    steps: list[CommStep] = []
    for s in range(max_g - 1):
        transfers = []
        for g in groups:
            members, n = g.members, len(g.members)
            if s >= n - 1:
                continue
            bounds = per_group_bounds[members]
            for i in range(n):
                lo, hi = bounds[(i - s) % n]
                transfers.append(
                    Transfer(src=members[i], dst=members[(i + 1) % n], lo=lo, hi=hi, op="sum")
                )
        steps.append(CommStep(tuple(transfers), stage="reduce", level=1))
    for s in range(max_g - 1):
        transfers = []
        for g in groups:
            members, n = g.members, len(g.members)
            if s >= n - 1:
                continue
            bounds = per_group_bounds[members]
            for i in range(n):
                lo, hi = bounds[(i + 1 - s) % n]
                transfers.append(
                    Transfer(src=members[i], dst=members[(i + 1) % n], lo=lo, hi=hi, op="copy")
                )
        steps.append(CommStep(tuple(transfers), stage="broadcast", level=1))
    return steps


def _hring_inter_steps(leaders: list[int], total: int) -> list[CommStep]:
    n = len(leaders)
    if n == 1:
        return []
    bounds = chunk_bounds(total, n)
    steps: list[CommStep] = []
    for s in range(n - 1):
        transfers = tuple(
            Transfer(
                src=leaders[i], dst=leaders[(i + 1) % n],
                lo=bounds[(i - s) % n][0], hi=bounds[(i - s) % n][1], op="sum",
            )
            for i in range(n)
        )
        steps.append(CommStep(transfers, stage="reduce", level=2))
    for s in range(n - 1):
        transfers = tuple(
            Transfer(
                src=leaders[i], dst=leaders[(i + 1) % n],
                lo=bounds[(i + 1 - s) % n][0], hi=bounds[(i + 1 - s) % n][1], op="copy",
            )
            for i in range(n)
        )
        steps.append(CommStep(transfers, stage="broadcast", level=2))
    return steps


def _hring_leader_broadcast(groups, total: int) -> CommStep | None:
    transfers = []
    for g in groups:
        leader = g.members[0]
        for member in g.members[1:]:
            transfers.append(Transfer(src=leader, dst=member, lo=0, hi=total, op="copy"))
    if not transfers:
        return None
    return CommStep(tuple(transfers), stage="broadcast", level=1)


def _hring_profile(n: int, m: int, total: int) -> list[tuple[CommStep, int]]:
    groups = partition_ring(list(range(n)), m)
    max_g = max(len(g.members) for g in groups)
    n_groups = len(groups)
    profile: list[tuple[CommStep, int]] = []
    if max_g > 1:
        intra_chunk = min(math.ceil(total / max_g), total)
        rs = []
        for g in groups:
            members, gn = g.members, len(g.members)
            if gn == 1:
                continue
            for i in range(gn):
                rs.append(Transfer(members[i], members[(i + 1) % gn], 0, intra_chunk, "sum"))
        profile.append((CommStep(tuple(rs), stage="reduce", level=1), max_g - 1))
        ag = tuple(Transfer(t.src, t.dst, t.lo, t.hi, "copy") for t in rs)
        profile.append((CommStep(ag, stage="broadcast", level=1), max_g - 1))
    if n_groups > 1:
        leaders = [g.members[0] for g in groups]
        inter_chunk = min(math.ceil(total / n_groups), total)
        rs = tuple(
            Transfer(leaders[i], leaders[(i + 1) % n_groups], 0, inter_chunk, "sum")
            for i in range(n_groups)
        )
        profile.append((CommStep(rs, stage="reduce", level=2), n_groups - 1))
        ag = tuple(Transfer(t.src, t.dst, t.lo, t.hi, "copy") for t in rs)
        profile.append((CommStep(ag, stage="broadcast", level=2), n_groups - 1))
        bcast = _hring_leader_broadcast(groups, total)
        if bcast is not None:
            profile.append((bcast, 1))
    return profile


def build_hring_schedule(
    n_nodes: int,
    total_elems: int,
    m: int | None = None,
    materialize: bool | None = None,
) -> Schedule:
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
    groups = partition_ring(list(range(n_nodes)), m)
    steps: list[CommStep] | None = None
    if materialize:
        steps = list(_hring_intra_steps(groups, total_elems))
        leaders = [g.members[0] for g in groups]
        inter = _hring_inter_steps(leaders, total_elems)
        steps.extend(inter)
        if inter:
            bcast = _hring_leader_broadcast(groups, total_elems)
            if bcast is not None:
                steps.append(bcast)
    return Schedule(
        algorithm="hring",
        n_nodes=n_nodes,
        total_elems=total_elems,
        steps=steps,
        timing_profile=_hring_profile(n_nodes, m, total_elems),
        meta={"profile_exact": False, "n_groups": len(groups), "m": m},
    )


# -- BT -----------------------------------------------------------------------


def build_bt_schedule(n_nodes: int, total_elems: int, materialize: bool | None = None) -> Schedule:
    check_positive_int("n_nodes", n_nodes)
    check_positive_int("total_elems", total_elems)
    if n_nodes == 1:
        return singleton_schedule("bt", total_elems)
    n_levels = (n_nodes - 1).bit_length()
    steps: list[CommStep] = []
    for k in range(1, n_levels + 1):
        half = 1 << (k - 1)
        steps.append(CommStep(
            tuple(
                Transfer(src=j, dst=j - half, lo=0, hi=total_elems, op="sum")
                for j in range(half, n_nodes, 1 << k)
            ),
            stage="reduce", level=k,
        ))
    for k in range(n_levels, 0, -1):
        half = 1 << (k - 1)
        steps.append(CommStep(
            tuple(
                Transfer(src=j - half, dst=j, lo=0, hi=total_elems, op="copy")
                for j in range(half, n_nodes, 1 << k)
            ),
            stage="broadcast", level=k,
        ))
    return Schedule(
        algorithm="bt",
        n_nodes=n_nodes,
        total_elems=total_elems,
        steps=steps if materialize is not False else None,
        timing_profile=reference_compress_steps(steps),
        meta={"profile_exact": True, "n_levels": n_levels},
    )


# -- RD -----------------------------------------------------------------------

RD_VARIANTS = ("doubling", "halving_doubling")


def _core_node(rank: int, r: int) -> int:
    return 2 * rank if rank < r else rank + r


def _halving_doubling_core_steps(p: int, r: int, total_elems: int) -> list[CommStep]:
    k_levels = p.bit_length() - 1
    bounds = chunk_bounds(total_elems, p)

    def window_elems(lo_chunk: int, hi_chunk: int) -> tuple[int, int]:
        return bounds[lo_chunk][0], bounds[hi_chunk - 1][1]

    windows = {rank: (0, p) for rank in range(p)}
    steps: list[CommStep] = []
    for k in range(k_levels - 1, -1, -1):
        transfers = []
        next_windows = {}
        for rank in range(p):
            peer = rank ^ (1 << k)
            lo, hi = windows[rank]
            mid = (lo + hi) // 2
            if rank & (1 << k):
                keep, send = (mid, hi), (lo, mid)
            else:
                keep, send = (lo, mid), (mid, hi)
            e_lo, e_hi = window_elems(*send)
            transfers.append(Transfer(
                src=_core_node(rank, r), dst=_core_node(peer, r), lo=e_lo, hi=e_hi, op="sum",
            ))
            next_windows[rank] = keep
        windows = next_windows
        steps.append(CommStep(tuple(transfers), stage="reduce", level=k + 1))
    for k in range(k_levels):
        transfers = []
        next_windows = {}
        for rank in range(p):
            peer = rank ^ (1 << k)
            lo, hi = windows[rank]
            e_lo, e_hi = window_elems(lo, hi)
            transfers.append(Transfer(
                src=_core_node(rank, r), dst=_core_node(peer, r), lo=e_lo, hi=e_hi, op="copy",
            ))
            peer_lo, peer_hi = windows[peer]
            next_windows[rank] = (min(lo, peer_lo), max(hi, peer_hi))
        windows = next_windows
        steps.append(CommStep(tuple(transfers), stage="broadcast", level=k + 1))
    return steps


def build_rd_schedule(
    n_nodes: int,
    total_elems: int,
    materialize: bool | None = None,
    variant: str = "doubling",
) -> Schedule:
    check_positive_int("n_nodes", n_nodes)
    check_positive_int("total_elems", total_elems)
    if variant not in RD_VARIANTS:
        raise ValueError(f"variant must be one of {RD_VARIANTS}, got {variant!r}")
    if n_nodes == 1:
        return singleton_schedule("rd", total_elems)
    floor_log = n_nodes.bit_length() - 1
    p = 1 << floor_log
    r = n_nodes - p
    steps: list[CommStep] = []
    if r > 0:
        steps.append(CommStep(
            tuple(Transfer(src=2 * i + 1, dst=2 * i, lo=0, hi=total_elems, op="sum") for i in range(r)),
            stage="reduce",
        ))
    if variant == "doubling":
        for k in range(floor_log):
            transfers = []
            for rank in range(p):
                peer = rank ^ (1 << k)
                transfers.append(Transfer(
                    src=_core_node(rank, r), dst=_core_node(peer, r),
                    lo=0, hi=total_elems, op="sum",
                ))
            steps.append(CommStep(tuple(transfers), stage="exchange", level=k + 1))
    elif p >= 2:
        steps.extend(_halving_doubling_core_steps(p, r, total_elems))
    if r > 0:
        steps.append(CommStep(
            tuple(Transfer(src=2 * i, dst=2 * i + 1, lo=0, hi=total_elems, op="copy") for i in range(r)),
            stage="broadcast",
        ))
    return Schedule(
        algorithm="rd",
        n_nodes=n_nodes,
        total_elems=total_elems,
        steps=steps if materialize is not False else None,
        timing_profile=reference_compress_steps(steps),
        meta={"profile_exact": True, "power_of_two": r == 0, "variant": variant},
    )


# -- Swing --------------------------------------------------------------------


def _cover_sets(p: int) -> list[dict[int, tuple[int, ...]]]:
    k_levels = p.bit_length() - 1
    cover: list[dict[int, tuple[int, ...]]] = [{} for _ in range(k_levels + 1)]
    cover[k_levels] = {i: (i,) for i in range(p)}
    for s in range(k_levels - 1, -1, -1):
        nxt = cover[s + 1]
        cover[s] = {i: tuple(sorted(nxt[i] + nxt[swing_peer(i, s, p)])) for i in range(p)}
    return cover


def _block_transfers(src, dst, blocks, bounds, op) -> list[Transfer]:
    transfers: list[Transfer] = []
    run_start = 0
    for idx in range(1, len(blocks) + 1):
        if idx == len(blocks) or blocks[idx] != blocks[idx - 1] + 1:
            lo = bounds[blocks[run_start]][0]
            hi = bounds[blocks[idx - 1]][1]
            transfers.append(Transfer(src=src, dst=dst, lo=lo, hi=hi, op=op))
            run_start = idx
    return transfers


def _swing_materialize(n: int, p: int, r: int, total: int) -> list[CommStep]:
    k_levels = p.bit_length() - 1
    bounds = chunk_bounds(total, p)
    cover = _cover_sets(p)
    steps: list[CommStep] = []
    if r > 0:
        steps.append(CommStep(
            tuple(Transfer(src=2 * i + 1, dst=2 * i, lo=0, hi=total, op="sum") for i in range(r)),
            stage="reduce",
        ))
    for s in range(k_levels):
        transfers: list[Transfer] = []
        for i in range(p):
            peer = swing_peer(i, s, p)
            transfers.extend(_block_transfers(
                _core_node(i, r), _core_node(peer, r), cover[s + 1][peer], bounds, "sum",
            ))
        steps.append(CommStep(tuple(transfers), stage="reduce", level=s + 1))
    for t in range(k_levels):
        s = k_levels - 1 - t
        transfers = []
        for i in range(p):
            peer = swing_peer(i, s, p)
            transfers.extend(_block_transfers(
                _core_node(i, r), _core_node(peer, r), cover[s + 1][i], bounds, "copy",
            ))
        steps.append(CommStep(tuple(transfers), stage="broadcast", level=s + 1))
    if r > 0:
        steps.append(CommStep(
            tuple(Transfer(src=2 * i, dst=2 * i + 1, lo=0, hi=total, op="copy") for i in range(r)),
            stage="broadcast",
        ))
    return steps


def _swing_profile(n: int, p: int, r: int, total: int) -> list[tuple[CommStep, int]]:
    k_levels = p.bit_length() - 1
    chunk = min(math.ceil(total / p), total)
    profile: list[tuple[CommStep, int]] = []
    if r > 0:
        profile.append((CommStep(
            tuple(Transfer(2 * i + 1, 2 * i, 0, total, "sum") for i in range(r)),
            stage="reduce",
        ), 1))
    for s in range(k_levels):
        count = 1 << (k_levels - s - 1)
        size = min(count * chunk, total)
        profile.append((CommStep(
            tuple(
                Transfer(_core_node(i, r), _core_node(swing_peer(i, s, p), r), 0, size, "sum")
                for i in range(p)
            ),
            stage="reduce", level=s + 1,
        ), 1))
    for t in range(k_levels):
        s = k_levels - 1 - t
        size = min((1 << t) * chunk, total)
        profile.append((CommStep(
            tuple(
                Transfer(_core_node(i, r), _core_node(swing_peer(i, s, p), r), 0, size, "copy")
                for i in range(p)
            ),
            stage="broadcast", level=s + 1,
        ), 1))
    if r > 0:
        profile.append((CommStep(
            tuple(Transfer(2 * i, 2 * i + 1, 0, total, "copy") for i in range(r)),
            stage="broadcast",
        ), 1))
    return profile


def build_swing_schedule(
    n_nodes: int, total_elems: int, materialize: bool | None = None
) -> Schedule:
    check_positive_int("n_nodes", n_nodes)
    check_positive_int("total_elems", total_elems)
    if n_nodes == 1:
        return singleton_schedule("swing", total_elems)
    floor_log = n_nodes.bit_length() - 1
    p = 1 << floor_log
    r = n_nodes - p
    if materialize is None:
        materialize = n_nodes <= MATERIALIZE_DEFAULT_LIMIT
    if materialize:
        steps: list[CommStep] | None = _swing_materialize(n_nodes, p, r, total_elems)
        profile = reference_compress_steps(steps)
    else:
        steps = None
        profile = _swing_profile(n_nodes, p, r, total_elems)
    return Schedule(
        algorithm="swing",
        n_nodes=n_nodes,
        total_elems=total_elems,
        steps=steps,
        timing_profile=profile,
        meta={"profile_exact": bool(materialize), "power_of_two": r == 0},
    )


# -- SCRing -------------------------------------------------------------------


def _scring_materialize(n: int, total: int, arcs) -> list[CommStep]:
    bounds = chunk_bounds(total, n)
    longest = max(len(arc) for arc in arcs)
    steps: list[CommStep] = []
    for s in range(longest):
        transfers: list[Transfer] = []
        for c in range(n):
            lo, hi = bounds[c]
            for arc in arcs:
                if s == longest - 1:
                    transfers.append(Transfer((c + arc[-1]) % n, c, lo, hi, "sum"))
                    continue
                j = s - (longest - len(arc))
                if 0 <= j < len(arc) - 1:
                    transfers.append(
                        Transfer((c + arc[j]) % n, (c + arc[j + 1]) % n, lo, hi, "sum")
                    )
        steps.append(CommStep(tuple(transfers), stage="reduce"))
    for t in range(longest):
        transfers = []
        for c in range(n):
            lo, hi = bounds[c]
            for arc in arcs:
                if t == 0:
                    transfers.append(Transfer(c, (c + arc[-1]) % n, lo, hi, "copy"))
                    continue
                j = len(arc) - 1 - t
                if j >= 0:
                    transfers.append(
                        Transfer((c + arc[j + 1]) % n, (c + arc[j]) % n, lo, hi, "copy")
                    )
        steps.append(CommStep(tuple(transfers), stage="broadcast"))
    return steps


def _scring_profile(n: int, total: int, arcs) -> list[tuple[CommStep, int]]:
    longest = max(len(arc) for arc in arcs)
    chunk = min(math.ceil(total / n), total)
    profile: list[tuple[CommStep, int]] = []

    def circulant(hops, op, stage):
        return CommStep(
            tuple(
                Transfer((c + src_off) % n, (c + dst_off) % n, 0, chunk, op)
                for c in range(n)
                for src_off, dst_off in hops
            ),
            stage=stage,
        )

    if longest > 1:
        rs_hops = [(arc[-2], arc[-1]) for arc in arcs if len(arc) > 1]
        profile.append((circulant(rs_hops, "sum", "reduce"), longest - 1))
    delivery = [(arc[-1], 0) for arc in arcs]
    profile.append((circulant(delivery, "sum", "reduce"), 1))
    multicast = [(0, arc[-1]) for arc in arcs]
    profile.append((circulant(multicast, "copy", "broadcast"), 1))
    if longest > 1:
        ag_hops = [(arc[-1], arc[-2]) for arc in arcs if len(arc) > 1]
        profile.append((circulant(ag_hops, "copy", "broadcast"), longest - 1))
    return profile


def build_scring_schedule(
    n_nodes: int,
    total_elems: int,
    materialize: bool | None = None,
    pipeline: int = 1,
) -> Schedule:
    check_positive_int("n_nodes", n_nodes)
    check_positive_int("total_elems", total_elems)
    check_positive_int("pipeline", pipeline)
    if n_nodes == 1:
        return singleton_schedule("scring", total_elems)
    arcs = scring_arcs(n_nodes, pipeline)
    lengths = {len(arc) for arc in arcs}
    if materialize is None:
        materialize = n_nodes <= MATERIALIZE_DEFAULT_LIMIT
    if materialize:
        steps: list[CommStep] | None = _scring_materialize(n_nodes, total_elems, arcs)
        profile = reference_compress_steps(steps)
        exact = True
    else:
        steps = None
        profile = _scring_profile(n_nodes, total_elems, arcs)
        exact = len(lengths) == 1 and total_elems % n_nodes == 0
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


# -- WRHT ---------------------------------------------------------------------


def build_alltoall_step(
    nodes: Sequence[int], total_elems: int, stage: str = "exchange", level: int = 0
) -> CommStep:
    nodes = list(nodes)
    if len(nodes) < 2:
        raise ValueError(f"all-to-all needs >= 2 nodes, got {len(nodes)}")
    if len(set(nodes)) != len(nodes):
        raise ValueError("all-to-all nodes must be distinct")
    return CommStep(
        tuple(
            Transfer(src=a, dst=b, lo=0, hi=total_elems, op="sum")
            for a in nodes
            for b in nodes
            if a != b
        ),
        stage=stage,
        level=level,
    )


def _wrht_collect_step(level, total: int) -> CommStep:
    transfers = []
    for group in level.groups:
        for member in group.non_representatives:
            transfers.append(
                Transfer(src=member, dst=group.representative, lo=0, hi=total, op="sum")
            )
    if not transfers:
        raise ValueError(
            f"level {level.level} has only singleton groups; "
            "the planner should never produce this"
        )
    return CommStep(tuple(transfers), stage="reduce", level=level.level)


def _wrht_broadcast_step(level, total: int) -> CommStep:
    transfers = []
    for group in level.groups:
        for member in group.non_representatives:
            transfers.append(
                Transfer(src=group.representative, dst=member, lo=0, hi=total, op="copy")
            )
    return CommStep(tuple(transfers), stage="broadcast", level=level.level)


def build_wrht_schedule(
    n_nodes: int,
    total_elems: int,
    n_wavelengths: int = 64,
    m: int | None = None,
    plan: WrhtPlan | None = None,
    materialize: bool | None = None,
) -> Schedule:
    check_positive_int("n_nodes", n_nodes)
    check_positive_int("total_elems", total_elems)
    if n_nodes == 1:
        return singleton_schedule("wrht", total_elems)
    if plan is None:
        plan = plan_wrht(n_nodes, n_wavelengths, m=m)
    elif plan.n_nodes != n_nodes:
        raise ValueError(f"plan is for N={plan.n_nodes}, schedule for N={n_nodes}")
    steps: list[CommStep] = []
    reduce_levels = plan.levels
    for level in reduce_levels[:-1]:
        steps.append(_wrht_collect_step(level, total_elems))
    last = reduce_levels[-1]
    if plan.alltoall:
        steps.append(
            build_alltoall_step(last.population, total_elems, stage="reduce", level=last.level)
        )
        bcast_levels = reduce_levels[:-1]
    else:
        steps.append(_wrht_collect_step(last, total_elems))
        bcast_levels = reduce_levels
    for level in reversed(bcast_levels):
        steps.append(_wrht_broadcast_step(level, total_elems))
    if len(steps) != plan.theta:
        raise AssertionError(
            f"WRHT schedule has {len(steps)} steps but the plan says θ={plan.theta}"
        )
    return Schedule(
        algorithm="wrht",
        n_nodes=n_nodes,
        total_elems=total_elems,
        steps=steps if materialize is not False else None,
        timing_profile=reference_compress_steps(steps),
        meta={"profile_exact": True, "plan": plan},
    )


REFERENCE_BUILDERS = {
    "ring": build_ring_schedule,
    "hring": build_hring_schedule,
    "bt": build_bt_schedule,
    "rd": build_rd_schedule,
    "swing": build_swing_schedule,
    "scring": build_scring_schedule,
    "wrht": build_wrht_schedule,
}


def build_reference(name: str, n_nodes: int, total_elems: int, **kwargs) -> Schedule:
    """Build a schedule with the transfer-object builders above."""
    return REFERENCE_BUILDERS[name](n_nodes, total_elems, **kwargs)
