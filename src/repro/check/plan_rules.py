"""The plan-verifier rule catalog (PLAN000–PLAN008).

Every rule here audits a lowered plan *statically* — no simulated clock
ever advances. The catalog:

=========  ==============================================================
PLAN000    Plan structure: entry counts sum to ``n_steps``, counts are
           positive, replay entries reference an earlier identical
           pattern, plan and schedule agree.
PLAN001    Wavelength conflicts: segment×direction×wavelength interval
           analysis over each round's circuits (the defining WDM
           exclusivity property, Fig 1 / Sec 3).
PLAN002    Node port budget: per-(node, direction, fiber) Tx/Rx
           wavelength counts within the MRR capacity (two Tx and two Rx
           sets per node).
PLAN003    Dataflow conservation: symbolic interval analysis proving
           every rank ends holding exactly one contribution from every
           rank (the All-reduce postcondition), flagging both missing
           and double-counted contributions.
PLAN004    Step-count conformance: the schedule/plan step total matches
           the paper's closed forms (Table 1, Eqs 5/6).
PLAN005    Feasibility: wavelength demand within the budget, WRHT group
           size within Lemma 1's ``2w+1`` and the physical-layer maximum
           ``m'`` (Eqs 7–13), routes within the loss/BER budget.
PLAN006    Write conflicts: no order-dependent writes within any step
           (shared interval engine with the numerical executor).
PLAN007    No failed resource used: no circuit rides a dead wavelength,
           a banned MRR endpoint port, a quarantined or cut segment, and
           no transfer touches a dropped node (inert without faults).
PLAN008    Reconfiguration overlap: no circuit transmits on a resource
           still being tuned — re-derives each round's required exposed
           MRR tuning from its recorded claims, enforcing wavelength
           exclusivity across the step k/k+1 boundary (inert without a
           tuning model).
=========  ==============================================================

The rules reuse the substrate models as their backends — circuit conflict
analysis from :mod:`repro.optical.circuit`, node limits from
:mod:`repro.optical.node`, phy budgets from :mod:`repro.core.constraints` —
so the static verdicts can never drift from what the executors enforce at
runtime.
"""

from __future__ import annotations

import struct
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from repro.check.context import CheckContext
from repro.check.engine import register_rule
from repro.check.findings import Finding, Severity
from repro.check.intervals import RankRuns, ranks_of
from repro.collectives.base import COPY, SUM
from repro.core.constraints import OpticalPhyParams, max_group_size
from repro.core.steps import (
    bt_steps,
    rd_steps,
    ring_steps,
    scring_steps,
    swing_steps,
    wrht_steps,
)
from repro.core.wavelengths import optimal_group_size
from repro.optical.circuit import circuit_conflicts, describe_conflict, exact_int64
from repro.optical.node import node_violations
from repro.optical.phy import path_feasible
from repro.optical.topology import Direction, Route


def route_phy_findings(
    route: Route, params: OpticalPhyParams, step_index: int | None = None
) -> list[Finding]:
    """Loss/BER budget findings for one concrete route (Eqs 9 and 13).

    The shared implementation behind the executor's
    :func:`~repro.optical.phy.validate_route_phy` (which raises on the
    first finding) and the PLAN005 circuit sweep.
    """
    if path_feasible(route.hops, params):
        return []
    return [
        Finding(
            rule_id="PLAN005",
            severity=Severity.ERROR,
            message=(
                f"route of {route.hops} hops ({route.direction.value}) "
                "violates the optical loss/BER budget"
            ),
            step_index=step_index,
            details={"hops": route.hops, "direction": route.direction.value},
        )
    ]


@register_rule("PLAN000", "plan structure is internally consistent", needs=("plan",))
def rule_plan_structure(ctx: CheckContext) -> Iterator[Finding]:
    """Structural invariants of the lowered plan itself."""
    plan = ctx.plan
    if plan.bytes_per_elem <= 0:
        yield Finding(
            "PLAN000", Severity.ERROR,
            f"bytes_per_elem must be positive, got {plan.bytes_per_elem!r}",
        )
    total = 0
    seen_payloads: list = []
    for index, entry in enumerate(plan.entries):
        total += entry.count
        if entry.count < 1:
            yield Finding(
                "PLAN000", Severity.ERROR,
                f"entry repeats {entry.count} times (must be >= 1)",
                step_index=index,
            )
        if entry.n_transfers < 0:
            yield Finding(
                "PLAN000", Severity.ERROR,
                f"entry has negative transfer count {entry.n_transfers}",
                step_index=index,
            )
        if entry.replay and not any(p == entry.payload for p in seen_payloads):
            yield Finding(
                "PLAN000", Severity.ERROR,
                "entry is marked replay but no earlier entry priced its pattern",
                step_index=index,
            )
        seen_payloads.append(entry.payload)
    if total != plan.n_steps:
        yield Finding(
            "PLAN000", Severity.ERROR,
            f"entry counts sum to {total} but the plan declares "
            f"{plan.n_steps} steps",
        )
    schedule = ctx.schedule
    if schedule is not None:
        if schedule.n_steps != plan.n_steps:
            # Builders that declare their profile approximate (H-Ring's
            # wavelength-serialized closed form) get a warning, not an
            # error — the discrepancy is documented model behavior.
            exact = schedule.meta.get("profile_exact", True)
            yield Finding(
                "PLAN000",
                Severity.ERROR if exact else Severity.WARNING,
                f"plan covers {plan.n_steps} steps but the schedule has "
                f"{schedule.n_steps}"
                + ("" if exact else " (profile declared approximate)"),
            )
        if schedule.algorithm != plan.algorithm:
            yield Finding(
                "PLAN000", Severity.ERROR,
                f"plan algorithm {plan.algorithm!r} != schedule algorithm "
                f"{schedule.algorithm!r}",
            )
        # Per-entry profile correspondence holds for the pattern-lowering
        # backends; the analytic backend legitimately re-compresses the
        # profile into closed-form step classes, and the reconfiguration
        # pass (repro.optical.reconfig) may split an entry whose first
        # occurrence faces a different tuning boundary than its repeats —
        # it records the pre-split entry count for this check.
        n_entries = len(plan.entries)
        reconfig_info = plan.meta.get("reconfig")
        if isinstance(reconfig_info, dict):
            declared = reconfig_info.get("n_profile_entries", n_entries)
            if n_entries < declared:
                yield Finding(
                    "PLAN000", Severity.ERROR,
                    f"plan has {n_entries} entries but its reconfiguration "
                    f"meta declares {declared} pre-split profile entries "
                    "(splitting can only add entries)",
                )
            n_entries = declared
        if plan.backend != "analytic" and len(schedule.timing_profile) != (
            n_entries
        ):
            yield Finding(
                "PLAN000", Severity.ERROR,
                f"plan has {n_entries} profile entries but the schedule "
                f"profile has {len(schedule.timing_profile)}",
            )


@register_rule(
    "PLAN001", "no two circuits share a channel segment", needs=("circuits",)
)
def rule_wavelength_conflicts(ctx: CheckContext) -> Iterator[Finding]:
    """WDM exclusivity: interval analysis per (direction, fiber, λ)."""
    for index, rounds in sorted(ctx.circuit_rounds.items()):
        for round_no, circuits in enumerate(rounds):
            for conflict in circuit_conflicts(circuits):
                yield Finding(
                    "PLAN001", Severity.ERROR,
                    f"round {round_no}: {describe_conflict(conflict)}",
                    step_index=index,
                    details={"round": round_no},
                )


@register_rule(
    "PLAN002", "node Tx/Rx usage fits the MRR port budget", needs=("circuits",)
)
def rule_port_budget(ctx: CheckContext) -> Iterator[Finding]:
    """Per-node transceiver limits (two Tx/Rx sets, one MRR per λ)."""
    mrrs = ctx.mrrs_per_interface
    if mrrs is None:
        yield Finding(
            "PLAN002", Severity.INFO,
            "skipped: no MRR capacity known (provide config or "
            "mrrs_per_interface)",
        )
        return
    for index, rounds in sorted(ctx.circuit_rounds.items()):
        for round_no, circuits in enumerate(rounds):
            assignments = [
                (c.transfer, c.route, c.fiber, c.wavelength) for c in circuits
            ]
            for message in node_violations(assignments, mrrs_per_interface=mrrs):
                yield Finding(
                    "PLAN002", Severity.ERROR,
                    f"round {round_no}: {message}",
                    step_index=index,
                    details={"round": round_no},
                )


@register_rule(
    "PLAN003", "every rank ends holding the full reduced gradient", needs=("steps",)
)
def rule_dataflow_conservation(ctx: CheckContext) -> Iterator[Finding]:
    """Symbolic chunk-dataflow conservation over the materialized steps.

    Tracks, per node and element interval, the *set of ranks* whose
    contribution that interval currently holds, as an int bitmask per run
    (:class:`~repro.check.intervals.RankRuns`). ``copy`` overwrites,
    ``sum`` unions — and a union that brings in a rank the destination
    already holds is a double count (set algebra plus the no-duplicate
    check makes the sets a faithful multiset abstraction). The All-reduce
    postcondition is then: every node uniformly holds the full rank set.
    Each step's transfer arrays are read once; a bitmask becomes a rank
    list only where a finding prints it.
    """
    schedule = ctx.schedule
    work = sum(step.n_transfers for step in schedule.steps)
    if work > ctx.dataflow_size_limit:
        yield Finding(
            "PLAN003", Severity.INFO,
            f"skipped: schedule has {work} transfers "
            f"(> limit {ctx.dataflow_size_limit})",
        )
        return
    n, total = schedule.n_nodes, schedule.total_elems
    held = [RankRuns(total, 1 << i) for i in range(n)]
    emitted = 0
    for step_no, step in enumerate(schedule.steps):
        src, dst, lo, hi, op = step.src, step.dst, step.lo, step.hi, step.op
        keep = hi > lo
        if not keep.all():
            src, dst, lo, hi, op = (a[keep] for a in (src, dst, lo, hi, op))
        src, dst, lo, hi, op = (a.tolist() for a in (src, dst, lo, hi, op))
        # Bulk-synchronous: snapshot all reads before any write lands.
        reads = [held[s].read(l, h) for s, l, h in zip(src, lo, hi)]
        for d, l, h, o, got in zip(dst, lo, hi, op, reads):
            if o == COPY:
                held[d].write(l, h, got)
        for s, d, l, h, o, got in zip(src, dst, lo, hi, op, reads):
            if o != SUM:
                continue
            for dup_lo, dup_hi, dup in held[d].add(l, h, got):
                if emitted < 16:
                    yield Finding(
                        "PLAN003", Severity.ERROR,
                        f"node {d} double-counts contribution(s) "
                        f"{ranks_of(dup)} over [{dup_lo}, {dup_hi}) "
                        f"(sum from node {s})",
                        step_index=step_no,
                    )
                emitted += 1
    # A shrunk (degraded) schedule only reduces over its participants:
    # they must end holding exactly the participant set, and every
    # bystander (dropped node) must be untouched, still holding only its
    # own contribution.
    participants = ctx.participants
    full = (
        frozenset(range(n)) if participants is None else frozenset(participants)
    )
    for node in range(n):
        expected = full if node in full else frozenset({node})
        bounds = [*held[node].starts, total]
        for k, mask in enumerate(held[node].masks):
            got = frozenset(ranks_of(mask))
            if got != expected:
                break
        else:
            continue
        missing = sorted(expected - got)[:8]
        extra = sorted(got - expected)[:8]
        parts = []
        if missing:
            parts.append(f"missing contributions from ranks {missing}")
        if extra:
            parts.append(f"unexpected ranks {extra}")
        yield Finding(
            "PLAN003", Severity.ERROR,
            f"node {node} ends with incomplete reduction over "
            f"[{bounds[k]}, {bounds[k + 1]}): " + "; ".join(parts),
            details={"node": node},
        )


@register_rule("PLAN004", "step total matches the closed forms (Eqs 5/6)")
def rule_step_count(ctx: CheckContext) -> Iterator[Finding]:
    """Conformance against Table 1 / Eq 5–6 closed-form step counts."""
    algo, n = ctx.algorithm, ctx.n_nodes
    if algo is None or n is None:
        return
    actual = ctx.plan.n_steps if ctx.plan is not None else ctx.schedule.n_steps
    if n == 1:
        if actual != 0:
            yield Finding(
                "PLAN004", Severity.ERROR,
                f"single-node schedule must have 0 steps, has {actual}",
            )
        return
    # A shrunk (degraded) schedule runs the collective over the survivors:
    # every closed form applies to the participant count, not the ring size.
    participants = ctx.participants
    n_eff = n if participants is None else len(participants)
    expected: int | None = None
    source = ""
    if algo == "ring":
        expected, source = ring_steps(n_eff), "2(N-1)"
    elif algo == "bt":
        expected, source = bt_steps(n_eff), "2⌈log2 N⌉"
    elif algo == "rd":
        if ctx.schedule is None:
            yield Finding(
                "PLAN004", Severity.INFO,
                "skipped: RD variant unknown without the schedule",
            )
            return
        variant = ctx.schedule.meta.get("variant", "doubling")
        expected, source = rd_steps(n_eff, variant=variant), f"RD[{variant}]"
    elif algo == "swing":
        expected, source = swing_steps(n_eff), "2⌊log2 N⌋ (+2 off powers of two)"
    elif algo == "scring":
        if ctx.schedule is None:
            yield Finding(
                "PLAN004", Severity.INFO,
                "skipped: SCRing pipeline knob unknown without the schedule",
            )
            return
        pipeline = ctx.schedule.meta.get("pipeline", 1)
        expected, source = (
            scring_steps(n_eff, pipeline),
            f"2⌈(N-1)/min(2·{pipeline}, N-1)⌉",
        )
    elif algo == "wrht":
        plan = ctx.wrht_plan
        if plan is None:
            yield Finding(
                "PLAN004", Severity.INFO,
                "skipped: WRHT plan metadata unavailable",
            )
            return
        closed = wrht_steps(n_eff, plan.m, plan.n_wavelengths)
        if plan.theta != closed:
            yield Finding(
                "PLAN004", Severity.ERROR,
                f"WRHT plan declares θ={plan.theta} but the Eq 5/6 closed "
                f"form gives {closed} (N={n_eff}, m={plan.m}, "
                f"w={plan.n_wavelengths})",
            )
        expected, source = plan.theta, "θ=2⌈log_m N⌉ (−1 with all-to-all)"
    elif algo == "hring":
        yield Finding(
            "PLAN004", Severity.INFO,
            "skipped: the H-Ring closed form counts wavelength-serialized "
            "rounds, not schedule steps",
        )
        return
    else:
        return
    if expected is not None and actual != expected:
        yield Finding(
            "PLAN004", Severity.ERROR,
            f"{algo} covers {actual} steps but the closed form {source} "
            f"gives {expected} for N={n_eff}",
        )


@register_rule("PLAN005", "wavelength and physical-layer budgets hold", needs=("plan",))
def rule_feasibility(ctx: CheckContext) -> Iterator[Finding]:
    """Wavelength budget, Lemma 1 group size, and phy Eqs 7–13."""
    plan = ctx.plan
    budget = ctx.config.n_wavelengths if ctx.config is not None else None
    if budget is not None:
        for index, entry in enumerate(plan.entries):
            rounds = entry.payload if isinstance(entry.payload, tuple) else ()
            for round_no, rnd in enumerate(rounds):
                peak = getattr(rnd, "peak_wavelength", None)
                if peak is not None and peak > budget:
                    yield Finding(
                        "PLAN005", Severity.ERROR,
                        f"round {round_no} uses wavelength index "
                        f"{peak - 1} but the fiber carries only {budget}",
                        step_index=index,
                        details={"round": round_no},
                    )
    wrht = ctx.wrht_plan
    n = ctx.n_nodes
    if wrht is not None and n is not None:
        if wrht.m > n:
            yield Finding(
                "PLAN005", Severity.ERROR,
                f"group size m={wrht.m} exceeds the ring size N={n}",
            )
        lemma_cap = optimal_group_size(wrht.n_wavelengths)
        if wrht.m > lemma_cap:
            yield Finding(
                "PLAN005", Severity.ERROR,
                f"group size m={wrht.m} exceeds Lemma 1's cap 2w+1="
                f"{lemma_cap} for w={wrht.n_wavelengths}",
            )
        if wrht.peak_wavelengths > wrht.n_wavelengths:
            yield Finding(
                "PLAN005", Severity.ERROR,
                f"plan demands {wrht.peak_wavelengths} wavelengths but "
                f"budgets only {wrht.n_wavelengths}",
            )
        if budget is not None and wrht.n_wavelengths > budget:
            yield Finding(
                "PLAN005", Severity.ERROR,
                f"plan was computed for w={wrht.n_wavelengths} but the "
                f"substrate carries {budget} wavelengths",
            )
        if ctx.phy is not None:
            try:
                m_cap = max_group_size(n, ctx.phy, w=wrht.n_wavelengths)
            except ValueError as exc:
                yield Finding("PLAN005", Severity.ERROR, str(exc))
            else:
                if wrht.m > m_cap:
                    yield Finding(
                        "PLAN005", Severity.ERROR,
                        f"group size m={wrht.m} exceeds the physical-layer "
                        f"maximum m'={m_cap} (Eqs 7–13)",
                    )
    if ctx.phy is not None and ctx.circuit_rounds:
        seen_routes: set = set()
        for index, rounds in sorted(ctx.circuit_rounds.items()):
            for circuits in rounds:
                for circuit in circuits:
                    key = (circuit.route.direction, len(circuit.route.segments))
                    if key in seen_routes:
                        continue
                    seen_routes.add(key)
                    yield from route_phy_findings(
                        circuit.route, ctx.phy, step_index=index
                    )


@register_rule(
    "PLAN006", "no order-dependent writes within a step", needs=("schedule",)
)
def rule_write_conflicts(ctx: CheckContext) -> Iterator[Finding]:
    """Order-dependence audit over the profile's representative steps."""
    from repro.collectives.verify import step_write_conflicts

    for index, (step, _count) in enumerate(ctx.profile()):
        for conflict in step_write_conflicts(step):
            first, second = conflict.first, conflict.second
            yield Finding(
                "PLAN006", Severity.ERROR,
                f"writes [{first.lo},{first.hi}):{first.owner.op} and "
                f"[{second.lo},{second.hi}):{second.owner.op} into node "
                f"{conflict.resource} are order-dependent",
                step_index=index,
            )


class _FaultTables:
    """A fault set as lookup tables, built once per context for PLAN007.

    ``dead[λ]``, ``banned[direction, node, λ]`` (a port that cannot
    terminate λ), ``cut[direction, segment]`` and
    ``quarantined[direction, λ, segment]`` over the config's nodes,
    segments and wavelengths; direction 0 is CW, 1 is CCW. A circuit whose
    ids fall outside the tables is always flagged, so :meth:`flagged`
    never misses a violation; the per-circuit messages decide.
    """

    def __init__(self, config, faults, dead_lams, quarantine) -> None:
        n, w = config.n_nodes, config.n_wavelengths
        self.n, self.w = n, w
        self.dead = np.zeros(w, dtype=bool)
        self.dead[[lam for lam in dead_lams if 0 <= lam < w]] = True
        self.banned = np.zeros((2, n, w), dtype=bool)
        self.cut = np.zeros((2, n), dtype=bool)
        for d, direction in enumerate((Direction.CW, Direction.CCW)):
            for f in faults.port_faults:
                for lam in faults.endpoint_blocked(f.node, direction):
                    if 0 <= f.node < n and 0 <= lam < w:
                        self.banned[d, f.node, lam] = True
            for seg in faults.cut_segments:
                if 0 <= seg < n and faults.is_cut(seg, direction):
                    self.cut[d, seg] = True
        self.quarantined = np.zeros((2, w, n), dtype=bool)
        for (direction, lam), span in quarantine.items():
            if 0 <= lam < w:
                segs = [seg for seg in range(n) if span >> seg & 1]
                self.quarantined[int(direction is Direction.CCW), lam, segs] = True
        self.has_span = self.quarantined.any(axis=2)
        self.has_cut = self.cut.any(axis=1)

    def flagged(self, circuits: list) -> list[int]:
        """Indices, in order, of the circuits that may use a failed
        resource: a superset of the violators."""
        try:
            lam = exact_int64([c.wavelength for c in circuits])
            src = exact_int64([c.transfer.src for c in circuits])
            dst = exact_int64([c.transfer.dst for c in circuits])
        except struct.error:
            return list(range(len(circuits)))
        ccw = np.array(
            [c.route.direction is Direction.CCW for c in circuits], dtype=np.intp
        )
        out = (lam >= self.w) | (np.minimum(src, dst) < 0) | (
            np.maximum(src, dst) >= self.n
        )
        lam, src, dst = (np.where(out, 0, a) for a in (lam, src, dst))
        flag = out | self.dead[lam] | self.banned[ccw, src, lam]
        flag |= self.banned[ccw, dst, lam]
        # Segment tests only for circuits on a direction with a cut or a
        # (direction, λ) with a quarantined span.
        probe = np.flatnonzero(~flag & (self.has_cut[ccw] | self.has_span[ccw, lam]))
        if probe.size:
            routes = [circuits[i].route.segments for i in probe.tolist()]
            hops = np.array([len(r) for r in routes])
            segs = np.fromiter(chain.from_iterable(routes), np.int64, int(hops.sum()))
            bad = (segs < 0) | (segs >= self.n)
            segs = np.where(bad, 0, segs)
            p_ccw, p_lam = np.repeat(ccw[probe], hops), np.repeat(lam[probe], hops)
            bad |= self.cut[p_ccw, segs] | self.quarantined[p_ccw, p_lam, segs]
            starts = np.concatenate(([0], np.cumsum(hops)[:-1]))
            flag[probe] = np.logical_or.reduceat(bad, starts)
        return np.flatnonzero(flag).tolist()


@register_rule(
    "PLAN007", "no circuit or transfer uses a failed resource", needs=("config",)
)
def rule_no_failed_resources(ctx: CheckContext) -> Iterator[Finding]:
    """Fault-avoidance audit: a degraded plan must not touch dead hardware.

    Checks every derived circuit against the config's fault set — dead
    wavelengths, banned MRR endpoint ports, quarantined (stuck-MRR) spans,
    cut fiber segments — and every scheduled transfer against the dropped
    nodes. Yields nothing for a fault-free config, so healthy plans verify
    at zero cost. Each round is first flagged with array lookups in
    :class:`_FaultTables`; the per-circuit messages run only on the
    flagged circuits, in round order.
    """
    config = ctx.config
    faults = config.faults
    dead_lams = config.dead_wavelengths
    if not faults and not dead_lams:
        return
    dead_nodes = faults.dead_nodes
    quarantine = faults.segment_quarantine_masks(config.n_nodes)
    if dead_nodes:
        for index, (step, _count) in enumerate(ctx.profile()):
            for src, dst in zip(step.src.tolist(), step.dst.tolist()):
                for node in (src, dst):
                    if node in dead_nodes:
                        yield Finding(
                            "PLAN007", Severity.ERROR,
                            f"transfer {src} -> {dst} touches dropped "
                            f"node {node} — the schedule must shrink to "
                            "the survivors",
                            step_index=index,
                        )
    if not ctx.circuit_rounds:
        return
    tables = _FaultTables(config, faults, dead_lams, quarantine)
    for index, rounds in sorted(ctx.circuit_rounds.items()):
        for round_no, circuits in enumerate(rounds):
            for i in tables.flagged(circuits) if circuits else ():
                c = circuits[i]
                direction = c.route.direction
                who = f"circuit {c.transfer.src} -> {c.transfer.dst}"
                if c.wavelength in dead_lams:
                    yield Finding(
                        "PLAN007", Severity.ERROR,
                        f"round {round_no}: {who} rides dead wavelength "
                        f"{c.wavelength}",
                        step_index=index,
                        details={"round": round_no},
                    )
                banned = faults.endpoint_blocked(
                    c.transfer.src, direction
                ) | faults.endpoint_blocked(c.transfer.dst, direction)
                if c.wavelength in banned:
                    yield Finding(
                        "PLAN007", Severity.ERROR,
                        f"round {round_no}: {who} terminates wavelength "
                        f"{c.wavelength} on a failed MRR port",
                        step_index=index,
                        details={"round": round_no},
                    )
                cut = [
                    seg for seg in c.route.segments
                    if faults.is_cut(seg, direction)
                ]
                if cut:
                    yield Finding(
                        "PLAN007", Severity.ERROR,
                        f"round {round_no}: {who} crosses cut "
                        f"segment(s) {cut} ({direction.value})",
                        step_index=index,
                        details={"round": round_no},
                    )
                span = quarantine.get((direction, c.wavelength), 0)
                bad = [seg for seg in c.route.segments if span >> seg & 1]
                if bad:
                    yield Finding(
                        "PLAN007", Severity.ERROR,
                        f"round {round_no}: {who} crosses quarantined "
                        f"segment(s) {bad} on wavelength {c.wavelength}",
                        step_index=index,
                        details={"round": round_no},
                    )


@register_rule(
    "PLAN008",
    "no circuit transmits on a resource still being tuned",
    needs=("plan",),
)
def rule_reconfig_tuning(ctx: CheckContext) -> Iterator[Finding]:
    """Reconfiguration-overlap audit (:mod:`repro.optical.reconfig`).

    Inert unless the plan carries reconfiguration meta with a live tuning
    model. For optical plans the rule re-derives, from the recorded MRR
    claims alone, the tuning every round must expose: held claims cost
    nothing, claims whose channel was active in the previous round are
    *blocked* (wavelength exclusivity across the k/k+1 boundary forbids
    tuning onto a transmitting channel) and must be fully serial, and
    disjoint claims may hide behind the previous round's transmission
    window. A recorded exposure below that requirement means a circuit
    would transmit on a resource still being tuned. The plan's declared
    tuning total is cross-checked against the recorded per-round values.
    """
    plan = ctx.plan
    info = plan.meta.get("reconfig")
    if not isinstance(info, dict):
        return
    if plan.backend != "optical":
        # The analytic backend prices a claim-free closed-form exposure;
        # there is no per-round tuning schedule to audit.
        return
    from repro.optical.reconfig import ReconfigModel, split_tuning

    model = ReconfigModel(
        t_tune=info.get("t_tune", 0.0),
        tune_per_channel=info.get("tune_per_channel", 0.0),
    )
    if not model.enabled:
        return
    overlap = bool(info.get("overlap", True))
    prev_claims: tuple = ()
    prev_payload = 0.0
    recorded_total = 0.0
    for index, entry in enumerate(plan.entries):
        rounds = entry.payload if isinstance(entry.payload, tuple) else ()
        # Occurrence 0 audits the boundary inherited from the previous
        # entry; occurrence 1 (when the entry repeats) the self-repeat
        # boundary. Occurrences 2.. see the identical boundary as 1, so
        # two passes cover every boundary the fold charges.
        for occurrence in range(min(entry.count, 2)):
            weight = 1 if occurrence == 0 else entry.count - 1
            for round_no, rnd in enumerate(rounds):
                claims = getattr(rnd, "claims", ())
                if getattr(rnd, "n_circuits", 0) and not claims:
                    yield Finding(
                        "PLAN008", Severity.ERROR,
                        f"round {round_no} has circuits but no recorded MRR "
                        "claims — the tuning schedule cannot be audited",
                        step_index=index,
                        details={"round": round_no},
                    )
                    return
                blocked, free = split_tuning(model, prev_claims, claims)
                if overlap:
                    required = max(blocked, max(0.0, free - prev_payload))
                else:
                    required = max(blocked, free)
                recorded = getattr(rnd, "tune_s", 0.0)
                recorded_total += recorded * weight
                if recorded + 1e-12 * max(1.0, required) < required:
                    if recorded < blocked:
                        message = (
                            f"round {round_no}: circuits transmit on a "
                            "channel still being tuned — "
                            f"{blocked:.3e}s of tuning is blocked by the "
                            "previous round's active circuits but only "
                            f"{recorded:.3e}s is exposed"
                        )
                    else:
                        message = (
                            f"round {round_no}: exposed tuning "
                            f"{recorded:.3e}s under-prices the required "
                            f"{required:.3e}s"
                        )
                    yield Finding(
                        "PLAN008", Severity.ERROR, message,
                        step_index=index,
                        details={"round": round_no, "occurrence": occurrence},
                    )
                prev_claims = claims
                prev_payload = getattr(rnd, "max_payload_s", 0.0)
    declared = info.get("exposed_tune_s")
    if declared is not None and abs(declared - recorded_total) > 1e-9 * max(
        1.0, abs(declared)
    ):
        yield Finding(
            "PLAN008", Severity.ERROR,
            f"plan meta declares {declared:.6e}s of exposed tuning but the "
            f"recorded per-round values sum to {recorded_total:.6e}s",
        )


def iter_rule_docs() -> Iterable[tuple[str, str]]:
    """``(rule_id, title)`` pairs for the registered plan rules (docs/CLI)."""
    from repro.check.engine import all_rules

    return [(rule.rule_id, rule.title) for rule in all_rules()]
