"""PLAN003/PLAN006/PLAN007: the array kernels against the code they replaced.

:mod:`repro.check.plan_rules` proves conservation on int-bitmask runs,
gates write conflicts with one sort per step and flags failed-resource
circuits with array masks. ``tests/check/plan_rules_reference.py`` keeps
the frozenset map, the claim-per-write sweep and the per-segment loop they
replaced. On every case here both must yield the same findings — rule id,
severity, message, step index and details, in the same order — and stop
with the same error, if any, after the same findings.

The corpus: every registered schedule at small, odd and power-of-two N and
several payloads; each with seeded mutations (a transfer dropped,
duplicated, op-flipped, widened or retargeted); shrunk schedules, one with
tampered participants; and optical circuits moved onto a dead wavelength,
a banned port, a quarantined span or a cut segment, plus the repaired
plans of the fault sweep's scenarios.
"""

from __future__ import annotations

import random
from dataclasses import replace

import numpy as np
import pytest

from repro.check.context import CheckContext, optical_context
from repro.check.plan_rules import (
    rule_dataflow_conservation,
    rule_no_failed_resources,
    rule_write_conflicts,
)
from repro.collectives.base import CommStep, Schedule, Transfer
from repro.collectives.degraded import build_shrunk_schedule
from repro.collectives.registry import available_algorithms, build_schedule
from repro.collectives.verify import step_write_conflicts
from repro.faults.models import (
    CutFiber,
    DeadWavelength,
    DroppedNode,
    FaultSet,
    MrrPortFault,
)
from repro.optical.config import OpticalSystemConfig
from repro.optical.network import OpticalRingNetwork
from repro.optical.topology import Direction, Route
from repro.runner.faultsweep import default_fault_scenarios
from tests.check.plan_rules_reference import (
    dataflow_conservation_reference,
    no_failed_resources_reference,
    step_write_conflicts_reference,
    write_conflicts_reference,
)

PAIRS = {
    "PLAN003": (rule_dataflow_conservation, dataflow_conservation_reference),
    "PLAN006": (rule_write_conflicts, write_conflicts_reference),
    "PLAN007": (rule_no_failed_resources, no_failed_resources_reference),
}
NODES = (2, 3, 5, 8, 13, 16, 31, 32)
MUTATIONS = ("drop", "duplicate", "flip", "widen", "retarget")


def outcome(rule, ctx):
    """Findings a rule yields, then the error that stopped it (or None)."""
    found = []
    try:
        for finding in rule(ctx):
            found.append(finding.to_dict())
    except Exception as exc:  # the error itself is compared
        return found, (type(exc), str(exc))
    return found, None


def assert_parity(ctx, rule_ids=("PLAN003", "PLAN006")):
    results = {}
    for rule_id in rule_ids:
        ours, ref = (outcome(rule, ctx) for rule in PAIRS[rule_id])
        assert ours == ref, rule_id
        results[rule_id] = ours
    return results


def _kwargs(algo, n):
    return {"n_wavelengths": 4} if algo == "wrht" else {}


def _schedule(algo, n, elems):
    return build_schedule(algo, n, elems, **_kwargs(algo, n))


def _with_steps(schedule, steps):
    """The schedule with its steps (and a one-per-step profile) replaced."""
    return Schedule(
        schedule.algorithm, schedule.n_nodes, schedule.total_elems,
        steps, [(step, 1) for step in steps], dict(schedule.meta),
    )


def mutate(schedule, kind, rng):
    """One seeded single-transfer mutation of a materialized schedule."""
    steps = list(schedule.steps)
    k = rng.randrange(len(steps))
    rows = [list(row) for row in zip(*(a.tolist() for a in steps[k]._arrays()))]
    i = rng.randrange(len(rows))
    n, total = schedule.n_nodes, schedule.total_elems
    if kind == "drop":
        if len(rows) == 1:
            del steps[k]
            return _with_steps(schedule, steps) if steps else None
        del rows[i]
    elif kind == "duplicate":
        rows.insert(rng.randrange(len(rows) + 1), list(rows[i]))
    elif kind == "flip":
        rows[i][4] = 1 - rows[i][4]
    elif kind == "widen":
        src, dst, lo, hi, op = rows[i]
        rows[i] = [src, dst, max(0, lo - rng.randrange(3)), hi + rng.randrange(4), op]
        if rng.random() < 0.2:
            rows[i][3] = total + 1  # runs past the vector: an error path
    else:  # retarget
        src = rows[i][0]
        choices = [d for d in range(n + 1) if d != src]  # n itself is no node
        rows[i][1] = rng.choice(choices)
    src, dst, lo, hi, op = (list(col) for col in zip(*rows))
    if rng.random() < 0.3:
        # A transfer-built step derives its arrays from Transfer objects.
        ops = ("sum", "copy")
        step = CommStep(
            [Transfer(s, d, a, b, ops[o]) for s, d, a, b, o in rows],
            steps[k].stage, steps[k].level,
        )
    else:
        step = CommStep.from_arrays(src, dst, lo, hi, op, steps[k].stage, steps[k].level)
    steps[k] = step
    return _with_steps(schedule, steps)


class TestRegistrySchedules:
    @pytest.mark.parametrize("algo", available_algorithms())
    def test_clean_schedules(self, algo):
        for n in NODES:
            for elems in (1, n - 1 or 1, n, 97, 1000):
                schedule = _schedule(algo, n, elems)
                if schedule.steps is None:
                    continue
                ctx = CheckContext(schedule=schedule)
                assert_parity(ctx)
                # Materialized steps, one profile entry each.
                assert_parity(CheckContext(schedule=_with_steps(schedule, schedule.steps)))

    def test_large_swing_clean(self):
        schedule = _schedule("swing", 64, 4096)
        results = assert_parity(CheckContext(schedule=schedule))
        assert results["PLAN003"] == ([], None)

    @pytest.mark.parametrize("algo", available_algorithms())
    def test_mutations(self, algo):
        rng = random.Random(f"plan-parity-{algo}")
        flagged = 0
        for n in (3, 5, 8, 13, 16):
            for elems in (n, 97):
                schedule = _schedule(algo, n, elems)
                if schedule.steps is None or not schedule.steps:
                    continue
                for kind in MUTATIONS:
                    for _ in range(2):
                        mutated = mutate(schedule, kind, rng)
                        if mutated is None:
                            continue
                        results = assert_parity(CheckContext(schedule=mutated))
                        flagged += any(found or error for found, error in results.values())
        # The corpus must reach the findings and the error paths, not only
        # clean verdicts.
        assert flagged > 10


class TestStepWriteConflicts:
    """The sorted gate decides exactly when the claim sweep finds nothing."""

    def test_random_steps(self):
        rng = random.Random("write-gate")
        for _ in range(400):
            n = rng.randrange(2, 6)
            rows = []
            for _ in range(rng.randrange(1, 9)):
                src = rng.randrange(n)
                dst = rng.choice([d for d in range(n) if d != src])
                lo = rng.randrange(12)
                rows.append((src, dst, lo, lo + rng.randrange(5), rng.randrange(2)))
            step = CommStep.from_arrays(*(list(col) for col in zip(*rows)))
            for first_only in (False, True):
                ours = step_write_conflicts(step, first_only=first_only)
                ref = step_write_conflicts_reference(step, first_only=first_only)
                assert [(c.resource, c.first, c.second) for c in ours] == [
                    (c.resource, c.first, c.second) for c in ref
                ]

    def test_lift_overflow_falls_back_to_the_sweep(self):
        big = 1 << 61
        step = CommStep.from_arrays(
            [0, 1, 2], [3, 4, 3], [0, 0, big - 5], [big, big, big], [1, 0, 0]
        )
        assert step_write_conflicts(step) == step_write_conflicts_reference(step)
        assert len(step_write_conflicts(step)) == 1


class TestShrunkSchedules:
    SURVIVORS = {
        5: (0, 2, 3),
        8: (0, 1, 3, 4, 6),
        12: (0, 1, 2, 4, 5, 7, 8, 10, 11),
        16: tuple(i for i in range(16) if i % 5),
    }

    @pytest.mark.parametrize("algo", available_algorithms())
    def test_shrunk(self, algo):
        for n, survivors in self.SURVIVORS.items():
            for elems in (len(survivors), 100):
                schedule = build_shrunk_schedule(
                    algo, n, elems, survivors, **_kwargs(algo, len(survivors))
                )
                results = assert_parity(CheckContext(schedule=schedule))
                assert results["PLAN003"] == ([], None)

    def test_tampered_participants(self):
        schedule = build_shrunk_schedule("ring", 12, 60, (0, 1, 2, 4, 5, 7, 8, 10, 11))
        for participants in (
            (0, 1, 2, 4, 5, 7, 8, 10),
            tuple(range(12)),
            (0, 1, 2, 4, 5, 7, 8, 10, 11, 40),
            (-1, 0, 1, 2, 4, 5, 7, 8, 10, 11),
        ):
            tampered = Schedule(
                schedule.algorithm, schedule.n_nodes, schedule.total_elems,
                schedule.steps, schedule.timing_profile,
                {**schedule.meta, "participants": participants},
            )
            found, error = assert_parity(CheckContext(schedule=tampered))["PLAN003"]
            assert found and error is None


def _healthy_context(algo, n, w, faults):
    """Circuits a healthy network priced, audited under ``faults``."""
    schedule = _schedule(algo, n, 4 * n)
    healthy = OpticalRingNetwork(OpticalSystemConfig(n_nodes=n, n_wavelengths=w))
    ctx = optical_context(healthy, schedule)
    return replace(
        ctx, config=OpticalSystemConfig(n_nodes=n, n_wavelengths=w, faults=faults)
    )


def _move(ctx, rng, onto):
    """Copy ``ctx`` with a random third of the circuits moved by ``onto``."""
    rounds = {
        index: [
            [onto(c) if rng.random() < 0.34 else c for c in circuits]
            for circuits in entry
        ]
        for index, entry in ctx.circuit_rounds.items()
    }
    return replace(ctx, circuit_rounds=rounds)


class TestFailedResourceCircuits:
    N, W = 16, 4
    FAULTS = {
        "dead-wavelength": (FaultSet.of(DeadWavelength(1)), 1),
        "dead-port": (FaultSet.of(MrrPortFault(node=3, wavelength=2, mode="dead")), 2),
        "stuck-mrr": (FaultSet.of(MrrPortFault(node=5, wavelength=0, mode="stuck")), 0),
        "stuck-one-way": (
            FaultSet.of(MrrPortFault(node=9, wavelength=3, mode="stuck", direction="ccw")),
            3,
        ),
        "cut": (FaultSet.of(CutFiber(segment=7)), 0),
        "cut-one-way": (FaultSet.of(CutFiber(segment=2, direction="cw")), 0),
        "dropped-node": (FaultSet.of(DroppedNode(4)), 0),
        "mixed": (
            FaultSet.of(
                DeadWavelength(3),
                MrrPortFault(node=1, wavelength=1, mode="stuck"),
                MrrPortFault(node=11, wavelength=2, mode="dead", direction="cw"),
                CutFiber(segment=12, direction="ccw"),
            ),
            1,
        ),
    }

    @pytest.mark.parametrize("algo", ["wrht", "swing", "rd", "ring"])
    def test_moved_circuits(self, algo):
        flagged = set()
        for scenario, (faults, lam) in self.FAULTS.items():
            rng = random.Random(f"{algo}-{scenario}")
            ctx = _healthy_context(algo, self.N, self.W, faults)
            assert_parity(ctx, ("PLAN007",))
            moved = _move(ctx, rng, lambda c, lam=lam: replace(c, wavelength=lam))
            found, error = assert_parity(moved, ("PLAN007",))["PLAN007"]
            assert error is None
            if found:
                flagged.add(scenario)
        assert {"dead-wavelength", "dropped-node", "mixed"} <= flagged
        assert len(flagged) >= 5

    def test_ids_outside_the_tables(self):
        """Circuits the tables cannot index are flagged and judged by the
        per-circuit messages, exactly as before."""
        faults = FaultSet.of(
            MrrPortFault(node=3, wavelength=1, mode="stuck"),
            DeadWavelength(2),
        )
        ctx = _healthy_context("swing", self.N, self.W, faults)
        rng = random.Random("outside")
        odd = [
            lambda c: replace(c, wavelength=self.W + 3),
            lambda c: replace(c, transfer=Transfer(40, c.transfer.dst, 0, 1)),
            lambda c: replace(c, transfer=Transfer(-2, c.transfer.dst, 0, 1)),
            lambda c: replace(c, route=Route(c.route.direction, (3, 99))),
            lambda c: replace(c, route=Route(Direction.CW, (2, 3, 4)), wavelength=1),
        ]
        moved = _move(ctx, rng, lambda c: rng.choice(odd)(c))
        found, error = assert_parity(moved, ("PLAN007",))["PLAN007"]
        assert found and error is None


class TestRepairedPlans:
    """The fault sweep's repaired plans, as faults-live verifies them."""

    @pytest.mark.parametrize("algo", ["wrht", "swing", "rd"])
    def test_repaired(self, algo):
        n, w = 16, 8
        base = OpticalRingNetwork(
            OpticalSystemConfig(n_nodes=n, n_wavelengths=w), keep_solutions=True
        )
        schedule = build_schedule(algo, n, 1000, **({"n_wavelengths": w} if algo == "wrht" else {}))
        base.lower(schedule, 4.0)
        for faults in default_fault_scenarios(n, w).values():
            if faults.dead_nodes or faults.cut_segments:
                continue
            plan, network = base.repair_plan(schedule, faults, bytes_per_elem=4.0)
            ctx = optical_context(network, schedule, plan, bytes_per_elem=4.0)
            results = assert_parity(ctx, ("PLAN003", "PLAN006", "PLAN007"))
            assert all(found == [] and error is None for found, error in results.values())


def test_rank_masks_render_as_sorted_lists():
    from repro.check.intervals import ranks_of

    assert ranks_of(0) == []
    assert ranks_of(0b1011) == [0, 1, 3]
    assert ranks_of(1 << 127 | 1) == [0, 127]
    mask = int(np.uint64(0xF0F0))
    assert ranks_of(mask) == sorted(r for r in range(16) if mask >> r & 1)
