"""Fault-injection smoke check: ``python -m repro.faults``.

The CI stage behind ``scripts/check.sh``. For one seeded system size it

1. prices a dead-wavelength scenario and the compound acceptance scenario
   (dead wavelength + dead representative) on every fault-aware backend,
   statically verifying each degraded plan with :mod:`repro.check` (all
   PLAN rules, including PLAN007 "no failed resource used");
2. replays the schedule on the live discrete-event executor with a
   mid-flight dead-wavelength :class:`~repro.faults.models.FaultEvent` and
   asserts the run is deterministic — two invocations with identical
   inputs must report identical total time, retry and interruption counts;
3. repairs the healthy plan incrementally under the same fault
   (:meth:`~repro.optical.network.OpticalRingNetwork.repair_plan`) and
   asserts the repaired plan executes to the exact from-scratch degraded
   total and verifies clean, and that the live executor's ``repair=True``
   path reproduces the plain replan run bit for bit;
4. repairs a saturated plan — Swing at N=32/w=8 under the canonical stuck
   MRR — and asserts the repair cascades (``rwa.repair_cascades > 0``) and
   the repaired plan verifies clean. ``--paranoid-repair`` additionally
   cross-checks every individual repair against a from-scratch recolor
   inside the repair engine, which counts a divergence (and keeps the
   scratch rounds) only where the repair needs more rounds than scratch.

Exit status is non-zero when any check fails, so the stage gates CI.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from repro.backend.plancache import PlanCache
from repro.check.context import optical_context
from repro.check.engine import verify_plan
from repro.check.findings import errors
from repro.collectives import build_wrht_schedule
from repro.collectives.registry import build_schedule
from repro.faults.models import DeadWavelength, FaultEvent, FaultSet
from repro.obs.metrics import MetricsRegistry
from repro.optical.config import OpticalSystemConfig
from repro.optical.livesim import LiveOpticalSimulation
from repro.optical.network import OpticalRingNetwork
from repro.runner.faultsweep import (
    FAULT_BACKENDS,
    default_fault_scenarios,
    run_fault_scenario,
)


def _check_scenarios(n_nodes: int, n_wavelengths: int, total_elems: int) -> int:
    """Degraded plans must verify clean on every backend; returns #failures."""
    failures = 0
    scenarios = default_fault_scenarios(n_nodes, n_wavelengths)
    for name in ("dead-wavelength", "compound"):
        for backend in FAULT_BACKENDS:
            cell = run_fault_scenario(
                name,
                scenarios[name],
                n_nodes=n_nodes,
                n_wavelengths=n_wavelengths,
                total_elems=total_elems,
                backend=backend,
            )
            ok = cell.n_errors == 0
            failures += 0 if ok else 1
            print(
                f"[{'ok' if ok else 'FAIL'}] {name} on {backend}: "
                f"survivors={cell.n_survivors} "
                f"degraded={cell.degraded_time:.3e}s "
                f"(+{cell.slowdown_pct:.0f}%), "
                f"{cell.n_errors} check error(s)"
            )
    return failures


def _check_live_determinism(
    n_nodes: int, n_wavelengths: int, total_elems: int
) -> int:
    """Two identical mid-flight-fault runs must agree bit for bit."""
    config = OpticalSystemConfig(n_nodes=n_nodes, n_wavelengths=n_wavelengths)
    schedule = build_wrht_schedule(
        n_nodes, total_elems, n_wavelengths=n_wavelengths
    )
    healthy = LiveOpticalSimulation(config).run(schedule)
    # Kill a wavelength mid-run, at a time pinned to the healthy total so
    # the check scales with the system size instead of hard-coding seconds.
    events = (FaultEvent(healthy.total_time / 2, DeadWavelength(0)),)
    runs = [
        LiveOpticalSimulation(config, fault_events=events).run(schedule)
        for _ in range(2)
    ]
    fingerprints = [
        (r.total_time, r.n_retries, r.n_interrupted, r.n_events) for r in runs
    ]
    ok = fingerprints[0] == fingerprints[1]
    r = runs[0]
    print(
        f"[{'ok' if ok else 'FAIL'}] live mid-flight fault: "
        f"total={r.total_time:.3e}s retries={r.n_retries} "
        f"interrupted={r.n_interrupted} events={r.n_events} "
        f"(two runs {'identical' if ok else 'DIVERGED'})"
    )
    return 0 if ok else 1


def _check_repair(
    n_nodes: int, n_wavelengths: int, total_elems: int, paranoid: bool
) -> int:
    """Incremental repair must be semantically invisible; returns #failures."""
    failures = 0
    schedule = build_wrht_schedule(
        n_nodes, total_elems, n_wavelengths=n_wavelengths
    )
    faults = FaultSet.of(DeadWavelength(0))

    # Offline: repair the healthy plan's cached solutions and compare with
    # a from-scratch degraded lowering. Private caches keep the stage
    # hermetic (a primed shared cache would skip solution capture).
    config = OpticalSystemConfig(n_nodes=n_nodes, n_wavelengths=n_wavelengths)
    metrics = MetricsRegistry(enabled=True)
    base = OpticalRingNetwork(
        config, keep_solutions=True, plan_cache=PlanCache(), metrics=metrics
    )
    base.lower(schedule, 4.0)
    repaired_plan, degraded_net = base.repair_plan(
        schedule, faults, paranoid=paranoid
    )
    scratch_net = OpticalRingNetwork(
        replace(config, faults=faults), plan_cache=PlanCache()
    )
    scratch_plan = scratch_net.lower(schedule, 4.0)
    # Exact-determinism fingerprints, same idiom as the live check: the
    # repaired plan must execute to the from-scratch total bit for bit.
    fingerprints = [
        degraded_net.execute_plan(repaired_plan).total_time,
        scratch_net.execute_plan(scratch_plan).total_time,
    ]
    findings = verify_plan(
        context=optical_context(degraded_net, schedule, repaired_plan)
    )
    counters = metrics.snapshot().counters
    ok = (
        fingerprints[0] == fingerprints[1]
        and errors(findings) == []
        and counters.get("rwa.repair_calls", 0) > 0
        and counters.get("rwa.repair_paranoid_divergence", 0) == 0
    )
    failures += 0 if ok else 1
    print(
        f"[{'ok' if ok else 'FAIL'}] incremental repair: "
        f"repaired={fingerprints[0]:.3e}s scratch={fingerprints[1]:.3e}s "
        f"repairs={counters.get('rwa.repair_calls', 0)} "
        f"fallbacks={counters.get('rwa.repair_fallback', 0)} "
        f"check errors={len(errors(findings))}"
        f"{' (paranoid)' if paranoid else ''}"
    )

    # Live: the repair=True executor path must reproduce the plain
    # replan run exactly.
    healthy = LiveOpticalSimulation(config).run(schedule)
    events = (FaultEvent(healthy.total_time / 2, DeadWavelength(0)),)
    plain = LiveOpticalSimulation(config, fault_events=events).run(schedule)
    live = LiveOpticalSimulation(
        config, fault_events=events, repair=True, paranoid_repair=paranoid
    ).run(schedule)
    live_ok = (
        (plain.total_time, plain.n_retries, plain.n_interrupted, plain.n_events)
        == (live.total_time, live.n_retries, live.n_interrupted, live.n_events)
    )
    failures += 0 if live_ok else 1
    print(
        f"[{'ok' if live_ok else 'FAIL'}] live repair replay: "
        f"total={live.total_time:.3e}s "
        f"({'matches' if live_ok else 'DIVERGED from'} plain replan)"
    )
    return failures


#: The smallest canonical system whose Swing stuck-MRR repair cascades
#: (at N=16/w=8 every recolor succeeds on the first try).
CASCADE_SYSTEM = (32, 8)


def _check_cascade(paranoid: bool) -> int:
    """A saturated repair must cascade and still verify clean; returns #failures."""
    n_nodes, n_wavelengths = CASCADE_SYSTEM
    schedule = build_schedule("swing", n_nodes, 100_000)
    metrics = MetricsRegistry(enabled=True)
    base = OpticalRingNetwork(
        OpticalSystemConfig(n_nodes=n_nodes, n_wavelengths=n_wavelengths),
        keep_solutions=True, plan_cache=PlanCache(), metrics=metrics,
    )
    base.lower(schedule, 4.0)
    faults = default_fault_scenarios(n_nodes, n_wavelengths)["stuck-mrr"]
    plan, network = base.repair_plan(schedule, faults, paranoid=paranoid)
    findings = verify_plan(context=optical_context(network, schedule, plan))
    counters = metrics.snapshot().counters
    ok = (
        counters.get("rwa.repair_cascades", 0) > 0
        and errors(findings) == []
        and counters.get("rwa.repair_paranoid_divergence", 0) == 0
    )
    print(
        f"[{'ok' if ok else 'FAIL'}] cascading repair (swing N={n_nodes} "
        f"w={n_wavelengths}, stuck MRR): "
        f"repairs={counters.get('rwa.repair_calls', 0)} "
        f"cascades={counters.get('rwa.repair_cascades', 0)} "
        f"fallbacks={counters.get('rwa.repair_fallback', 0)} "
        f"check errors={len(errors(findings))}"
        f"{' (paranoid)' if paranoid else ''}"
    )
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    """Run the smoke checks; returns the process exit status (0 = clean)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="fault-injection smoke check (degraded plans verify "
        "clean; live fault runs are deterministic)",
    )
    parser.add_argument("--n-nodes", type=int, default=16)
    parser.add_argument("--n-wavelengths", type=int, default=8)
    parser.add_argument("--total-elems", type=int, default=50_000)
    parser.add_argument(
        "--paranoid-repair", action="store_true",
        help="cross-check every incremental repair against a from-scratch "
        "recolor inside the repair engine (a repair needing more rounds "
        "than scratch is a divergence)",
    )
    args = parser.parse_args(argv)

    failures = _check_scenarios(
        args.n_nodes, args.n_wavelengths, args.total_elems
    )
    failures += _check_live_determinism(
        args.n_nodes, args.n_wavelengths, args.total_elems
    )
    failures += _check_repair(
        args.n_nodes, args.n_wavelengths, args.total_elems,
        args.paranoid_repair,
    )
    failures += _check_cascade(args.paranoid_repair)
    if failures:
        print(f"fault smoke: {failures} check(s) failed", file=sys.stderr)
        return 1
    print("fault smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
