"""Degraded-mode availability and fault-machinery overhead.

Two measurements, written to ``BENCH_faults.json`` at the repo root:

1. **Availability sweep** — every canonical fault scenario
   (:func:`repro.runner.faultsweep.default_fault_scenarios`) priced on
   both fault-aware backends, each degraded plan statically verified by
   :mod:`repro.check` before its number is reported. The interesting
   figure per row is the availability ratio (healthy / degraded
   throughput).
2. **Zero-fault overhead** — lowering with the fault machinery present but
   the fault set empty must cost (essentially) the same as the seed path:
   the fault views are hoisted once per network and every per-round check
   is gated on emptiness. Measured as warm ``lower`` time with and without
   an (inert) empty fault set attached.

Floors asserted: every scenario verifies clean; availability stays above
50% for single faults; the empty-fault overhead stays under 25% on a warm
lower (the gate is a handful of attribute reads; the bound is generous to
absorb timer noise at microsecond scale).
"""

import json
import time
from pathlib import Path

from repro.backend.plancache import PlanCache
from repro.collectives import build_wrht_schedule
from repro.faults.models import FaultSet
from repro.obs.benchgate import BenchSchema, Section
from repro.optical.config import OpticalSystemConfig
from repro.optical.network import OpticalRingNetwork
from repro.runner.faultsweep import default_fault_scenarios, run_fault_sweep
from repro.util.tables import AsciiTable

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_faults.json"

N_NODES = 64
N_WAVELENGTHS = 16
TOTAL_ELEMS = 100_000
OVERHEAD_REPEATS = 50


def _run_availability():
    cells = run_fault_sweep(
        n_nodes=N_NODES, n_wavelengths=N_WAVELENGTHS, total_elems=TOTAL_ELEMS
    )
    return [
        {
            "scenario": c.scenario, "backend": c.backend,
            "n_survivors": c.n_survivors,
            "healthy_s": c.healthy_time, "degraded_s": c.degraded_time,
            "slowdown_pct": c.slowdown_pct, "availability": c.availability,
            "n_errors": c.n_errors,
        }
        for c in cells
    ]


#: The availability sweep is deterministic; an availability number whose
#: plan failed static verification is worthless, so ``n_errors`` must be 0.
GATE = BenchSchema(OUT_PATH.name, lambda: {"scenarios": _run_availability()}, (
    Section("scenarios", ("scenario", "backend"), "faults.{scenario}.{backend}",
            zero=("n_errors",), exact=("n_survivors",),
            rel=("healthy_s", "degraded_s", "slowdown_pct", "availability")),
))


def _time_warm_lower(config):
    """Seconds per warm ``lower`` (plan cache disabled; RWA caches warm)."""
    net = OpticalRingNetwork(config, plan_cache=PlanCache(maxsize=0))
    schedule = build_wrht_schedule(
        config.n_nodes, TOTAL_ELEMS, n_wavelengths=config.n_wavelengths
    )
    net.lower(schedule, 4.0)  # warm routing/pattern state
    t0 = time.perf_counter()
    for _ in range(OVERHEAD_REPEATS):
        net.lower(schedule, 4.0)
    return (time.perf_counter() - t0) / OVERHEAD_REPEATS


def _run_overhead():
    base = OpticalSystemConfig(n_nodes=N_NODES, n_wavelengths=N_WAVELENGTHS)
    gated = OpticalSystemConfig(
        n_nodes=N_NODES, n_wavelengths=N_WAVELENGTHS, faults=FaultSet()
    )
    baseline_s = _time_warm_lower(base)
    empty_faults_s = _time_warm_lower(gated)
    return {
        "n_nodes": N_NODES, "n_wavelengths": N_WAVELENGTHS,
        "repeats": OVERHEAD_REPEATS,
        "baseline_lower_s": baseline_s,
        "empty_faultset_lower_s": empty_faults_s,
        "overhead_pct": 100.0 * (empty_faults_s - baseline_s) / baseline_s,
    }


def test_fault_availability_and_overhead(once):
    rows = once(_run_availability)
    table = AsciiTable(
        ["scenario", "backend", "survivors", "degraded (ms)",
         "slowdown", "availability", "check errors"]
    )
    for row in rows:
        table.add_row([
            row["scenario"], row["backend"], row["n_survivors"],
            f"{row['degraded_s'] * 1e3:.4f}",
            f"{row['slowdown_pct']:+.0f}%",
            f"{row['availability']:.2f}", row["n_errors"],
        ])
    print()
    print(f"fault scenarios, N={N_NODES}, w={N_WAVELENGTHS}:")
    print(table.render())

    # Every degraded plan must verify clean — an unverified availability
    # number is worthless.
    assert all(row["n_errors"] == 0 for row in rows)
    single = [
        r for r in rows
        if r["scenario"] != "compound" and r["backend"] == "optical"
    ]
    assert single and all(r["availability"] >= 0.5 for r in single)

    overhead = _run_overhead()
    print(
        f"zero-fault lower overhead: "
        f"{overhead['baseline_lower_s'] * 1e3:.3f}ms -> "
        f"{overhead['empty_faultset_lower_s'] * 1e3:.3f}ms "
        f"({overhead['overhead_pct']:+.1f}%)"
    )
    assert overhead["overhead_pct"] < 25.0

    OUT_PATH.write_text(
        json.dumps({"scenarios": rows, "zero_fault_overhead": overhead},
                   indent=2)
        + "\n"
    )
    print(f"wrote {OUT_PATH}")
