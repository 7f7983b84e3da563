"""Incremental repair vs full recolor — honest before/after.

One measurement, written to ``BENCH_repair.json`` at the repo root: a
single-fault delta (``DeadWavelength(0)``) spliced into a solved dense
all-to-all step at N ∈ {64, 256, 1024}, timed both ways:

- **full recolor** — ``plan_rounds`` from scratch against the degraded
  budget (what every FaultEvent paid before the repair engine);
- **incremental repair** — ``repair_rounds`` recoloring only the
  transfers whose claims ride the dead wavelength, everything else pinned.

The repaired rounds are exhaustively validated (``validate_rounds``) and
the repair path is asserted fallback-free before any number is reported;
the N=1024 cell asserts the ≥10× floor the gate pins.

The representative count is held at k=16 across ring sizes so the step
needs ~⌈k²/8⌉ = 32 of the 64 wavelengths: the instance has genuine
headroom, which is the regime repair targets (a saturated instance
cascades and correctly falls back to the full recolor — covered by the
adversarial tests, not benchmarked here).
"""

import json
import time
from pathlib import Path

from repro.collectives.alltoall import build_alltoall_step
from repro.obs.benchgate import BenchSchema, Section
from repro.obs.metrics import MetricsRegistry
from repro.optical.config import OpticalSystemConfig
from repro.optical.network import OpticalRingNetwork
from repro.optical.repair import (
    RwaContext,
    capture_solution,
    repair_rounds,
    route_masks,
    validate_rounds,
)
from repro.optical.rwa import plan_rounds
from repro.util.tables import AsciiTable

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_repair.json"

NODES = (64, 256, 1024)
K = 16
W = 64
DEAD = frozenset({0})
REPEATS = 5


def _instance(n):
    """(routes, healthy solution) for the dense step on an N-node ring."""
    net = OpticalRingNetwork(OpticalSystemConfig(n_nodes=n, n_wavelengths=W))
    step = build_alltoall_step([i * (n // K) for i in range(K)], 100)
    routes = net._route_step(step)
    ctx = RwaContext(n_segments=n, n_wavelengths=W)
    solution = capture_solution(routes, plan_rounds(routes, n, W), ctx)
    return routes, solution


def _time_single_fault(n):
    """One BENCH_repair row: best-of-``REPEATS`` for both paths."""
    routes, solution = _instance(n)
    degraded = RwaContext(n_segments=n, n_wavelengths=W, blocked=DEAD)

    full_s = min(
        _timed(lambda: plan_rounds(routes, n, W, blocked=DEAD))
        for _ in range(REPEATS)
    )
    metrics = MetricsRegistry(enabled=True)
    repair_s = min(
        _timed(
            lambda: repair_rounds(solution, routes, degraded, metrics=metrics)
        )
        for _ in range(REPEATS)
    )

    repaired = repair_rounds(solution, routes, degraded, metrics=metrics)
    validate_rounds(routes, route_masks(routes), repaired, degraded)
    counters = metrics.snapshot().counters
    fallbacks = counters.get("rwa.repair_fallback", 0)
    assert fallbacks == 0, "benchmark instance must repair incrementally"
    n_affected = counters.get("rwa.repair_affected", 0) // counters.get(
        "rwa.repair_calls", 1
    )
    return {
        "case": "dead-wavelength",
        "n": n,
        "transfers": len(routes),
        "n_affected": n_affected,
        "fallbacks": fallbacks,
        "full_s": full_s,
        "repair_s": repair_s,
        "speedup": full_s / repair_s,
    }


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _run_repair_micro():
    return [_time_single_fault(n) for n in NODES]


#: An instance that falls back to the full recolor no longer measures the
#: repair path, so ``fallbacks`` must stay 0.
GATE = BenchSchema(OUT_PATH.name, lambda: {"repair": _run_repair_micro()}, (
    Section("repair", ("case", "n"), "repair.{case}.n{n}",
            zero=("fallbacks",), exact=("transfers",), floor=("speedup",)),
))


def test_single_fault_repair_speedup(once):
    rows = once(_run_repair_micro)
    table = AsciiTable(
        ["case", "N", "transfers", "affected", "full (ms)", "repair (ms)", "speedup"]
    )
    for row in rows:
        table.add_row([
            row["case"], row["n"], row["transfers"], row["n_affected"],
            f"{row['full_s'] * 1e3:.3f}", f"{row['repair_s'] * 1e3:.3f}",
            f"{row['speedup']:.1f}x",
        ])
    print()
    print(f"single-fault repair vs full recolor, w={W}, k={K} (validated):")
    print(table.render())

    n1024 = next(r for r in rows if r["n"] == 1024)
    assert n1024["speedup"] >= 10.0

    OUT_PATH.write_text(json.dumps({"repair": rows}, indent=2) + "\n")
    print(f"wrote {OUT_PATH}")
