"""Bitmask RWA kernel vs the seed implementation — honest before/after.

Two measurements, written to ``BENCH_rwa.json`` at the repo root:

1. **Kernel micro-benchmark** — ``plan_rounds`` on the hardest step shapes
   (dense all-to-all among evenly spaced representatives; the heaviest WRHT
   step) at N ∈ {64, 256, 1024}, timed against the verbatim seed kernel
   preserved in :mod:`repro.optical._rwa_reference`. Round structure is
   asserted identical before any number is reported.
2. **Fig 6-style sweep** — a simulated-mode cluster-size sweep, seed-style
   (reference kernel, no plan cache, serial) vs the shipped configuration
   (bitmask kernel, warm plan cache, ``workers=4``).

Floors asserted here: ≥5× on the N=1024 dense step, ≥3× on the sweep.
"""

import json
import time
from pathlib import Path

import repro.optical.network as network_mod
from repro.collectives.alltoall import build_alltoall_step
from repro.collectives.registry import build_schedule
from repro.dnn.workload import PAPER_WORKLOADS
from repro.obs.benchgate import BenchSchema, Section
from repro.optical._rwa_reference import plan_rounds_reference
from repro.optical.config import OpticalSystemConfig
from repro.optical.network import OpticalRingNetwork
from repro.backend.plancache import default_plan_cache
from repro.optical.rwa import plan_rounds
from repro.runner.experiments import clear_network_caches, run_fig6
from repro.util.tables import AsciiTable

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_rwa.json"

#: (label, N, representatives k) — k evenly spaced nodes, all-to-all; k is
#: None for the heaviest step of the WRHT schedule.
MICRO_CELLS = (
    ("dense-alltoall", 64, 16),
    ("dense-alltoall", 256, 32),
    ("dense-alltoall", 1024, 64),
    ("wrht-heaviest", 64, None),
    ("wrht-heaviest", 256, None),
    ("wrht-heaviest", 1024, None),
)
#: The bench gate re-runs every micro cell but the N=1024 ones (the dense
#: case's seed-kernel measurement alone takes ~20 s), best of 3.
GATE_CELLS = tuple(cell for cell in MICRO_CELLS if cell[1] < 1024)
W = 64

SWEEP_NODES = (256, 512, 1024)
SWEEP_WORKERS = 4


def _dense_routes(n, k):
    """Routes of the all-to-all step among k evenly spaced reps on N nodes."""
    net = OpticalRingNetwork(OpticalSystemConfig(n_nodes=n, n_wavelengths=W))
    step = build_alltoall_step([i * (n // k) for i in range(k)], 100)
    return n, net._route_step(step)


def _wrht_heaviest_routes(n):
    """Routes of the heaviest step of the planned WRHT schedule."""
    net = OpticalRingNetwork(OpticalSystemConfig(n_nodes=n, n_wavelengths=W))
    sched = build_schedule("wrht", n, 1000, n_wavelengths=W, materialize=False)
    step = max((s for s, _ in sched.timing_profile), key=lambda s: s.n_transfers)
    return n, net._route_step(step)


def _time_kernels(n, routes):
    """(seed seconds, bitmask seconds) for plan_rounds on one instance,
    asserting both produce the identical round structure."""
    t0 = time.perf_counter()
    ref_rounds = plan_rounds_reference(routes, n, W)
    seed_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    fast_rounds = plan_rounds(routes, n, W)
    fast_s = time.perf_counter() - t0
    assert fast_rounds == ref_rounds  # parity before performance
    return seed_s, fast_s


def _run_micro(cells=MICRO_CELLS, best_of=1):
    """One row per cell, each the best speedup of ``best_of`` timings."""
    rows = []
    for case, n, k in cells:
        n_seg, routes = (
            _wrht_heaviest_routes(n) if k is None else _dense_routes(n, k)
        )
        seed_s, fast_s = max(
            (_time_kernels(n_seg, routes) for _ in range(best_of)),
            key=lambda times: times[0] / times[1],
        )
        rows.append({
            "case": case, "n": n, "transfers": len(routes),
            "seed_s": seed_s, "bitmask_s": fast_s,
            "speedup": seed_s / fast_s,
        })
    return rows


GATE = BenchSchema(OUT_PATH.name, lambda: {"micro": _run_micro(GATE_CELLS, 3)}, (
    Section("micro", ("case", "n"), "rwa.{case}.n{n}",
            exact=("transfers",), floor=("speedup",), complete=False),
))


def _run_sweep_comparison():
    workloads = PAPER_WORKLOADS[:2]
    kwargs = dict(
        mode="simulated", nodes=SWEEP_NODES, n_wavelengths=W, workloads=workloads
    )
    cache = default_plan_cache()
    saved_maxsize = cache.maxsize
    original_kernel = network_mod.plan_rounds
    try:
        # Seed configuration: reference kernel, no plan cache, serial.
        network_mod.plan_rounds = plan_rounds_reference
        cache.resize(0)
        clear_network_caches()
        t0 = time.perf_counter()
        before_result = run_fig6(**kwargs)
        before_s = time.perf_counter() - t0
    finally:
        network_mod.plan_rounds = original_kernel
        cache.resize(saved_maxsize if saved_maxsize > 0 else 4096)
    cache.clear()
    clear_network_caches()
    # Warm the plan cache, then measure the shipped configuration.
    t0 = time.perf_counter()
    run_fig6(**kwargs)
    cold_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    after_result = run_fig6(**kwargs, workers=SWEEP_WORKERS)
    after_s = time.perf_counter() - t0
    assert after_result.series == before_result.series  # same numbers, faster
    return {
        "nodes": list(SWEEP_NODES), "n_wavelengths": W,
        "workloads": [wl.name for wl in workloads],
        "workers": SWEEP_WORKERS,
        "seed_serial_s": before_s,
        "bitmask_cold_s": cold_s,
        "bitmask_warm_workers_s": after_s,
        "speedup": before_s / after_s,
    }


def test_bitmask_rwa_speedup(once):
    micro = once(_run_micro)
    table = AsciiTable(["case", "N", "transfers", "seed (s)", "bitmask (s)", "speedup"])
    for row in micro:
        table.add_row([
            row["case"], row["n"], row["transfers"],
            f"{row['seed_s']:.3f}", f"{row['bitmask_s']:.3f}",
            f"{row['speedup']:.1f}x",
        ])
    print()
    print(f"plan_rounds kernel, w={W} (round structure asserted identical):")
    print(table.render())

    dense_1024 = next(
        r for r in micro if r["case"] == "dense-alltoall" and r["n"] == 1024
    )
    assert dense_1024["speedup"] >= 5.0

    sweep_cmp = _run_sweep_comparison()
    print(
        f"fig6-style simulated sweep {sweep_cmp['nodes']}: "
        f"seed serial {sweep_cmp['seed_serial_s']:.2f}s -> "
        f"warm cache + {SWEEP_WORKERS} workers "
        f"{sweep_cmp['bitmask_warm_workers_s']:.2f}s "
        f"({sweep_cmp['speedup']:.1f}x)"
    )
    assert sweep_cmp["speedup"] >= 3.0

    OUT_PATH.write_text(
        json.dumps({"micro": micro, "fig6_style_sweep": sweep_cmp}, indent=2)
        + "\n"
    )
    print(f"wrote {OUT_PATH}")
