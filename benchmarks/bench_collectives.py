"""Rival-collectives bake-off: Swing and SCRing raced against the seed set.

Two deterministic measurement grids, written to ``BENCH_collectives.json``
at the repo root and gated by ``scripts/bench_gate.py`` as ``GATE``
declares:

1. **Completion-time curves** — every registered algorithm with a closed
   form, priced on all three backends over the Fig-4..7 node/payload grid.
   The simulated backends (optical RWA, electrical fluid flow) stop at
   ``N = 64`` per push, mostly because of the electrical fluid model's
   max-min rate filling: at N=256, w=64 and 25M elements one electrical
   SCRing-p4 cell took ~55 s, against ~11 s for a cold lowering of the
   whole optical lineup (Swing ~6 s of it), on a 2-vCPU VM under Python
   3.11. Larger sizes are carried by the analytic backend only (the
   printed table says so explicitly — nothing is dropped silently).
2. **Fault grid** — every algorithm through every canonical fault scenario
   (:func:`repro.runner.faultsweep.default_fault_scenarios`) on the
   optical substrate at N=16/w=8, the degraded schedule built by the
   generic :func:`repro.collectives.build_shrunk_schedule` path
   (re-planned :func:`~repro.faults.build_degraded_wrht_schedule` for
   WRHT) and statically verified before its number is reported.

DBTree is excluded from both grids: it has no closed-form model, so the
analytic backend rejects it by design (its simulated numbers match BT's
step count and are covered by the BT rows).
"""

import json
import os
from pathlib import Path

from repro.backend.analytic import AnalyticBackend
from repro.backend.electrical import ElectricalBackend
from repro.backend.optical import OpticalBackend
from repro.check.context import optical_context
from repro.check.engine import verify_plan
from repro.check.findings import errors
from repro.collectives import build_schedule, build_shrunk_schedule
from repro.core.timing import CostModel
from repro.electrical.config import ElectricalSystemConfig
from repro.faults import build_degraded_wrht_schedule
from repro.obs.benchgate import BenchSchema, Section
from repro.optical.config import OpticalSystemConfig
from repro.optical.network import OpticalRingNetwork
from repro.runner.faultsweep import default_fault_scenarios
from repro.util.tables import AsciiTable

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_collectives.json"

#: (registry name, builder kwargs) — the bake-off lineup. SCRing runs at
#: two pipeline depths: the ring-halving default and a deep-pipelined arc
#: split approaching the 2-step early-termination limit.
ALGORITHMS = (
    ("ring", {}),
    ("bt", {}),
    ("rd", {}),
    ("swing", {}),
    ("scring", {"pipeline": 1}),
    ("scring", {"pipeline": 4}),
    ("wrht", {}),
)

#: Node sizes on the closed-form (analytic) backend — reaches Table 1's N.
ANALYTIC_NODES = (16, 64, 256, 1024)
#: Node sizes on the simulated backends (see module docstring for the cap).
#: The scheduled full-grid CI lane (WRHT_BENCH_FULL=1) lifts the per-push
#: cap and runs the slow N=256 simulated cells too — artifacts only, not
#: gated.
SIMULATED_NODES = (
    (16, 64, 256) if os.environ.get("WRHT_BENCH_FULL") == "1" else (16, 64)
)
#: Payload grid: the Fig-5 small-model scale and a Fig-6/7 large-model
#: scale (elements; x4 bytes).
PAYLOAD_ELEMS = (100_000, 25_000_000)

N_WAVELENGTHS = 64
BYTES_PER_ELEM = 4.0

FAULT_NODES = 16
FAULT_WAVELENGTHS = 8
FAULT_ELEMS = 100_000

#: Strict-units cost model (Table 2): 40 Gbit/s line rate, 25 µs MRR
#: reconfiguration per step.
COST_MODEL = CostModel(line_rate=40e9 / 8, step_overhead=25e-6)


def _algo_label(algo: str, kwargs: dict) -> str:
    if algo == "scring":
        return f"scring-p{kwargs.get('pipeline', 1)}"
    return algo


def _build(algo: str, n: int, elems: int, kwargs: dict, materialize: bool = True):
    kw = dict(kwargs)
    if algo == "wrht":
        kw["n_wavelengths"] = N_WAVELENGTHS
    if algo == "hring":
        kw["m"] = min(5, n)
    return build_schedule(algo, n, elems, materialize=materialize, **kw)


def _run_curves() -> list[dict]:
    """One row per (algorithm, backend, N, payload): steps + total time."""
    rows = []
    for backend_name in ("analytic", "optical", "electrical"):
        nodes = ANALYTIC_NODES if backend_name == "analytic" else SIMULATED_NODES
        for n in nodes:
            if backend_name == "analytic":
                backend = AnalyticBackend(COST_MODEL, w=N_WAVELENGTHS)
            elif backend_name == "optical":
                backend = OpticalBackend(
                    OpticalSystemConfig(n_nodes=n, n_wavelengths=N_WAVELENGTHS)
                )
            else:
                backend = ElectricalBackend(ElectricalSystemConfig(n_nodes=n))
            for elems in PAYLOAD_ELEMS:
                for algo, kwargs in ALGORITHMS:
                    # The closed-form backend never reads materialized
                    # steps; skipping them keeps the N=1024 cells cheap.
                    schedule = _build(
                        algo, n, elems, kwargs,
                        materialize=backend_name != "analytic",
                    )
                    result = backend.run(schedule, bytes_per_elem=BYTES_PER_ELEM)
                    rows.append(
                        {
                            "algorithm": _algo_label(algo, kwargs),
                            "backend": backend_name,
                            "n_nodes": n,
                            "elems": elems,
                            "n_steps": result.n_steps,
                            "total_time_s": result.total_time,
                        }
                    )
    return rows


def _run_fault_grid() -> list[dict]:
    """One row per (algorithm, scenario): degraded optical cell, verified."""
    rows = []
    scenarios = default_fault_scenarios(FAULT_NODES, FAULT_WAVELENGTHS)
    healthy_net = OpticalRingNetwork(
        OpticalSystemConfig(n_nodes=FAULT_NODES, n_wavelengths=FAULT_WAVELENGTHS)
    )
    for scenario, faults in scenarios.items():
        survivors = tuple(
            node for node in range(FAULT_NODES) if node not in faults.dead_nodes
        )
        degraded_net = OpticalRingNetwork(
            OpticalSystemConfig(
                n_nodes=FAULT_NODES, n_wavelengths=FAULT_WAVELENGTHS, faults=faults
            )
        )
        for algo, kwargs in ALGORITHMS:
            healthy_sched = _build(algo, FAULT_NODES, FAULT_ELEMS, kwargs)
            healthy_s = healthy_net.execute_plan(
                healthy_net.lower(healthy_sched, BYTES_PER_ELEM)
            ).total_time
            if algo == "wrht":
                # WRHT re-plans its hierarchy under the degraded budget
                # (group size, shortcut feasibility, survivor regrouping)
                # — the generic shrink would keep the stale plan, and even
                # a full-survivor scenario can kill wavelengths.
                degraded_sched = build_degraded_wrht_schedule(
                    FAULT_NODES, FAULT_ELEMS, faults,
                    n_wavelengths=FAULT_WAVELENGTHS,
                )
            elif len(survivors) == FAULT_NODES:
                degraded_sched = healthy_sched
            else:
                degraded_sched = build_shrunk_schedule(
                    algo, FAULT_NODES, FAULT_ELEMS, survivors, **kwargs
                )
            degraded_plan = degraded_net.lower(degraded_sched, BYTES_PER_ELEM)
            degraded_s = degraded_net.execute_plan(degraded_plan).total_time
            context = optical_context(
                degraded_net, degraded_sched, degraded_plan,
                bytes_per_elem=BYTES_PER_ELEM,
            )
            n_errors = len(errors(verify_plan(context=context)))
            rows.append(
                {
                    "algorithm": _algo_label(algo, kwargs),
                    "scenario": scenario,
                    "n_survivors": len(survivors),
                    "healthy_s": healthy_s,
                    "degraded_s": degraded_s,
                    "availability": healthy_s / degraded_s,
                    "n_errors": n_errors,
                }
            )
    return rows


#: Both grids are deterministic, and every degraded plan must verify clean.
GATE = BenchSchema(
    OUT_PATH.name,
    lambda: {"curves": _run_curves(), "faults": _run_fault_grid()},
    (
        Section("curves", ("algorithm", "backend", "n_nodes", "elems"),
                "collectives.{algorithm}.{backend}.n{n_nodes}.e{elems}",
                exact=("n_steps",), rel=("total_time_s",)),
        Section("faults", ("algorithm", "scenario"), "collectives.{algorithm}.{scenario}",
                zero=("n_errors",), exact=("n_survivors",),
                rel=("healthy_s", "degraded_s", "availability")),
    ),
)


def test_collectives_bakeoff(once):
    curves = once(_run_curves)

    table = AsciiTable(
        ["backend", "N", "elems", "algorithm", "steps", "total (ms)"]
    )
    for row in curves:
        table.add_row([
            row["backend"], row["n_nodes"], row["elems"], row["algorithm"],
            row["n_steps"], f"{row['total_time_s'] * 1e3:.4f}",
        ])
    print()
    print(
        f"completion-time curves (simulated backends capped at "
        f"N<={max(SIMULATED_NODES)}, analytic to N={max(ANALYTIC_NODES)}):"
    )
    print(table.render())

    def cell(algorithm, backend, n, elems):
        return next(
            r for r in curves
            if r["algorithm"] == algorithm and r["backend"] == backend
            and r["n_nodes"] == n and r["elems"] == elems
        )

    big = PAYLOAD_ELEMS[-1]
    for backend in ("analytic", "optical", "electrical"):
        n = 1024 if backend == "analytic" else max(SIMULATED_NODES)
        ring = cell("ring", backend, n, big)
        swing = cell("swing", backend, n, big)
        scring = cell("scring-p1", backend, n, big)
        # Swing must beat Ring at scale: same ~2d of traffic across
        # logarithmically many (vs linearly many) reconfigurations.
        assert swing["total_time_s"] < ring["total_time_s"]
        assert swing["n_steps"] < ring["n_steps"]
        # SCRing's default depth halves Ring's step count (±fold).
        assert scring["n_steps"] <= ring["n_steps"] // 2 + 2

    # Deep pipelining must monotonically cut SCRing steps.
    for backend in ("analytic", "optical", "electrical"):
        n = max(SIMULATED_NODES)
        assert (
            cell("scring-p4", backend, n, big)["n_steps"]
            < cell("scring-p1", backend, n, big)["n_steps"]
        )

    faults = _run_fault_grid()
    ftable = AsciiTable(
        ["scenario", "algorithm", "survivors", "degraded (ms)",
         "availability", "check errors"]
    )
    for row in faults:
        ftable.add_row([
            row["scenario"], row["algorithm"], row["n_survivors"],
            f"{row['degraded_s'] * 1e3:.4f}",
            f"{row['availability']:.2f}", row["n_errors"],
        ])
    print()
    print(f"fault grid, N={FAULT_NODES}, w={FAULT_WAVELENGTHS}:")
    print(ftable.render())

    # Every degraded plan must verify clean across the whole lineup — an
    # unverified bake-off number is worthless.
    assert all(row["n_errors"] == 0 for row in faults)
    # Every algorithm must survive every canonical scenario.
    n_algos = len(ALGORITHMS)
    n_scenarios = len(default_fault_scenarios(FAULT_NODES, FAULT_WAVELENGTHS))
    assert len(faults) == n_algos * n_scenarios

    OUT_PATH.write_text(
        json.dumps({"curves": curves, "faults": faults}, indent=2) + "\n"
    )
    print(f"wrote {OUT_PATH}")
