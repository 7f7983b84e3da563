"""Reconfiguration-overlap bake-off: tuning exposure with and without overlap.

One deterministic grid, written to ``BENCH_reconfig.json`` at the repo root
and gated by ``scripts/bench_gate.py`` as ``GATE`` declares:

- **Optical rows** price each (algorithm, N, payload) cell three ways under
  a 25 µs MRR tuning model (:mod:`repro.optical.reconfig`): tuning charged
  serially before every round (``no_overlap_s``), free-claim tuning racing
  the previous round's transmission (``overlap_s``), and the
  reconfigure-vs-hold estimator's pick (``chosen_s`` with its ``decision``
  label; ``hold_s`` is ``None`` when the wavelength partition is
  infeasible). Every chosen plan is statically verified (PLAN000–PLAN008)
  before its number is reported.
- **Analytic rows** run the closed-form recurrence
  (:func:`repro.core.timing.reconfig_exposed_time`) with and without
  overlap — the claim-free counterpart of the optical exposure.
- **Electrical rows** pin the zero-reconfiguration-tax baseline: the
  packet-switched fat-tree pays no tuning, so ``overlap_s`` equals
  ``no_overlap_s`` by construction.

The pinned per-push grid stays at N=8 (w=32); ``WRHT_BENCH_FULL=1`` (the
scheduled full-grid CI lane) extends it to N=16 (w=64).
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
from repro.collectives import build_schedule
from repro.core.timing import CostModel
from repro.electrical.config import ElectricalSystemConfig
from repro.obs.benchgate import BenchSchema, Section
from repro.optical.config import OpticalSystemConfig
from repro.optical.network import OpticalRingNetwork
from repro.optical.reconfig import ReconfigModel, plan_total_time
from repro.util.tables import AsciiTable

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_reconfig.json"

#: SWOT-scale thermal MRR settling time (seconds).
T_TUNE = 25e-6

ALGORITHMS = ("swing", "rd", "ring")

#: (n_nodes, n_wavelengths) cells; the per-push gate pins the small cell,
#: the scheduled full-grid lane (WRHT_BENCH_FULL=1) adds the larger one.
PINNED_GRID = ((8, 32),)
FULL_GRID = ((8, 32), (16, 64))

#: Small payloads expose tuning (reconfigure wins); large payloads give the
#: hold plan a transmission window wide enough to hide all tuning behind.
PAYLOAD_ELEMS = (2_000, 1_000_000)

BYTES_PER_ELEM = 4.0

COST_MODEL = CostModel(line_rate=40e9 / 8, step_overhead=25e-6)


def _grid() -> tuple[tuple[int, int], ...]:
    return FULL_GRID if os.environ.get("WRHT_BENCH_FULL") == "1" else PINNED_GRID


def _run_reconfig() -> list[dict]:
    """One row per (algorithm, backend, N, payload): tuning exposures."""
    rows = []
    for n, w in _grid():
        cfg = OpticalSystemConfig(n_nodes=n, n_wavelengths=w, t_tune=T_TUNE)
        serial_net = OpticalRingNetwork(cfg, overlap=False)
        for elems in PAYLOAD_ELEMS:
            for algo in ALGORITHMS:
                schedule = build_schedule(algo, n, elems)
                no_overlap_s = plan_total_time(
                    serial_net.lower(schedule, BYTES_PER_ELEM),
                    cfg.mrr_reconfig_delay,
                )
                backend = OpticalBackend(cfg)
                chosen = backend.lower(schedule, bytes_per_elem=BYTES_PER_ELEM)
                decision = chosen.meta["reconfig"]["decision"]
                context = optical_context(
                    backend, schedule, chosen, bytes_per_elem=BYTES_PER_ELEM
                )
                n_errors = len(errors(verify_plan(context=context)))
                rows.append(
                    {
                        "algorithm": algo,
                        "backend": "optical",
                        "n_nodes": n,
                        "elems": elems,
                        "t_tune_us": T_TUNE * 1e6,
                        "no_overlap_s": no_overlap_s,
                        "overlap_s": decision["reconfigure_s"],
                        "hold_s": decision["hold_s"],
                        "decision": decision["chosen"],
                        "chosen_s": plan_total_time(
                            chosen, cfg.mrr_reconfig_delay
                        ),
                        "n_errors": n_errors,
                    }
                )
        for elems in PAYLOAD_ELEMS:
            for algo in ALGORITHMS:
                # Closed forms never materialize steps, so these cells are
                # cheap at any N.
                schedule = build_schedule(algo, n, elems, materialize=False)
                times = {}
                for label, overlap in (("overlap_s", True), ("no_overlap_s", False)):
                    backend = AnalyticBackend(
                        COST_MODEL, w=w,
                        reconfig=ReconfigModel(t_tune=T_TUNE), overlap=overlap,
                    )
                    times[label] = backend.run(
                        schedule, bytes_per_elem=BYTES_PER_ELEM
                    ).total_time
                rows.append(
                    {
                        "algorithm": algo,
                        "backend": "analytic",
                        "n_nodes": n,
                        "elems": elems,
                        "t_tune_us": T_TUNE * 1e6,
                        "no_overlap_s": times["no_overlap_s"],
                        "overlap_s": times["overlap_s"],
                        "hold_s": None,
                        "decision": "n/a",
                        "chosen_s": times["overlap_s"],
                        "n_errors": 0,
                    }
                )
        electrical = ElectricalBackend(
            ElectricalSystemConfig(n_nodes=n),
            reconfig=ReconfigModel(t_tune=T_TUNE),
        )
        for elems in PAYLOAD_ELEMS:
            for algo in ALGORITHMS:
                schedule = build_schedule(algo, n, elems)
                total = electrical.run(
                    schedule, bytes_per_elem=BYTES_PER_ELEM
                ).total_time
                rows.append(
                    {
                        "algorithm": algo,
                        "backend": "electrical",
                        "n_nodes": n,
                        "elems": elems,
                        "t_tune_us": T_TUNE * 1e6,
                        "no_overlap_s": total,
                        "overlap_s": total,
                        "hold_s": None,
                        "decision": "n/a",
                        "chosen_s": total,
                        "n_errors": 0,
                    }
                )
    return rows


def _overlap_wins(rows: list[dict]) -> bool:
    """Overlap strictly beats serial tuning on some optical row (if any)."""
    optical = [r for r in rows if r["backend"] == "optical"]
    return not optical or any(r["overlap_s"] < r["no_overlap_s"] for r in optical)


#: An overlapped plan that fails PLAN008 is a correctness bug, so
#: ``n_errors`` must be 0; ``overlap_wins`` fails a planner that silently
#: stopped overlapping even against a regenerated baseline.
GATE = BenchSchema(OUT_PATH.name, lambda: {"reconfig": _run_reconfig()}, (
    Section("reconfig", ("algorithm", "backend", "n_nodes", "elems"),
            "reconfig.{algorithm}.{backend}.n{n_nodes}.e{elems}",
            zero=("n_errors",), exact=("decision",),
            rel=("no_overlap_s", "overlap_s", "chosen_s", "hold_s"),
            invariants=(("reconfig.overlap_wins",
                         "at least one optical cell with overlap_s < no_overlap_s",
                         _overlap_wins),)),
))


def test_reconfig_overlap(once):
    rows = once(_run_reconfig)

    table = AsciiTable(
        ["backend", "N", "elems", "algorithm", "serial (ms)", "overlap (ms)",
         "hold (ms)", "decision"]
    )
    for row in rows:
        table.add_row([
            row["backend"], row["n_nodes"], row["elems"], row["algorithm"],
            f"{row['no_overlap_s'] * 1e3:.4f}",
            f"{row['overlap_s'] * 1e3:.4f}",
            "-" if row["hold_s"] is None else f"{row['hold_s'] * 1e3:.4f}",
            row["decision"],
        ])
    print()
    print(f"reconfiguration overlap grid (t_tune={T_TUNE * 1e6:.0f}us):")
    print(table.render())

    optical = [r for r in rows if r["backend"] == "optical"]
    analytic = [r for r in rows if r["backend"] == "analytic"]
    electrical = [r for r in rows if r["backend"] == "electrical"]

    # Every chosen optical plan must verify clean (PLAN000-PLAN008).
    assert all(r["n_errors"] == 0 for r in rows)
    # Overlap must strictly beat serial tuning somewhere, and never lose.
    assert any(r["overlap_s"] < r["no_overlap_s"] for r in optical)
    assert all(r["overlap_s"] <= r["no_overlap_s"] for r in optical + analytic)
    # Both sides of the estimator's quadrant must be real: small payloads
    # can't hide tuning (reconfigure), large ones can (hold).
    assert any(r["decision"] == "reconfigure" for r in optical)
    assert any(r["decision"] == "hold" for r in optical)
    # The chosen plan is never slower than the plain reconfiguring plan.
    assert all(r["chosen_s"] <= r["overlap_s"] for r in optical)
    # Packet switching pays no reconfiguration tax at all.
    assert all(r["overlap_s"] == r["no_overlap_s"] for r in electrical)

    OUT_PATH.write_text(json.dumps({"reconfig": rows}, indent=2) + "\n")
    print(f"wrote {OUT_PATH}")
