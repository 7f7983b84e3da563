"""Machine-generated results document (``wrht-repro report``).

Regenerates every experiment and writes a self-contained markdown record —
raw series, paper-style normalizations, and average-reduction comparisons —
so a fresh checkout can refresh EXPERIMENTS.md's measured columns with one
command.
"""

from __future__ import annotations

import io
import json
import os

from repro.runner.experiments import run_fig4, run_fig5, run_fig6, run_fig7, run_table1
from repro.runner.report import ExperimentResult

PAPER_REDUCTIONS = {
    "fig5": [("Ring", "WRHT", 13.74), ("H-Ring", "WRHT", 9.29), ("BT", "WRHT", 75.0)],
    "fig6": [("Ring", "WRHT", 65.23), ("H-Ring", "WRHT", 43.81), ("BT", "WRHT", 82.22)],
    "fig7": [
        ("E-Ring", "O-Ring", 48.74),
        ("E-Ring", "WRHT", 61.23),
        ("RD", "WRHT", 55.51),
    ],
}

PAPER_TABLE1 = {"Ring": 2046, "H-Ring": 417, "BT": 20, "WRHT": 3}


def _markdown_table(headers: list[str], rows: list[list]) -> str:
    out = ["| " + " | ".join(headers) + " |", "|" + "---|" * len(headers)]
    for row in rows:
        cells = [f"{c:.4g}" if isinstance(c, float) else str(c) for c in row]
        out.append("| " + " | ".join(cells) + " |")
    return "\n".join(out)


def _experiment_section(result: ExperimentResult, buf: io.StringIO) -> None:
    buf.write(f"\n## {result.name} ({result.mode}, {result.interpretation} units)\n\n")
    for workload in result.workloads:
        rows = [
            [algo] + [v * 1e3 for v in result.series[(workload, algo)]]
            for algo in result.algorithms()
        ]
        buf.write(f"**{workload}** (ms by {result.x_label}):\n\n")
        buf.write(
            _markdown_table(
                ["algorithm"] + [str(x) for x in result.x_values], rows
            )
        )
        buf.write("\n\n")
    reductions = PAPER_REDUCTIONS.get(result.name)
    if reductions:
        rows = [
            [f"{target} vs {baseline}", result.reduction_vs(baseline, target), paper]
            for baseline, target, paper in reductions
        ]
        buf.write("Average reductions:\n\n")
        buf.write(_markdown_table(["comparison", "measured (%)", "paper (%)"], rows))
        buf.write("\n")


def _bench_label(algorithm: str) -> str:
    if algorithm.startswith("scring-p"):
        return f"SCRing q={algorithm.removeprefix('scring-p')}"
    return {"ring": "Ring", "bt": "BT", "rd": "RD", "swing": "Swing",
            "wrht": "WRHT", "hring": "H-Ring"}.get(algorithm, algorithm)


def _collectives_section(buf: io.StringIO, baseline_path: str) -> None:
    """Render the rival-collectives bake-off from the pinned bench baseline.

    Reads the gated ``BENCH_collectives.json`` (refreshed via
    ``python scripts/bench_gate.py --update-baseline``) instead of
    re-running the bench, so ``report`` stays fast and the published
    numbers are exactly the gated ones. Skipped when the baseline is
    absent (fresh checkout before the first bench run).
    """
    if not os.path.exists(baseline_path):
        return
    with open(baseline_path, encoding="utf-8") as fh:
        data = json.load(fh)
    curves, faults = data.get("curves", []), data.get("faults", [])
    if not curves:
        return
    buf.write("\n## Rival-collectives bake-off (benchmarks/bench_collectives.py)\n\n")
    buf.write(
        "Swing (arXiv 2401.09356) and the short-circuiting ring SCRing\n"
        "(arXiv 2510.03491, pipeline knob `q`) raced against the paper's\n"
        "lineup; full algorithm x backend x N x payload grid pinned in\n"
        "`BENCH_collectives.json` and gated by `scripts/bench_gate.py`.\n"
        "Headline cells (completion time, largest pinned payload):\n"
    )
    for backend in ("optical", "analytic"):
        cells = [r for r in curves if r["backend"] == backend]
        if not cells:
            continue
        n = max(r["n_nodes"] for r in cells)
        elems = max(r["elems"] for r in cells)
        rows = sorted(
            (r for r in cells if r["n_nodes"] == n and r["elems"] == elems),
            key=lambda r: r["total_time_s"],
        )
        buf.write(f"\n**{backend.capitalize()} backend, N={n}, {elems:,} elems:**\n\n")
        buf.write(_markdown_table(
            ["algorithm", "steps", "time (ms)"],
            [[_bench_label(r["algorithm"]), r["n_steps"], r["total_time_s"] * 1e3]
             for r in rows],
        ))
        buf.write("\n")
    if faults:
        n_clean = sum(1 for r in faults if r["n_errors"] == 0)
        algos = sorted({r["algorithm"] for r in faults})
        scenarios = sorted({r["scenario"] for r in faults})
        lo = min(r["availability"] for r in faults)
        hi = max(r["availability"] for r in faults)
        buf.write(
            f"\nFault grid: {len(algos)} algorithms x {len(scenarios)} canonical"
            f" fault scenarios replan through the degraded path;"
            f" {n_clean}/{len(faults)} cells verify clean."
            f" Availability (healthy/degraded time) spans"
            f" {lo:.2f}-{hi:.2f}.\n"
        )


def generate_report(
    mode: str = "analytical",
    interpretation: str = "calibrated",
    backend: str | None = None,
    collectives_baseline: str = "BENCH_collectives.json",
) -> str:
    """Regenerate every experiment and render the markdown report.

    ``backend`` (a :mod:`repro.backend.registry` name) forces every figure
    through one pricing backend; ``None`` keeps the mode's mapping.
    ``collectives_baseline`` points at the pinned bake-off JSON rendered
    as the closing section (skipped when the file is absent).
    """
    buf = io.StringIO()
    buf.write("# Generated results (wrht-repro report)\n")
    buf.write(f"\nMode: {mode}; line-rate interpretation: {interpretation}.\n")
    if backend is not None:
        buf.write(f"\nBackend override: {backend}.\n")

    counts = run_table1()
    buf.write("\n## Table 1 — steps (N=1024, w=64)\n\n")
    rows = [
        [name, counts[name], PAPER_TABLE1.get(name, "—")]
        for name in ("Ring", "H-Ring", "BT", "RD", "WRHT")
    ]
    buf.write(_markdown_table(["algorithm", "measured", "paper"], rows))
    buf.write("\n")

    for runner in (run_fig4, run_fig5, run_fig6, run_fig7):
        _experiment_section(
            runner(mode=mode, interpretation=interpretation, backend=backend), buf
        )
    _collectives_section(buf, collectives_baseline)
    return buf.getvalue()


def write_report(
    path: str,
    mode: str = "analytical",
    interpretation: str = "calibrated",
    backend: str | None = None,
) -> str:
    """Write the report to ``path``; returns the rendered text."""
    text = generate_report(mode=mode, interpretation=interpretation, backend=backend)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text
