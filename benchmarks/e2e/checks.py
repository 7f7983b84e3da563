"""Correctness of a run: failure counting, the seed-0 golden file, and the
paper-accuracy readout."""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_seed0.json"
GOLDEN_TOLERANCE = 1e-9
MAX_REPORTED_FAILURES = 10

#: The paper's average reductions (Sec 5.5, 5.6): (baseline, target, %).
PAPER_REDUCTIONS = {
    "fig6-paper": (("Ring", "WRHT", 65.23), ("H-Ring", "WRHT", 43.81), ("BT", "WRHT", 82.22)),
    "fig7-paper": (("E-Ring", "O-Ring", 48.74), ("E-Ring", "WRHT", 61.23), ("RD", "WRHT", 55.51)),
}


def golden_key(workload: str, smoke: bool) -> str:
    """Section of the golden file that pins one workload's grid."""
    return f"{workload}@smoke" if smoke else workload


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    """Every pinned section (empty when the file does not exist yet)."""
    return json.loads(path.read_text()) if path.exists() else {}


def save_golden(sections: dict, path: Path = GOLDEN_PATH) -> None:
    """Replace the given sections and keep the others."""
    golden = load_golden(path)
    golden.update(sections)
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def golden_values(cells: dict) -> dict:
    """The pinnable part of a pass: each cell's values."""
    return {cell_id: cell["values"] for cell_id, cell in sorted(cells.items())}


def _compare_values(got: dict, want: dict) -> str:
    """``"exact"``, ``"close"`` (every field within the tolerance) or a reason."""
    if set(got) != set(want):
        return f"fields {sorted(got)} != golden {sorted(want)}"
    status = "exact"
    for field, expected in want.items():
        value = got[field]
        if value == expected:
            continue
        if abs(value - expected) <= GOLDEN_TOLERANCE * abs(expected):
            status = "close"
        else:
            return f"{field} {value!r} != golden {expected!r}"
    return status


def score(passes: list[dict], golden: dict | None) -> dict:
    """Count attempted and failed operations over all passes.

    ``passes[0]`` is the cold pass. A cell fails when its operation raised,
    when an intrinsic check failed, when a warm cell is not bit-identical to
    the cold one, or, given ``golden``, when the cold cell differs from it by
    more than :data:`GOLDEN_TOLERANCE` relative. A golden cell the run did
    not produce counts as one more failed operation.
    """
    cold = passes[0]
    attempted = failed = 0
    failures: list[str] = []

    def fail(where: str, reason: str) -> None:
        nonlocal failed
        failed += 1
        if len(failures) < MAX_REPORTED_FAILURES:
            failures.append(f"{where}: {reason}")

    golden_stats = None
    if golden is not None:
        golden_stats = {"cells": len(golden), "exact": 0, "close": 0, "mismatched": 0}
        for cell_id in sorted(set(golden) - set(cold)):
            attempted += 1
            golden_stats["mismatched"] += 1
            fail(f"cold {cell_id}", "pinned in the golden file but not produced")
    for pass_no, cells in enumerate(passes):
        where_pass = "cold" if pass_no == 0 else f"warm{pass_no}"
        for cell_id, cell in sorted(cells.items()):
            attempted += 1
            where = f"{where_pass} {cell_id}"
            if "error" in cell:
                fail(where, cell["error"])
                continue
            reasons = list(cell["problems"])
            if pass_no and cell["values"] != cold.get(cell_id, {}).get("values"):
                reasons.append("warm result is not bit-identical to cold")
            if pass_no == 0 and golden is not None:
                if cell_id not in golden:
                    golden_stats["mismatched"] += 1
                    reasons.append("not in the golden file")
                else:
                    status = _compare_values(cell["values"], golden[cell_id])
                    if status in ("exact", "close"):
                        golden_stats[status] += 1
                    else:
                        golden_stats["mismatched"] += 1
                        reasons.append(f"golden mismatch: {status}")
            if reasons:
                fail(where, "; ".join(reasons))
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "golden": golden_stats,
    }


def paper_readout(workload: str, cells: dict) -> list[dict]:
    """Measured vs paper average reductions of one figure workload.

    The paper's averages are the only reference: the model has no hardware
    validation. Empty for workloads that are not paper figures, or when a
    cell failed.
    """
    from repro.runner.report import percent_reduction

    if workload not in PAPER_REDUCTIONS or any("error" in c for c in cells.values()):
        return []
    by_algo: dict[str, list[float]] = {}
    for cell_id, cell in sorted(cells.items()):
        by_algo.setdefault(cell_id.split("/")[1], []).append(cell["values"]["total_s"])
    return [
        {
            "comparison": f"{target} vs {baseline}",
            "measured_pct": percent_reduction(by_algo[baseline], by_algo[target]),
            "paper_pct": paper,
        }
        for baseline, target, paper in PAPER_REDUCTIONS[workload]
    ]
