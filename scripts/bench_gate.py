#!/usr/bin/env python
"""Benchmark-regression gate: re-measure pinned bench cells, compare, exit.

Each gated ``benchmarks/bench_*.py`` declares a ``GATE`` schema
(:class:`repro.obs.benchgate.BenchSchema`): its baseline file, the
measure that re-runs its pinned cells, and how each field is compared.
This script loops over the six — ``BENCH_rwa.json`` (RWA kernel cells
at N<1024, best of 3), ``BENCH_repair.json`` (incremental repair),
``BENCH_service.json`` (planning-service req/s), ``BENCH_faults.json``
(fault-scenario grid), ``BENCH_collectives.json`` (rival-collectives
bake-off) and ``BENCH_reconfig.json`` (MRR tuning overlap) — measures,
and gates the fresh rows with :func:`repro.obs.benchgate.compare`.
Deterministic values are gated exactly or at a 1e-6 relative tolerance;
wall-clock numbers only against a 0.25 x baseline floor (service req/s
also against an absolute 500 req/s).

Exit status: 0 when every comparison passes, 1 on any regression, 2 when
a baseline file is missing or unreadable. ``--baselines DIR`` reads the
``BENCH_*.json`` files from DIR instead of the repo root; ``--skip-perf``
drops the wall-clock RWA/repair/service benches for a fast
deterministic-only run; ``--json PATH`` writes the full diff record
(uploaded as a CI artifact on failure); ``--summary PATH`` appends a
markdown summary with one row per baseline file (CI points it at
``$GITHUB_STEP_SUMMARY``). ``--update-baseline`` splices the measured rows
back into the baselines (unmeasured rows keep their values) instead of
gating — for intentional perf/behavior changes; review the diff.

Usage::

    python scripts/bench_gate.py [--json diff.json] [--skip-perf]
    python scripts/bench_gate.py --update-baseline
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
for entry in (str(REPO_ROOT), str(REPO_ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks import (  # noqa: E402
    bench_collectives,
    bench_faults,
    bench_reconfig,
    bench_repair,
    bench_rwa,
    bench_service,
)
from repro.obs.benchgate import GateReport, compare, splice  # noqa: E402

#: Gate order: the wall-clock benches first, then the deterministic ones.
GATES = tuple(module.GATE for module in (
    bench_rwa, bench_repair, bench_service, bench_faults, bench_collectives, bench_reconfig,
))


def load_baseline(path: Path) -> dict | None:
    """Parsed baseline JSON, or ``None`` when missing/unreadable."""
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def write_summary(path: Path, report: GateReport, files: list[dict]) -> None:
    """Append a markdown summary of ``report`` to ``path``.

    CI points this at ``$GITHUB_STEP_SUMMARY`` so every bench-gate run —
    pass or fail — shows its comparison counts per baseline file (and any
    violations) on the workflow summary page.
    """
    lines = [
        "## Bench gate",
        "",
        f"**{'PASS' if report.ok else 'FAIL'}** — "
        f"{len(report.checked)} comparison(s), "
        f"{len(report.violations)} violation(s)",
        "",
        "| baseline | comparisons | violations |",
        "| --- | --- | --- |",
    ]
    lines += [
        f"| `{entry['file']}` | {entry['n_checked']} | {entry['n_violations']} |"
        for entry in files
    ]
    lines.append("")
    if report.violations:
        lines += [
            "| metric | kind | current | baseline | allowed |",
            "| --- | --- | --- | --- | --- |",
        ]
        lines += [
            f"| `{v.metric}` | {v.kind} | {v.current!r} | {v.baseline!r} "
            f"| {v.allowed} |"
            for v in report.violations
        ]
        lines.append("")
    with path.open("a") as handle:
        handle.write("\n".join(lines) + "\n")
    print(f"appended gate summary to {path}")


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit status (0/1/2)."""
    parser = argparse.ArgumentParser(
        prog="scripts/bench_gate.py",
        description="re-measure pinned bench cells and gate them against "
        "the committed BENCH_{rwa,repair,service,faults,collectives,"
        "reconfig}.json baselines",
    )
    parser.add_argument(
        "--baselines", metavar="DIR", type=Path, default=REPO_ROOT,
        help="directory holding the BENCH_*.json baselines "
        "(default: the repo root)",
    )
    parser.add_argument(
        "--skip-perf", action="store_true",
        help="skip the wall-clock RWA/repair/service benches "
        "(deterministic-only)",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the measured cells back into the baseline JSONs "
        "instead of gating (for intentional changes)",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the full diff record to PATH (CI failure artifact)",
    )
    parser.add_argument(
        "--summary", metavar="PATH", default=None,
        help="append a markdown gate summary to PATH "
        "(CI points this at $GITHUB_STEP_SUMMARY)",
    )
    args = parser.parse_args(argv)

    gates = [gate for gate in GATES if not (args.skip_perf and gate.wall_clock)]
    missing = [
        args.baselines / gate.file
        for gate in gates
        if load_baseline(args.baselines / gate.file) is None
    ]
    if missing and not args.update_baseline:
        for path in missing:
            print(f"bench gate: missing or unreadable baseline: {path}",
                  file=sys.stderr)
        return 2

    per_file: dict[str, GateReport] = {}
    for gate in gates:
        path = args.baselines / gate.file
        print(f"measuring {gate.file} ...")
        current = gate.measure()
        for section in gate.sections:
            for row in current[section.name]:
                for name in section.floor:
                    print(f"  {section.label.format(**row)}.{name}={row[name]:.4g}")
        if args.update_baseline:
            path.write_text(
                json.dumps(splice(gate, current, load_baseline(path)), indent=2)
                + "\n"
            )
            print(f"updated {gate.file} in {args.baselines}")
        else:
            per_file[gate.file] = compare(gate, current, load_baseline(path))
    if args.update_baseline:
        return 0

    report = GateReport()
    files = []
    for name, part in per_file.items():
        report.merge(part)
        n_checked, n_violations = len(part.checked), len(part.violations)
        files.append(
            {"file": name, "n_checked": n_checked, "n_violations": n_violations}
        )
        print(f"  {name}: {n_checked} comparison(s), {n_violations} violation(s)")
    print(report.render())
    if args.json:
        out = Path(args.json)
        out.write_text(json.dumps({**report.to_dict(), "files": files}, indent=2) + "\n")
        print(f"wrote diff record to {out}")
    if args.summary:
        write_summary(Path(args.summary), report, files)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
