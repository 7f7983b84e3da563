"""End-to-end benchmark: cold/warm wall time of figure runs, the bake-off and
the fault/live sweep, with a traced per-layer breakdown.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--workload NAME]... [--seed S]
        [--seconds T] [--json OUT] [--trace [0|1]] [--trace-out PATH]
        [--smoke] [--update-golden]

(``PYTHONPATH=src python -m benchmarks.e2e.run`` is equivalent.) Every
workload runs serially in fresh single-threaded processes: five timed
set-up launches after one discarded warm-up launch, then one measuring
process (cold pass, then warm passes for at least ``--seconds``). With
``--trace`` a further process repeats the measurement with every layer's
entry points wrapped and reports the per-layer table instead of the
end-to-end metrics.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (``name -> {value, unit}``; with
several workloads each name is prefixed by ``<workload>.``). The exit code
is 0 when every operation passed its checks, 1 when one failed, and 2 when
the program under test cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e import checks  # noqa: E402
from benchmarks.e2e.trace import SPANS  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS  # noqa: E402

SETUP_LAUNCHES = 5
SMOKE_SETUP_LAUNCHES = 1
DEFAULT_SECONDS = 5.0
SETUP_TIMEOUT_S = 60
MEASURE_TIMEOUT_S = 170

#: The end-to-end metrics, in report order, with their units.
END_TO_END = (
    ("setup_s", "s"),
    ("cold_s", "s"),
    ("warm_s", "s"),
    ("peak_rss_mb", "MB"),
    ("fail_frac", "ratio"),
)
#: Metrics the machine-readable line leaves out: a failure fraction is 0 on
#: every good run and is carried by ``attempted``/``failed`` instead.
NOT_IN_RESULT_LINE = ("fail_frac",)

#: Per-layer metrics on the result line of a ``--trace`` run. Self times are
#: given only for spans every workload enters; a span a workload never
#: enters reads 0 calls, which the ``.calls`` counts show.
REPORTED_SELF_S = (
    "collectives.build",
    "backend.optical.lower",
    "backend.execute",
    "optical.plan_step_rounds",
    "rwa.plan_rounds",
    "optical.validate_no_conflicts",
    "optical.validate_node_constraints",
    "plancache.get",
)
REPORTED_COUNTS = (
    "plancache.hits",
    "plancache.misses",
    "plancache.cold_hit_ratio",
    "plancache.warm_hit_ratio",
    "rwa.rounds",
    "electrical.maxmin.flows",
    "sim.events",
    "check.errors",
    "trace.cold_s",
    "trace.unattributed_s",
    "trace.overhead_frac",
)


def reported_layer_metrics() -> list[str]:
    """Names of the per-layer metrics on a ``--trace`` result line."""
    return (
        [f"{span}.calls" for span in SPANS]
        + [f"{span}.self_s" for span in REPORTED_SELF_S]
        + [f"warm.{span}.self_s" for span in ("collectives.build", "backend.execute")]
        + list(REPORTED_COUNTS)
    )


class WorkerError(RuntimeError):
    """A benchmark process crashed, timed out or printed no result."""


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("WRHT_PLAN_STORE", None)  # the on-disk plan store would warm the cold pass
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _launch(args: list[str], timeout: float) -> tuple[float, str]:
    """Run one worker process to completion; (wall seconds, stdout)."""
    cmd = [sys.executable, "-m", "benchmarks.e2e.worker", *args]
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True,
            timeout=timeout, check=False,
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{' '.join(args)}: no result within {timeout} s") from None
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise WorkerError(f"{' '.join(args)}: exit code {proc.returncode}")
    return wall, proc.stdout


def _measure(args: list[str]) -> dict:
    _, out = _launch(args, MEASURE_TIMEOUT_S)
    lines = out.strip().splitlines()
    if not lines:
        raise WorkerError(f"{' '.join(args)}: printed no result")
    return json.loads(lines[-1])


def run_workload(name: str, opts: argparse.Namespace) -> dict:
    """Every measurement of one workload, as a report dict."""
    base = ["--workload", name, "--seed", str(opts.seed), *(["--smoke"] if opts.smoke else [])]
    report: dict = {}
    if not opts.trace:
        launches = SMOKE_SETUP_LAUNCHES if opts.smoke else SETUP_LAUNCHES
        # The discarded first launch compiles the .pyc files.
        setup = [_launch([*base, "--setup"], SETUP_TIMEOUT_S)[0] for _ in range(launches + 1)]
        report["setup_launches_s"] = setup[1:]
    extra = ["--update-golden"] if opts.update_golden else []
    runs = [_measure([*base, "--seconds", str(opts.seconds), *extra])]
    if opts.trace:
        spans = ["--record-spans"] if opts.trace_out else []
        runs.append(_measure([*base, "--trace", *spans]))
    untraced = runs[0]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    metrics = {
        "cold_s": untraced["cold_s"],
        "warm_s": untraced["warm_s"],
        "peak_rss_mb": untraced["peak_rss_mb"],
        "fail_frac": failed / attempted,
    }
    if "setup_launches_s" in report:
        metrics["setup_s"] = statistics.median(report["setup_launches_s"])
    report.update({
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END if k in metrics},
        "warm_passes": untraced["warm_passes"],
        "attempted": attempted,
        "failed": failed,
        "failures": [f for r in runs for f in r["failures"]][: checks.MAX_REPORTED_FAILURES],
        "golden": untraced["golden"],
        "readout": untraced["readout"],
    })
    if opts.update_golden:
        report["golden_section"] = untraced["golden_section"]
    if opts.trace:
        traced = runs[1]
        layers = {k: {"value": v, "unit": u} for k, (v, u) in traced["layers"].items()}
        layers["trace.overhead_frac"] = {
            "value": traced["cold_s"] / untraced["cold_s"] - 1.0, "unit": "ratio"
        }
        report["layers"] = layers
        if "spans" in traced:
            report["spans"] = traced["spans"]
    return report


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_report(name: str, report: dict, opts: argparse.Namespace) -> None:
    """Human-readable tables for one workload."""
    print(f"== {name} (seed {opts.seed}{', smoke' if opts.smoke else ''}) ==")
    for metric, entry in report["metrics"].items():
        note = ""
        if metric == "setup_s":
            note = f"median of {len(report['setup_launches_s'])} launches"
        elif metric == "warm_s":
            note = f"median of {report['warm_passes']} passes"
        elif metric == "fail_frac":
            note = f"{report['failed']} of {report['attempted']} operations failed"
        print(f"  {metric:<14}{_fmt(entry['value']):>14} {entry['unit']:<6} {note}")
    for failure in report["failures"]:
        print(f"  FAILED {failure}")
    golden = report["golden"]
    if golden is not None:
        print(
            f"  golden: {golden['cells']} cells pinned, {golden['exact']} bit-exact, "
            f"{golden['close']} within {checks.GOLDEN_TOLERANCE:g} only, "
            f"{golden['mismatched']} mismatched"
        )
    elif opts.seed == 0 and not opts.update_golden:
        print("  golden: no section for this grid in golden_seed0.json")
    if report["readout"]:
        print(
            "  paper accuracy (average reduction; the paper's averages are the "
            "only reference, the model has no hardware validation):"
        )
        for row in report["readout"]:
            print(
                f"    {row['comparison']:<18} measured {row['measured_pct']:7.2f} %"
                f"   paper {row['paper_pct']:6.2f} %"
                f"   gap {row['measured_pct'] - row['paper_pct']:+6.2f} pts"
            )
    if "layers" in report:
        layers = report["layers"]
        cold = layers["trace.cold_s"]["value"]
        print(f"  per layer, traced cold pass {cold:.4f} s (warm: first warm pass):")
        print(f"    {'span':<34}{'calls':>9}{'self_s':>11}{'self %':>8}{'cum_s':>11}"
              f"{'warm calls':>12}{'warm self_s':>13}")
        for span in SPANS:
            self_s = layers[f"{span}.self_s"]["value"]
            print(
                f"    {span:<34}{layers[f'{span}.calls']['value']:>9}{self_s:>11.4f}"
                f"{100 * self_s / cold if cold else 0.0:>8.1f}"
                f"{layers[f'{span}.cum_s']['value']:>11.4f}"
                f"{layers[f'warm.{span}.calls']['value']:>12}"
                f"{layers[f'warm.{span}.self_s']['value']:>13.4f}"
            )
        for metric in REPORTED_COUNTS:
            entry = layers[metric]
            print(f"    {metric:<34}{_fmt(entry['value']):>14} {entry['unit']}")


def result_line(reports: dict[str, dict], trace: bool) -> dict:
    """The machine-readable summary (the last line of stdout)."""
    single = len(reports) == 1
    metrics = {}
    for name, report in reports.items():
        if trace:
            selected = {k: report["layers"][k] for k in reported_layer_metrics()}
        else:
            selected = {
                k: v for k, v in report["metrics"].items() if k not in NOT_IN_RESULT_LINE
            }
        for metric, entry in selected.items():
            metrics[metric if single else f"{name}.{metric}"] = entry
    failed = sum(r["failed"] for r in reports.values())
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of figure runs, the bake-off and the fault sweep."
    )
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 is the paper's grid and is checked against "
                        "the golden file")
    parser.add_argument("--seconds", type=float, default=None,
                        help="least warm-pass time to measure, after at least three "
                        f"passes (default {DEFAULT_SECONDS:g}; 0 with --smoke)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="also run traced and report the per-layer metrics")
    parser.add_argument("--trace-out", help="write every traced span to this JSON file")
    parser.add_argument("--json", help="write the full report to this JSON file")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grids: checks correctness and output shape quickly")
    parser.add_argument("--update-golden", action="store_true",
                        help="re-pin the seed-0 golden cells of the selected workloads")
    opts = parser.parse_args(argv)
    if opts.seconds is None:
        opts.seconds = 0.0 if opts.smoke else DEFAULT_SECONDS
    if opts.update_golden and opts.seed != 0:
        parser.error("--update-golden pins seed 0 only")
    if opts.trace_out and not opts.trace:
        parser.error("--trace-out needs --trace")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: the program under test (src/repro) is not in {ROOT}", file=sys.stderr)
        return 2

    reports = {}
    try:
        for name in opts.workload or list(WORKLOADS):
            reports[name] = run_workload(name, opts)
            print_report(name, reports[name], opts)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    line = result_line(reports, bool(opts.trace))
    if opts.update_golden:
        if not line["correct"]:
            print("error: not re-pinning the golden file: operations failed", file=sys.stderr)
            return 1
        checks.save_golden({
            k: v for r in reports.values() for k, v in r.pop("golden_section").items()
        })
        print(f"re-pinned {', '.join(reports)} in {checks.GOLDEN_PATH.name}")
    if opts.trace_out:
        spans = {name: r.pop("spans", []) for name, r in reports.items()}
        Path(opts.trace_out).write_text(json.dumps(spans) + "\n")
    if opts.json:
        Path(opts.json).write_text(
            json.dumps({"seed": opts.seed, "smoke": opts.smoke, "workloads": reports},
                       indent=1) + "\n"
        )
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
