"""``wrht-repro obs`` / ``python -m repro.obs``: observe one figure cell.

Runs a single experiment cell (one figure, one x value, one workload, one
algorithm) with a metrics-enabled backend, prints the per-step
timing/utilization table derived from the execution timeline, prints the
metrics summary (counters, gauges, histograms, profiling spans), and can
write the run manifest (:mod:`repro.obs.manifest`) to a file.

Unlike the figure runners, this command always builds a **fresh** backend so
the metrics cover exactly one run, and it keeps the full timeline instead of
only ``total_time``. The numbers match the figure runners bit for bit —
both take the cell from :func:`repro.runner.experiments.figure_cell` and
call ``Backend.run`` on the spec's backend and schedule.

Examples::

    python -m repro.obs fig6 --x 1024 --algo WRHT
    python -m repro.obs fig5 --x 16 --algo H-Ring --workload VGG16
    python -m repro.obs fig7 --x 256 --algo E-Ring --manifest cell.json
"""

from __future__ import annotations

import argparse
import sys

from repro.obs.manifest import build_run_manifest, write_run_manifest
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.util.tables import AsciiTable

#: Default x value per figure (the first paper point, cheap to run).
_FIGURE_DEFAULT_X = {"fig4": 17, "fig5": 64, "fig6": 1024, "fig7": 128}

_FIGURE_X_LABEL = {
    "fig4": "group size m",
    "fig5": "wavelengths w",
    "fig6": "nodes N",
    "fig7": "nodes N",
}

_FIGURE_ALGOS = {
    "fig4": ("WRHT",),
    "fig5": ("Ring", "H-Ring", "BT", "WRHT"),
    "fig6": ("Ring", "H-Ring", "BT", "WRHT"),
    "fig7": ("E-Ring", "RD", "O-Ring", "WRHT"),
}


def _render_timeline(result) -> str:
    """The per-step timing/utilization table for one execution."""
    table = AsciiTable(
        ["stage", "steps", "s/step", "rounds", "transfers",
         "peak-w", "bytes/step", "time %"]
    )
    for record in result.timeline:
        share = (
            100.0 * record.duration * record.count / result.total_time
            if result.total_time > 0
            else 0.0
        )
        table.add_row([
            record.stage, record.count, record.duration, record.rounds,
            record.n_transfers, record.peak_wavelength,
            record.bytes_per_step, f"{share:.1f}",
        ])
    return table.render()


def _render_metrics(snapshot) -> str:
    """Human-readable counters/gauges/histograms/spans summary."""
    lines = []
    data = snapshot.to_dict()
    if data["counters"]:
        lines.append("counters:")
        for name, value in data["counters"].items():
            lines.append(f"  {name} = {value}")
    if data["gauges"]:
        lines.append("gauges:")
        for name, value in data["gauges"].items():
            lines.append(f"  {name} = {value:.6g}")
    if data["histograms"]:
        lines.append("histograms:")
        for name, hist in data["histograms"].items():
            mean = hist["total"] / hist["n"] if hist["n"] else 0.0
            lines.append(
                f"  {name}: n={hist['n']} mean={mean:.4g} "
                f"min={hist['min']:.4g} max={hist['max']:.4g}"
            )
    if data["spans"]:
        lines.append("spans (wall clock):")
        for name, stat in data["spans"].items():
            lines.append(
                f"  {name}: count={stat['count']} total={stat['total_s']:.4f}s"
            )
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    """Construct the obs CLI parser (exposed for the docs/tests)."""
    parser = argparse.ArgumentParser(
        prog="wrht-repro obs",
        description="run one figure cell with metrics enabled: per-step "
        "timing/utilization table, metrics summary, optional run manifest",
    )
    parser.add_argument(
        "figure", choices=("fig4", "fig5", "fig6", "fig7"),
        help="which figure's cell shape to run",
    )
    parser.add_argument(
        "--x", type=int, default=None,
        help="the figure's x value (fig4: m, fig5: w, fig6/fig7: N); "
        "default: the first paper point",
    )
    parser.add_argument(
        "--algo", default="WRHT",
        help="algorithm display name (figure-dependent; default WRHT)",
    )
    parser.add_argument("--workload", default="ResNet50")
    parser.add_argument("--nodes", type=int, default=None,
                        help="override N for fig4/fig5 (default 1024)")
    parser.add_argument("--wavelengths", type=int, default=None,
                        help="override w where it is not the x axis")
    parser.add_argument(
        "--mode", choices=("analytical", "simulated"), default="simulated",
        help="closed-form models or full substrate simulation",
    )
    parser.add_argument(
        "--interpretation", choices=("calibrated", "strict"),
        default="calibrated",
    )
    parser.add_argument(
        "--backend", default=None,
        help="force one pricing backend (optical/electrical/analytic)",
    )
    parser.add_argument(
        "--manifest", default=None, metavar="PATH",
        help="write the JSON run manifest to PATH",
    )
    parser.add_argument(
        "--no-metrics", action="store_true",
        help="run with the disabled registry (timing table only)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit status."""
    from repro.dnn.workload import workload_by_name
    from repro.runner.experiments import figure_cell

    args = build_parser().parse_args(argv)
    if args.algo not in _FIGURE_ALGOS[args.figure]:
        print(
            f"error: {args.figure} has no algorithm {args.algo!r} "
            f"(choose from {', '.join(_FIGURE_ALGOS[args.figure])})",
            file=sys.stderr,
        )
        return 2
    workload = workload_by_name(args.workload)
    x = args.x if args.x is not None else _FIGURE_DEFAULT_X[args.figure]
    fixed = {"n_nodes": args.nodes, "n_wavelengths": args.wavelengths}
    spec = figure_cell(
        args.figure, x, args.algo, workload,
        mode=args.mode, interpretation=args.interpretation, backend=args.backend,
        **{name: value for name, value in fixed.items() if value is not None},
    )
    metrics = NULL_METRICS if args.no_metrics else MetricsRegistry()
    backend = spec.new_backend(metrics=metrics)
    result = backend.run(spec.schedule(), bytes_per_elem=spec.bytes_per_elem)

    print(
        f"{args.figure} cell: {args.algo} on {workload.name}, "
        f"{_FIGURE_X_LABEL[args.figure]}={x} "
        f"(N={spec.n_nodes}, w={spec.n_wavelengths}, "
        f"backend={result.backend}, mode={args.mode})"
    )
    print(
        f"total: {result.total_time:.6e} s over {result.n_steps} step(s), "
        f"{result.total_bytes:.4g} bytes"
    )
    print()
    print(_render_timeline(result))
    if result.metrics is not None:
        print()
        print(_render_metrics(result.metrics))
    if args.manifest:
        manifest = build_run_manifest(
            result,
            config=spec.config(),
            extra={
                "figure": args.figure,
                "algo": args.algo,
                "x": x,
                "workload": workload.name,
                "mode": args.mode,
            },
        )
        path = write_run_manifest(manifest, args.manifest)
        print(f"\nwrote run manifest to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
