"""Command-line interface: ``wrht-repro <command>``.

Commands mirror the deliverables:

- ``table1``              — Table 1 step counts.
- ``fig4``/``fig5``/``fig6``/``fig7`` — regenerate one figure's series.
- ``plan``                — show the WRHT plan for an (N, w) pair.
- ``verify``              — numerically verify an algorithm's schedule.
- ``check``               — statically verify golden plans / run the lint.
- ``obs``                 — observe one figure cell (metrics, manifest).
- ``serve``               — planning-service daemon / smoke (repro.service).
- ``all``                 — everything above at paper defaults.

Figure commands accept ``--service SOCKET`` to route every grid cell
through a running planning daemon instead of lowering in-process.
"""

from __future__ import annotations

import argparse
import sys

from repro.util.tables import AsciiTable


def _add_common(p: argparse.ArgumentParser) -> None:
    from repro.backend import registry

    p.add_argument(
        "--mode", choices=("analytical", "simulated"), default="analytical",
        help="closed-form models or full substrate simulation",
    )
    p.add_argument(
        "--interpretation", choices=("calibrated", "strict"), default="calibrated",
        help="line-rate units (see DESIGN.md §6)",
    )
    p.add_argument(
        "--backend", choices=registry.available(), default=None,
        help="force one pricing backend for every cell "
        "(default: the mode's historical mapping)",
    )
    p.add_argument(
        "--service", metavar="SOCKET", default=None,
        help="route every cell through the planning daemon at this unix "
        "socket (see 'wrht-repro serve'; answers are bit-identical to "
        "in-process evaluation)",
    )
    p.add_argument(
        "--t-tune", type=float, default=0.0, metavar="SECONDS",
        help="per-MRR thermal tuning time; enables the reconfiguration "
        "model (repro.optical.reconfig) on the optical/analytic backends "
        "(default 0 — disabled, timings bit-identical)",
    )
    p.add_argument(
        "--overlap", action=argparse.BooleanOptionalAction, default=True,
        help="overlap MRR tuning with the previous round's transmission "
        "(--no-overlap charges it serially; only meaningful with --t-tune)",
    )


def _cmd_table1(args) -> int:
    from repro.runner.experiments import run_table1

    counts = run_table1(args.nodes, args.wavelengths)
    table = AsciiTable(["algorithm", f"steps (N={args.nodes}, w={args.wavelengths})"])
    for name, steps in counts.items():
        table.add_row([name, steps])
    print(table.render())
    return 0


def _figure(runner, args, reductions: list[tuple[str, str]]) -> int:
    result = runner(
        mode=args.mode, interpretation=args.interpretation,
        backend=getattr(args, "backend", None),
        service=getattr(args, "service", None),
        t_tune=getattr(args, "t_tune", 0.0),
        overlap=getattr(args, "overlap", True),
    )
    print(result.render())
    summary = AsciiTable(["comparison", "avg reduction (%)"])
    for baseline, target in reductions:
        summary.add_row([f"{target} vs {baseline}", result.reduction_vs(baseline, target)])
    print()
    print(summary.render())
    return 0


def _cmd_fig4(args) -> int:
    from repro.runner.experiments import run_fig4

    result = run_fig4(
        mode=args.mode, interpretation=args.interpretation,
        backend=getattr(args, "backend", None),
        service=getattr(args, "service", None),
        t_tune=getattr(args, "t_tune", 0.0),
        overlap=getattr(args, "overlap", True),
    )
    print(result.render())
    ref_algo, ref_m = result.meta["reference"]
    print(f"\nnormalized to {ref_algo}@m={ref_m} per workload:")
    for wl in result.workloads:
        norm = result.normalized(wl, ref_algo, ref_m)
        row = ", ".join(f"m={m}: {v:.2f}" for m, v in zip(result.x_values, norm[(wl, "WRHT")]))
        print(f"  {wl:9s} {row}")
    return 0


def _cmd_fig5(args) -> int:
    from repro.runner.experiments import run_fig5

    return _figure(
        run_fig5, args,
        [("Ring", "WRHT"), ("H-Ring", "WRHT"), ("BT", "WRHT")],
    )


def _cmd_fig6(args) -> int:
    from repro.runner.experiments import run_fig6

    return _figure(
        run_fig6, args,
        [("Ring", "WRHT"), ("H-Ring", "WRHT"), ("BT", "WRHT")],
    )


def _cmd_fig7(args) -> int:
    from repro.runner.experiments import run_fig7

    return _figure(
        run_fig7, args,
        [("E-Ring", "O-Ring"), ("E-Ring", "WRHT"), ("RD", "WRHT")],
    )


def _cmd_plan(args) -> int:
    from repro.core.constraints import OpticalPhyParams
    from repro.core.planner import plan_wrht

    phy = OpticalPhyParams() if args.phy else None
    plan = plan_wrht(args.nodes, args.wavelengths, m=args.group_size, phy=phy)
    print(plan.describe())
    return 0


def _cmd_verify(args) -> int:
    from repro.collectives import build_schedule, verify_allreduce

    kwargs = {}
    if args.algorithm in ("wrht",):
        kwargs["n_wavelengths"] = args.wavelengths
    if args.algorithm in ("hring",):
        kwargs["m"] = min(5, args.nodes)
    schedule = build_schedule(
        args.algorithm, args.nodes, max(args.nodes, 8), materialize=True, **kwargs
    )
    verify_allreduce(schedule)
    print(
        f"{args.algorithm}: All-reduce over {args.nodes} nodes verified "
        f"({schedule.n_steps} steps)"
    )
    return 0


def _cmd_show(args) -> int:
    from repro.collectives import build_schedule
    from repro.collectives.render import render_schedule

    kwargs = {}
    if args.algorithm == "wrht":
        kwargs["n_wavelengths"] = args.wavelengths
    if args.algorithm == "hring":
        kwargs["m"] = min(5, args.nodes)
    schedule = build_schedule(
        args.algorithm, args.nodes, max(args.nodes, 8), materialize=True, **kwargs
    )
    print(render_schedule(schedule))
    return 0


def _cmd_check(args) -> int:
    from repro.check.cli import main as check_main

    return check_main(["check", *args.rest])


def _cmd_obs(args) -> int:
    from repro.obs.cli import main as obs_main

    return obs_main(args.rest)


def _cmd_serve(args) -> int:
    from repro.service.__main__ import main as service_main

    return service_main(args.rest)


def _cmd_report(args) -> int:
    from repro.runner.results import write_report

    text = write_report(
        args.output, mode=args.mode, interpretation=args.interpretation,
        backend=getattr(args, "backend", None),
    )
    print(f"wrote {len(text.splitlines())} lines to {args.output}")
    return 0


def _cmd_all(args) -> int:
    for cmd in (_cmd_table1, _cmd_fig4, _cmd_fig5, _cmd_fig6, _cmd_fig7):
        print("=" * 72)
        cmd(args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI parser (exposed for the docs/tests)."""
    parser = argparse.ArgumentParser(
        prog="wrht-repro",
        description="WRHT (ICPP 2023) reproduction: tables, figures, plans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="Table 1 step counts")
    p.add_argument("--nodes", type=int, default=1024)
    p.add_argument("--wavelengths", type=int, default=64)
    p.set_defaults(fn=_cmd_table1)

    for name, fn in (
        ("fig4", _cmd_fig4), ("fig5", _cmd_fig5),
        ("fig6", _cmd_fig6), ("fig7", _cmd_fig7),
    ):
        p = sub.add_parser(name, help=f"regenerate {name}")
        _add_common(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("plan", help="show a WRHT plan")
    p.add_argument("--nodes", type=int, default=1024)
    p.add_argument("--wavelengths", type=int, default=64)
    p.add_argument("--group-size", type=int, default=None)
    p.add_argument("--phy", action="store_true", help="apply Sec 4.4 constraints")
    p.set_defaults(fn=_cmd_plan)

    from repro.collectives.registry import available_algorithms

    p = sub.add_parser("verify", help="numerically verify a schedule")
    p.add_argument("algorithm", choices=available_algorithms())
    p.add_argument("--nodes", type=int, default=32)
    p.add_argument("--wavelengths", type=int, default=8)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("show", help="render a schedule's activity grid")
    p.add_argument("algorithm", choices=available_algorithms())
    p.add_argument("--nodes", type=int, default=15)
    p.add_argument("--wavelengths", type=int, default=2)
    p.set_defaults(fn=_cmd_show)

    p = sub.add_parser(
        "check",
        help="statically verify golden plans (repro.check)",
        add_help=False,
    )
    p.add_argument("rest", nargs=argparse.REMAINDER)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser(
        "obs",
        help="run one figure cell with metrics (repro.obs)",
        add_help=False,
    )
    p.add_argument("rest", nargs=argparse.REMAINDER)
    p.set_defaults(fn=_cmd_obs)

    p = sub.add_parser(
        "serve",
        help="planning-service daemon and smoke check (repro.service)",
        add_help=False,
    )
    p.add_argument("rest", nargs=argparse.REMAINDER)
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser("report", help="write a markdown results document")
    _add_common(p)
    p.add_argument("--output", default="RESULTS.md")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("all", help="run everything at paper defaults")
    _add_common(p)
    p.add_argument("--nodes", type=int, default=1024)
    p.add_argument("--wavelengths", type=int, default=64)
    p.set_defaults(fn=_cmd_all)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point (``wrht-repro`` console script)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["obs"]:
        # Forward verbatim for the same reason as ``check`` below.
        from repro.obs.cli import main as obs_main

        return obs_main(argv[1:])
    if argv[:1] == ["serve"]:
        # Forward verbatim for the same reason as ``check`` below.
        from repro.service.__main__ import main as service_main

        return service_main(argv[1:])
    if argv[:1] == ["check"]:
        # Forward verbatim: argparse REMAINDER drops leading optionals, so
        # the check subcommand's flags are parsed by its own parser.
        # ``check lint …`` selects that parser's lint subcommand.
        from repro.check.cli import main as check_main

        if argv[1:2] == ["lint"]:
            return check_main(argv[1:])
        return check_main(argv)
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
