"""``wrht-repro check`` / ``python -m repro.check`` — static verification CLI.

Two subcommands:

``check``
    Build every golden plan of one figure's grid (the same algorithm ×
    size × wavelength cells the experiment runners price), lower each on
    the chosen backend, and run the full applicable rule catalog. On the
    optical backend the context includes statically re-derived circuit
    rounds, so the wavelength-conflict and port-budget rules run too.
    Exit status 1 on any ERROR finding.

``lint``
    The REP, CONC and DET AST pass (same as ``python -m repro.check.lint``;
    see :mod:`repro.check.lint` for the rule catalog).

Golden plans use the figures' real communication geometry with a compact
gradient vector: routing, wavelength assignment and step structure depend
only on the (algorithm, N, w) pattern, not on payload bytes, so the
verification verdict is identical to paper-scale workloads at a fraction
of the cost.

Examples::

    $ wrht-repro check --backend optical --fig fig5
    $ python -m repro.check check --fig fig6 --backend analytic
    $ python -m repro.check lint src
"""

from __future__ import annotations

import argparse
import sys

from repro.check.findings import Finding, errors


def golden_cells(fig: str) -> list[dict]:
    """The (algorithm, N, w) grid one figure prices, as cell dicts.

    Mirrors the cell enumeration in :mod:`repro.runner.experiments`
    (Fig 7's E-Ring column prices the Ring schedule on the electrical
    substrate, so it only appears for ``--backend electrical``).
    """
    from repro.core.wavelengths import optimal_group_size
    from repro.runner.experiments import (
        DEFAULT_WAVELENGTHS,
        FIG4_GROUP_SIZES,
        FIG5_WAVELENGTHS,
        FIG6_NODES,
        FIG7_NODES,
        HRING_M,
    )

    n0, w0 = 1024, DEFAULT_WAVELENGTHS
    if fig == "fig4":
        return [
            {"algo": "WRHT", "n": n0, "w": w0, "wrht_m": m, "hring_m": HRING_M}
            for m in FIG4_GROUP_SIZES
        ]
    if fig == "fig5":
        return [
            {
                "algo": algo, "n": n0, "w": w,
                "wrht_m": min(optimal_group_size(w), n0), "hring_m": HRING_M,
            }
            for algo in ("Ring", "H-Ring", "BT", "WRHT")
            for w in FIG5_WAVELENGTHS
        ]
    if fig == "fig6":
        return [
            {"algo": algo, "n": n, "w": w0, "wrht_m": None, "hring_m": HRING_M}
            for algo in ("Ring", "H-Ring", "BT", "WRHT")
            for n in FIG6_NODES
        ]
    if fig == "fig7":
        return [
            {"algo": algo, "n": n, "w": w0, "wrht_m": None, "hring_m": HRING_M}
            for algo in ("Ring", "RD", "WRHT")
            for n in FIG7_NODES
        ]
    raise ValueError(f"unknown figure {fig!r}; expected fig4..fig7")


def _verify_cell(cell: dict, backend_name: str, interpretation: str) -> list[Finding]:
    """Build, lower and verify one golden cell; returns its findings."""
    from repro.backend.cell import CellSpec
    from repro.check.context import optical_context
    from repro.check.engine import run_rules, verify_plan
    from repro.runner.experiments import get_backend

    # A compact exact-chunking vector: 8 elements per node.
    spec = CellSpec(
        cell["algo"], cell["n"], 8 * cell["n"], backend=backend_name,
        n_wavelengths=cell["w"], interpretation=interpretation,
        m=cell["wrht_m"], hring_m=cell["hring_m"],
    )
    backend = get_backend(spec.backend, spec.n_nodes, spec.n_wavelengths, interpretation)
    schedule = spec.schedule()
    if backend_name == "optical":
        context = optical_context(backend, schedule)
        return run_rules(context)
    plan = backend.lower(schedule, bytes_per_elem=spec.bytes_per_elem)
    return verify_plan(plan, schedule)


def cmd_check(args: argparse.Namespace) -> int:
    """Verify every golden plan of the selected figure(s)."""
    figs = [args.fig] if args.fig else ["fig4", "fig5", "fig6", "fig7"]
    n_cells = 0
    bad: list[Finding] = []
    for fig in figs:
        for cell in golden_cells(fig):
            n_cells += 1
            findings = _verify_cell(cell, args.backend, args.interpretation)
            label = f"{fig} {cell['algo']} N={cell['n']} w={cell['w']}"
            cell_errors = errors(findings)
            bad.extend(cell_errors)
            if cell_errors:
                print(f"FAIL {label}")
                for finding in cell_errors:
                    print(f"  {finding.render()}")
            elif args.verbose:
                notes = len(findings) - len(cell_errors)
                suffix = f" ({notes} note(s))" if notes else ""
                print(f"ok   {label}{suffix}")
    status = "clean" if not bad else f"{len(bad)} error finding(s)"
    print(
        f"verified {n_cells} golden plan(s) on the {args.backend} "
        f"backend: {status}"
    )
    return 1 if bad else 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the lint pass (delegates to :mod:`repro.check.lint`)."""
    from repro.check.lint import main as lint_main

    argv = [str(p) for p in args.paths]
    if args.select:
        argv += ["--select", args.select]
    return lint_main(argv)


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``repro.check`` CLI parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="Static verification: plan rules and the AST lint pass.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify a figure's golden plans")
    p.add_argument(
        "--backend", choices=("optical", "electrical", "analytic"),
        default="optical", help="backend to lower the golden plans on",
    )
    p.add_argument(
        "--fig", choices=("fig4", "fig5", "fig6", "fig7"), default=None,
        help="restrict to one figure (default: all four)",
    )
    p.add_argument(
        "--interpretation", choices=("calibrated", "strict"),
        default="calibrated", help="line-rate units (see DESIGN.md §6)",
    )
    p.add_argument("-v", "--verbose", action="store_true",
                   help="print every verified cell")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("lint", help="run the REP/CONC/DET AST lint")
    p.add_argument("paths", nargs="+", help="files or directories to lint")
    p.add_argument("--select", help="comma-separated rule ids")
    p.set_defaults(fn=cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro.check`` and the CLI subcommand."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
