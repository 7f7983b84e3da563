"""Command-line entry points for the planning service.

``python -m repro.service serve`` runs a daemon in the foreground;
``python -m repro.service smoke`` is the self-contained CI check: it
starts a daemon on a temporary socket, serves one fig-4 cell per backend
through it, the optical and analytic cells again under a serial MRR
tuning model, and one faulted optical cell through the repair path, and
asserts every answer is bit-identical to the in-process evaluation of the
same request (exit 0 on success, 1 on any divergence).

Both are also reachable through the main CLI: ``wrht-repro serve
--socket PATH`` (bare flags imply the ``serve`` subcommand) and
``wrht-repro serve smoke``.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import socket as socket_mod
import sys
import tempfile
import threading
import time

from repro.service.api import PlanRequest, comparable_dict
from repro.service.client import PlanClient
from repro.service.daemon import PlanningService, serve


def _add_serve_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--socket", required=True, help="unix-socket path to listen on"
    )
    parser.add_argument(
        "--store", default=None,
        help="directory for the sharded persistent plan store (default: "
        "in-memory only)",
    )
    parser.add_argument(
        "--max-pending", type=int, default=64,
        help="admission-control bound on in-flight plan requests",
    )
    parser.add_argument(
        "--tenant-quota", type=int, default=8,
        help="max in-flight plan requests per tenant",
    )
    parser.add_argument(
        "--flush-every", type=int, default=1,
        help="persist store shards every N writes",
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    print(f"planning service listening on {args.socket}", file=sys.stderr)
    serve(
        args.socket,
        store_root=args.store,
        max_pending=args.max_pending,
        tenant_quota=args.tenant_quota,
        flush_every=args.flush_every,
    )
    return 0


def run_smoke(*, n_nodes: int = 64, n_wavelengths: int = 8, verbose: bool = True) -> int:
    """Daemon-vs-in-process bit-identity on one fig-4 cell per backend,
    tuned optical/analytic variants and a repair-served faulted cell.

    Returns a process exit code (0: every backend identical; 1: any
    divergence or service failure).
    """
    if not hasattr(socket_mod, "AF_UNIX"):
        print("service smoke: skipped (no AF_UNIX on this platform)")
        return 0
    failures = 0
    with tempfile.TemporaryDirectory(prefix="wrht-service-smoke-") as tmp:
        sock_path = os.path.join(tmp, "plan.sock")
        service = PlanningService(sock_path, store_root=os.path.join(tmp, "store"))
        thread = threading.Thread(
            target=lambda: asyncio.run(service.run()), daemon=True
        )
        thread.start()
        deadline = time.monotonic() + 10.0
        while not os.path.exists(sock_path):
            if time.monotonic() > deadline:
                print("service smoke: FAIL (daemon socket never appeared)")
                return 1
            time.sleep(0.01)
        try:
            from repro.core.wavelengths import optimal_group_size

            # One fig-4 cell (WRHT at a fixed group size), scaled down so
            # the smoke stays fast; m follows Lemma 1 for the budget.
            group_size = min(optimal_group_size(n_wavelengths), n_nodes)
            cell = {"n_wavelengths": n_wavelengths, "m": group_size}
            tuned = {"t_tune": 25e-6, "overlap": False}
            requests = [
                *(
                    PlanRequest("WRHT", n_nodes, 1_000_000, backend=b, **cell)
                    for b in ("optical", "electrical", "analytic")
                ),
                *(
                    PlanRequest("WRHT", n_nodes, 1_000_000, backend=b, **cell, **tuned)
                    for b in ("optical", "analytic")
                ),
                PlanRequest(
                    "WRHT", n_nodes, 1_000_000, **cell,
                    faults=(("dead_wavelength", 1),),
                ),
            ]
            with PlanClient(sock_path, timeout=120.0) as remote, PlanClient() as local:
                for request in requests:
                    served = remote.submit(request)
                    direct = local.submit(request)
                    same = comparable_dict(served.result) == comparable_dict(
                        direct.result
                    )
                    if request.faults and not served.result.meta.get("repair"):
                        same = False  # faulted cells must be repair-served
                    if verbose:
                        marker = "ok " if same else "DIFF"
                        label = f"backend={request.backend}"
                        if request.t_tune:
                            label += f" t_tune={request.t_tune} overlap={request.overlap}"
                        if request.faults:
                            label += f" repair n_faults={len(request.faults)}"
                        print(
                            f"service smoke: [{marker}] {label} "
                            f"total_time={served.result.total_time!r}"
                        )
                    if not same:
                        failures += 1
                remote.shutdown()
        finally:
            thread.join(timeout=10.0)
    if failures:
        print(f"service smoke: FAIL ({failures} divergent answer(s))")
        return 1
    print("service smoke: PASS (daemon answers bit-identical to in-process)")
    return 0


def _cmd_smoke(args: argparse.Namespace) -> int:
    return run_smoke(n_nodes=args.n_nodes, n_wavelengths=args.wavelengths)


def main(argv: list[str] | None = None) -> int:
    """Entry point (``python -m repro.service`` / ``wrht-repro serve``).

    Bare flags imply the ``serve`` subcommand, so ``wrht-repro serve
    --socket PATH`` starts a daemon directly.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Planning-service daemon and smoke check.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve_p = sub.add_parser("serve", help="run a planning daemon in the foreground")
    _add_serve_args(serve_p)
    serve_p.set_defaults(func=_cmd_serve)

    smoke_p = sub.add_parser(
        "smoke", help="daemon-vs-in-process bit-identity check (CI stage)"
    )
    smoke_p.add_argument("--n-nodes", type=int, default=64)
    smoke_p.add_argument("--wavelengths", type=int, default=8)
    smoke_p.set_defaults(func=_cmd_smoke)

    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
        argv = ["serve", *argv]  # bare flags imply the daemon subcommand
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
