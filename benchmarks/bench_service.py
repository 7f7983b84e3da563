"""Planning-service throughput — req/s and tail latency through a live daemon.

One measurement, written to ``BENCH_service.json`` at the repo root: a
multi-tenant client fleet hammering a live :class:`PlanningService` over
its unix socket with a *micro grid* of plan requests (five collectives x
two workload sizes at N=16, w=8 — small enough that a lowering costs
microseconds, so the number measures the service stack: framing, asyncio
dispatch, admission/quota bookkeeping, coalescing and the shared plan
cache, not the RWA solver).

Protocol: every distinct cell is warmed once, then ``TENANTS`` threads
each replay a seeded shuffle of the grid through their own blocking
client, timing every round trip. Reported per run:

- ``rps`` — total requests / wall clock across the fleet;
- ``p50_ms`` / ``p99_ms`` — per-request round-trip latency percentiles.

The request/tenant/cell counts are structural (gated exactly); ``rps`` is
host-noisy wall clock, gated against a perf floor *and* the absolute
>=500 req/s floor the issue pins.
"""

import json
import random
import socket
import statistics
import tempfile
import threading
import time
from pathlib import Path

import pytest

from repro.obs.benchgate import BenchSchema, Section
from repro.service.api import ALGORITHMS, PlanRequest
from repro.service.client import PlanClient
from repro.service.daemon import PlanningService
from repro.util.tables import AsciiTable

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_service.json"

N_NODES = 16
W = 8
PARAM_SIZES = (4096, 65536)
TENANTS = 4
REQUESTS_PER_TENANT = 100
MIN_RPS = 500.0


def _micro_grid() -> list[PlanRequest]:
    """The distinct cells: every algorithm x workload size at N=16, w=8."""
    return [
        PlanRequest(algorithm, N_NODES, n_params, n_wavelengths=W)
        for algorithm in ALGORITHMS
        for n_params in PARAM_SIZES
    ]


def _tenant_mix(cells: list[PlanRequest], tenant: str, rng: random.Random):
    """A seeded per-tenant replay: REQUESTS_PER_TENANT draws over the grid."""
    draws = [rng.randrange(len(cells)) for _ in range(REQUESTS_PER_TENANT)]
    return [
        PlanRequest(**{**cells[i].to_dict(), "tenant": tenant}) for i in draws
    ]


def _run_service_micro() -> list[dict]:
    """Measure the daemon under the multi-tenant micro-grid replay."""
    if not hasattr(socket, "AF_UNIX"):
        raise RuntimeError("planning daemon needs unix sockets")
    cells = _micro_grid()
    rng = random.Random(20240931)
    mixes = [
        _tenant_mix(cells, f"tenant-{t}", rng) for t in range(TENANTS)
    ]
    latencies: list[float] = []
    lat_lock = threading.Lock()
    start_barrier = threading.Barrier(TENANTS + 1)

    def replay(mix):
        with PlanClient(sock_path, timeout=60.0) as client:
            client.ping()  # connection cost paid before the clock starts
            start_barrier.wait()
            mine = []
            for request in mix:
                t0 = time.perf_counter()
                client.submit(request)
                mine.append(time.perf_counter() - t0)
        with lat_lock:
            latencies.extend(mine)

    with tempfile.TemporaryDirectory() as tmp:
        sock_path = f"{tmp}/plan.sock"
        service = PlanningService(sock_path)
        server = threading.Thread(
            target=lambda: __import__("asyncio").run(service.run()), daemon=True
        )
        server.start()
        deadline = time.monotonic() + 10.0
        while not Path(sock_path).exists():
            if time.monotonic() > deadline:
                raise RuntimeError("daemon socket never appeared")
            time.sleep(0.005)
        with PlanClient(sock_path, timeout=60.0) as warmer:
            for cell in cells:
                warmer.submit(cell)  # lowerings cached before the clock
        threads = [
            threading.Thread(target=replay, args=(mix,)) for mix in mixes
        ]
        for t in threads:
            t.start()
        start_barrier.wait()
        wall_t0 = time.perf_counter()
        for t in threads:
            t.join()
        wall = time.perf_counter() - wall_t0
        with PlanClient(sock_path, timeout=10.0) as admin:
            admin.shutdown()
        server.join(timeout=10.0)

    n_requests = TENANTS * REQUESTS_PER_TENANT
    assert len(latencies) == n_requests
    ordered = sorted(latencies)
    return [
        {
            "case": "service-micro",
            "tenants": TENANTS,
            "requests": n_requests,
            "distinct_cells": len(cells),
            "rps": n_requests / wall,
            "p50_ms": statistics.median(ordered) * 1e3,
            "p99_ms": ordered[int(0.99 * (len(ordered) - 1))] * 1e3,
        }
    ]


GATE = BenchSchema(OUT_PATH.name, lambda: {"service": _run_service_micro()}, (
    Section("service", ("case",), "service.{case}",
            exact=("tenants", "requests", "distinct_cells"),
            floor=("rps",), absolute=(("rps_absolute", "rps", MIN_RPS),)),
))


@pytest.mark.skipif(
    not hasattr(socket, "AF_UNIX"), reason="planning daemon needs unix sockets"
)
def test_service_throughput(once):
    rows = once(_run_service_micro)
    table = AsciiTable(
        ["case", "tenants", "requests", "cells", "req/s", "p50 (ms)", "p99 (ms)"]
    )
    for row in rows:
        table.add_row([
            row["case"], row["tenants"], row["requests"], row["distinct_cells"],
            f"{row['rps']:.0f}", f"{row['p50_ms']:.3f}", f"{row['p99_ms']:.3f}",
        ])
    print()
    print(f"planning-service micro grid, N={N_NODES}, w={W} (warm cache):")
    print(table.render())

    (row,) = rows
    assert row["rps"] >= MIN_RPS

    OUT_PATH.write_text(json.dumps({"service": rows}, indent=2) + "\n")
    print(f"wrote {OUT_PATH}")
