"""Client ↔ daemon integration: bit-identity, coalescing, admission, quotas."""

import asyncio
import contextlib
import logging
import socket
import threading
import time

import pytest

from repro.backend.plancache import PlanCache
from repro.runner import experiments
from repro.runner.experiments import run_fig5
from repro.service.api import PlanEngine, PlanRequest, comparable_dict
from repro.service.client import PlanClient
from repro.service.daemon import PlanningService
from repro.service.errors import (
    ServiceError,
    ServiceQuotaError,
    ServiceRequestError,
    ServiceUnavailableError,
)
from repro.service.protocol import PROTOCOL, recv_frame, send_frame

pytestmark = pytest.mark.skipif(
    not hasattr(socket, "AF_UNIX"), reason="planning daemon needs unix sockets"
)


class SlowEngine(PlanEngine):
    """An engine with an artificial per-evaluation delay (coalescing tests)."""

    def __init__(self, delay: float) -> None:
        super().__init__(plan_cache=PlanCache())
        self.delay = delay
        self.calls = 0

    def evaluate(self, request):
        self.calls += 1
        time.sleep(self.delay)
        return super().evaluate(request)


@contextlib.contextmanager
def running_service(tmp_path, **kwargs):
    """A PlanningService live on a temp socket, shut down on exit."""
    sock_path = str(tmp_path / "plan.sock")
    service = PlanningService(sock_path, **kwargs)
    thread = threading.Thread(target=lambda: asyncio.run(service.run()), daemon=True)
    thread.start()
    # The socket file appears at bind(), before listen(): retry connecting
    # until the daemon accepts, not just until the file exists.
    deadline = time.monotonic() + 10.0
    while True:
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            probe.connect(sock_path)
            break
        except (FileNotFoundError, ConnectionRefusedError):
            if time.monotonic() > deadline:
                raise RuntimeError("daemon never accepted a connection") from None
            time.sleep(0.005)
        finally:
            probe.close()
    try:
        yield service, sock_path
    finally:
        with contextlib.suppress(Exception):
            with PlanClient(sock_path, timeout=5.0) as client:
                client.shutdown()
        thread.join(timeout=10.0)


class TestBitIdentity:
    @pytest.mark.parametrize("backend", ["optical", "electrical", "analytic"])
    def test_daemon_equals_in_process(self, tmp_path, backend):
        request = PlanRequest("WRHT", 16, 4096, backend=backend, n_wavelengths=8)
        with running_service(tmp_path) as (_service, sock_path):
            with PlanClient(sock_path, timeout=30.0) as remote:
                served = remote.submit(request)
        local = PlanClient(engine=PlanEngine(plan_cache=PlanCache())).submit(request)
        assert served.remote and not local.remote
        assert comparable_dict(served.result) == comparable_dict(local.result)

    def test_faulted_request_repair_served(self, tmp_path):
        request = PlanRequest(
            "WRHT", 16, 4096, n_wavelengths=8,
            faults=(("dead_wavelength", 2),),
        )
        with running_service(tmp_path) as (_service, sock_path):
            with PlanClient(sock_path, timeout=30.0) as remote:
                served = remote.submit(request)
        assert served.result.meta["repair"] is True
        assert served.result.meta["n_faults"] == 1

    def test_persistent_store_warm_restart(self, tmp_path):
        """A daemon restarted on the same store re-serves from disk."""
        request = PlanRequest("WRHT", 16, 4096, n_wavelengths=8)
        store_root = tmp_path / "store"
        with running_service(tmp_path, store_root=store_root) as (_s, sock_path):
            with PlanClient(sock_path, timeout=30.0) as remote:
                first = remote.submit(request)
        with running_service(tmp_path, store_root=store_root) as (service, sock_path):
            with PlanClient(sock_path, timeout=30.0) as remote:
                second = remote.submit(request)
            store_stats = service.engine.plan_cache.store.stats
        assert comparable_dict(first.result) == comparable_dict(second.result)
        assert store_stats.hits > 0  # second run priced nothing from scratch


class TestRunnerThroughDaemon:
    def test_tuned_figure_served_bit_identical(self, tmp_path):
        """``run_fig5(service=...)`` carries the MRR tuning model."""
        cell = {
            "mode": "simulated", "n_nodes": 16, "wavelengths": (8,),
            "t_tune": 25e-6, "overlap": False,
        }
        local = run_fig5(**cell).series
        with running_service(tmp_path) as (_service, sock_path):
            try:
                served = run_fig5(**cell, service=sock_path).series
            finally:
                experiments._CLIENTS.pop(sock_path).close()
        assert served == local
        # Tuning moves every algorithm here, so a dropped t_tune would show.
        untuned = run_fig5(mode="simulated", n_nodes=16, wavelengths=(8,)).series
        assert all(served[key] != untuned[key] for key in served)


class TestCoalescing:
    def test_identical_inflight_requests_share_one_lowering(self, tmp_path):
        engine = SlowEngine(0.4)
        request = PlanRequest("WRHT", 16, 4096, n_wavelengths=8)
        responses = []
        with running_service(tmp_path, engine=engine) as (_service, sock_path):
            def submit():
                with PlanClient(sock_path, timeout=30.0) as client:
                    responses.append(client.submit(request))

            threads = [threading.Thread(target=submit) for _ in range(3)]
            for t in threads:
                t.start()
                time.sleep(0.05)  # all arrive inside the leader's window
            for t in threads:
                t.join(timeout=30)
        assert engine.calls == 1  # one lowering served everyone
        assert sorted(r.coalesced for r in responses) == [False, True, True]
        assert len({r.result.total_time for r in responses}) == 1

    def test_different_tenants_still_coalesce(self, tmp_path):
        engine = SlowEngine(0.4)
        responses = []
        with running_service(tmp_path, engine=engine) as (_service, sock_path):
            def submit(tenant):
                request = PlanRequest(
                    "WRHT", 16, 4096, n_wavelengths=8, tenant=tenant
                )
                with PlanClient(sock_path, timeout=30.0) as client:
                    responses.append(client.submit(request))

            threads = [
                threading.Thread(target=submit, args=(t,))
                for t in ("alice", "bob")
            ]
            for t in threads:
                t.start()
                time.sleep(0.05)
            for t in threads:
                t.join(timeout=30)
        assert engine.calls == 1


class TestAdmissionAndQuota:
    def test_admission_rejects_beyond_max_pending(self, tmp_path):
        engine = SlowEngine(0.6)
        errors = []
        with running_service(
            tmp_path, engine=engine, max_pending=1
        ) as (_service, sock_path):
            slow = threading.Thread(
                target=lambda: PlanClient(sock_path, timeout=30.0).submit(
                    PlanRequest("WRHT", 16, 4096, n_wavelengths=8)
                )
            )
            slow.start()
            time.sleep(0.2)  # the slow request is now in flight
            try:
                PlanClient(sock_path, timeout=30.0).submit(
                    PlanRequest("Ring", 16, 4096, n_wavelengths=8)
                )
            except ServiceError as exc:
                errors.append(exc)
            slow.join(timeout=30)
        assert len(errors) == 1
        assert isinstance(errors[0], ServiceUnavailableError)
        assert errors[0].kind == "admission"

    def test_tenant_quota_rejects_same_tenant_flood(self, tmp_path):
        engine = SlowEngine(0.6)
        errors = []
        with running_service(
            tmp_path, engine=engine, max_pending=64, tenant_quota=1
        ) as (_service, sock_path):
            slow = threading.Thread(
                target=lambda: PlanClient(sock_path, timeout=30.0).submit(
                    PlanRequest("WRHT", 16, 4096, n_wavelengths=8, tenant="alice")
                )
            )
            slow.start()
            time.sleep(0.2)
            try:
                PlanClient(sock_path, timeout=30.0).submit(
                    PlanRequest("Ring", 16, 4096, n_wavelengths=8, tenant="alice")
                )
            except ServiceError as exc:
                errors.append(exc)
            slow.join(timeout=30)
        assert len(errors) == 1
        assert isinstance(errors[0], ServiceQuotaError)

    def test_other_tenants_unaffected_by_a_flooded_one(self, tmp_path):
        engine = SlowEngine(0.6)
        with running_service(
            tmp_path, engine=engine, max_pending=64, tenant_quota=1
        ) as (_service, sock_path):
            slow = threading.Thread(
                target=lambda: PlanClient(sock_path, timeout=30.0).submit(
                    PlanRequest("WRHT", 16, 4096, n_wavelengths=8, tenant="alice")
                )
            )
            slow.start()
            time.sleep(0.2)
            response = PlanClient(sock_path, timeout=30.0).submit(
                PlanRequest("Ring", 16, 4096, n_wavelengths=8, tenant="bob")
            )
            slow.join(timeout=30)
        assert response.result.total_time > 0


class TestControlPlane:
    def test_ping_reports_protocol(self, tmp_path):
        with running_service(tmp_path) as (_service, sock_path):
            with PlanClient(sock_path, timeout=10.0) as client:
                pong = client.ping()
        assert pong["ok"] and pong["protocol"] == PROTOCOL

    def test_stats_counts_served_requests(self, tmp_path):
        with running_service(tmp_path) as (_service, sock_path):
            with PlanClient(sock_path, timeout=30.0) as client:
                client.submit(PlanRequest("WRHT", 16, 4096, n_wavelengths=8))
                stats = client.stats()["stats"]
        assert stats["metrics"]["counters"]["service.requests"] == 1
        assert stats["metrics"]["counters"]["service.lowerings"] == 1
        assert stats["metrics"]["counters"]["service.tenant.default.requests"] == 1

    def test_bad_request_raises_typed_error(self, tmp_path):
        with running_service(tmp_path) as (_service, sock_path):
            with PlanClient(sock_path, timeout=10.0) as client:
                with pytest.raises(ServiceRequestError):
                    client.submit(PlanRequest("Butterfly", 16, 4096))

    @pytest.mark.parametrize("field, value", [("t_tune", -1), ("overlap", "no")])
    def test_bad_tuning_field_answered_bad_request(self, tmp_path, field, value):
        data = {**PlanRequest("WRHT", 16, 4096).to_dict(), field: value}
        with running_service(tmp_path) as (_service, sock_path):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(10.0)
            sock.connect(sock_path)
            try:
                send_frame(sock, {"op": "plan", "request": data})
                response = recv_frame(sock)
            finally:
                sock.close()
        assert response["ok"] is False
        assert response["kind"] == "bad-request"

    def test_unknown_op_answered_not_dropped(self, tmp_path):
        with running_service(tmp_path) as (_service, sock_path):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(10.0)
            sock.connect(sock_path)
            try:
                send_frame(sock, {"op": "frobnicate"})
                response = recv_frame(sock)
            finally:
                sock.close()
        assert response["ok"] is False
        assert response["kind"] == "bad-request"

    def test_pipelined_requests_echo_ids(self, tmp_path):
        request = PlanRequest("WRHT", 16, 4096, n_wavelengths=8)
        with running_service(tmp_path) as (_service, sock_path):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(30.0)
            sock.connect(sock_path)
            try:
                for i in (1, 2):
                    send_frame(
                        sock, {"op": "plan", "request": request.to_dict(), "id": i}
                    )
                ids = {recv_frame(sock)["id"] for _ in (1, 2)}
            finally:
                sock.close()
        assert ids == {1, 2}

    def test_half_closed_client_with_requests_in_flight(self, tmp_path, caplog):
        # Each finished request task discards itself from the connection's
        # task set; the handler must still await every task and close.
        request = PlanRequest("WRHT", 16, 4096, n_wavelengths=8)
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with running_service(tmp_path, engine=SlowEngine(0.2)) as (_, sock_path):
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(30.0)
                sock.connect(sock_path)
                try:
                    for i in (1, 2):
                        send_frame(
                            sock, {"op": "plan", "request": request.to_dict(), "id": i}
                        )
                    sock.shutdown(socket.SHUT_WR)
                    ids = {recv_frame(sock)["id"] for _ in (1, 2)}
                    assert sock.recv(1) == b""
                finally:
                    sock.close()
        assert ids == {1, 2}
        assert [r.getMessage() for r in caplog.records if r.name == "asyncio"] == []

    def test_in_process_client_needs_no_daemon(self):
        with PlanClient(engine=PlanEngine(plan_cache=PlanCache())) as client:
            assert not client.remote
            assert client.ping()["ok"]
            total = client.total_time("WRHT", 16, 4096, n_wavelengths=8)
        assert total > 0

    def test_in_process_shutdown_is_an_error(self):
        with PlanClient(engine=PlanEngine(plan_cache=PlanCache())) as client:
            with pytest.raises(ServiceError):
                client.shutdown()
