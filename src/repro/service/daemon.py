"""The persistent planning daemon: asyncio server over a unix socket.

One :class:`PlanningService` owns a shared :class:`~repro.service.api.
PlanEngine` (backend instances, repair bases, plan cache — optionally the
sharded persistent store) and serves :class:`~repro.service.api.
PlanRequest` frames from any number of client connections.

Control-plane properties:

- **Admission control** — at most ``max_pending`` plan requests may be
  queued or in flight; excess requests are rejected immediately with an
  ``admission`` error instead of building an unbounded backlog.
- **Per-tenant quotas** — a tenant may have at most ``tenant_quota``
  requests in flight; the daemon answers ``quota`` errors beyond that.
  Per-tenant request/rejection counters land in the shared
  :class:`~repro.obs.metrics.MetricsRegistry` (``service.tenant.<t>.*``).
- **Request coalescing** — requests with the same
  ``(backend, config-fingerprint, fault-diff)`` identity
  (:meth:`PlanRequest.coalesce_key`) that overlap in time share a single
  lowering; followers wait on the leader's future and are answered with
  ``coalesced: true``.
- **Single evaluation lane** — lowerings run on a one-worker thread pool,
  so the event loop keeps accepting, rejecting and coalescing while a
  lowering is in progress, and engine state needs no locking.

Responses echo the request's ``id`` (when given), so clients may pipeline
many requests on one connection; response order follows completion order.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.backend.errors import BackendError
from repro.obs.metrics import MetricsRegistry
from repro.service.api import PlanEngine, PlanRequest
from repro.service.errors import (
    ServiceError,
    ServiceProtocolError,
    ServiceRequestError,
)
from repro.service.protocol import PROTOCOL, read_frame, write_frame
from repro.service.store import PersistentPlanCache, PlanStore


class PlanningService:
    """A planning daemon bound to one unix-socket path.

    Args:
        socket_path: Unix socket to listen on (stale files are replaced).
        engine: Evaluation engine; by default one is built, backed by a
            persistent store when ``store_root`` is given.
        store_root: Directory for the sharded plan store (optional).
        max_pending: Admission-control bound on queued + in-flight plans.
        tenant_quota: Max in-flight plan requests per tenant.
        flush_every: Store write-batching (see :class:`PlanStore`).
        metrics: Registry for service counters (default: a fresh enabled
            one, exposed via the ``stats`` op).
    """

    def __init__(
        self,
        socket_path: str | Path,
        *,
        engine: PlanEngine | None = None,
        store_root: str | Path | None = None,
        max_pending: int = 64,
        tenant_quota: int = 8,
        flush_every: int = 1,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        if tenant_quota < 1:
            raise ValueError(f"tenant_quota must be >= 1, got {tenant_quota}")
        self.socket_path = Path(socket_path)
        self.metrics = MetricsRegistry(enabled=True) if metrics is None else metrics
        if engine is None:
            plan_cache = None
            if store_root is not None:
                plan_cache = PersistentPlanCache(
                    PlanStore(store_root, flush_every=flush_every)
                )
            engine = PlanEngine(plan_cache=plan_cache, metrics=self.metrics)
        self.engine = engine
        self.max_pending = max_pending
        self.tenant_quota = tenant_quota
        self._pending = 0
        self._tenant_inflight: Counter[str] = Counter()
        self._inflight: dict[tuple, asyncio.Future] = {}
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="plan-lowering"
        )
        self._server: asyncio.AbstractServer | None = None
        self._stop: asyncio.Event | None = None
        self._connections: set[asyncio.Task] = set()

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        """Bind the unix socket and start accepting connections."""
        self.socket_path.parent.mkdir(parents=True, exist_ok=True)
        with contextlib.suppress(FileNotFoundError):
            os.unlink(self.socket_path)
        self._stop = asyncio.Event()
        self._server = await asyncio.start_unix_server(
            self._handle_connection, path=str(self.socket_path)
        )

    async def wait_stopped(self) -> None:
        """Block until a ``shutdown`` request (or :meth:`request_stop`)."""
        assert self._stop is not None, "start() must run first"
        await self._stop.wait()

    def request_stop(self) -> None:
        """Ask the serve loop to wind down (idempotent)."""
        if self._stop is not None:
            self._stop.set()

    async def close(self) -> None:
        """Stop accepting, flush the store, remove the socket file."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Connections idle in read_frame never finish on their own.
        for task in list(self._connections):
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await task
        self.engine.flush()
        self._pool.shutdown(wait=True)
        with contextlib.suppress(FileNotFoundError):
            os.unlink(self.socket_path)

    async def run(self) -> None:
        """Start, serve until shut down, then close (the daemon main)."""
        await self.start()
        try:
            await self.wait_stopped()
        finally:
            await self.close()

    # -- connection handling --------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        conn_task = asyncio.current_task()
        if conn_task is not None:
            self._connections.add(conn_task)
        try:
            while True:
                try:
                    message = await read_frame(reader)
                except ServiceProtocolError as exc:
                    async with write_lock:
                        await write_frame(
                            writer,
                            {"ok": False, "kind": exc.kind, "error": str(exc)},
                        )
                    break
                if message is None:
                    break
                task = asyncio.ensure_future(
                    self._answer(message, writer, write_lock)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except asyncio.CancelledError:
            # Daemon shutdown cancels idle connections; end them quietly
            # (the asyncio.streams done-callback would log otherwise).
            pass
        finally:
            if conn_task is not None:
                self._connections.discard(conn_task)
            # A snapshot: each finished task's done-callback discards it
            # from ``tasks``, which must not happen under the iteration.
            for task in list(tasks):
                with contextlib.suppress(asyncio.CancelledError, Exception):
                    await task
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _answer(
        self, message, writer: asyncio.StreamWriter, write_lock: asyncio.Lock
    ) -> None:
        response = await self._dispatch(message)
        if isinstance(message, dict) and "id" in message:
            response["id"] = message["id"]
        async with write_lock:
            with contextlib.suppress(ConnectionError):
                await write_frame(writer, response)

    async def _dispatch(self, message) -> dict:
        if not isinstance(message, dict):
            return {
                "ok": False,
                "kind": "bad-request",
                "error": f"expected an object frame, got {type(message).__name__}",
            }
        op = message.get("op")
        if op == "ping":
            return {"ok": True, "protocol": PROTOCOL, "pid": os.getpid()}
        if op == "stats":
            return {"ok": True, "stats": self.stats()}
        if op == "shutdown":
            self.request_stop()
            return {"ok": True, "stopping": True}
        if op == "plan":
            return await self._handle_plan(message.get("request"))
        return {
            "ok": False,
            "kind": "bad-request",
            "error": f"unknown op {op!r}; known: ping, plan, stats, shutdown",
        }

    # -- the plan path ---------------------------------------------------
    async def _handle_plan(self, request_data) -> dict:
        try:
            request = PlanRequest.from_dict(request_data)
        except ServiceRequestError as exc:
            self.metrics.inc("service.rejected.bad_request")
            return {"ok": False, "kind": exc.kind, "error": str(exc)}
        tenant = request.tenant
        self.metrics.inc("service.requests")
        self.metrics.inc(f"service.tenant.{tenant}.requests")
        # Admission control before any work is queued.
        if self._pending >= self.max_pending:
            self.metrics.inc("service.rejected.admission")
            self.metrics.inc(f"service.tenant.{tenant}.rejected")
            return {
                "ok": False,
                "kind": "admission",
                "error": (
                    f"service at capacity ({self._pending} requests pending, "
                    f"max {self.max_pending}); retry later"
                ),
            }
        if self._tenant_inflight[tenant] >= self.tenant_quota:
            self.metrics.inc("service.rejected.quota")
            self.metrics.inc(f"service.tenant.{tenant}.rejected")
            return {
                "ok": False,
                "kind": "quota",
                "error": (
                    f"tenant {tenant!r} has {self._tenant_inflight[tenant]} "
                    f"requests in flight (quota {self.tenant_quota})"
                ),
            }
        key = request.coalesce_key()
        future = self._inflight.get(key)
        coalesced = future is not None
        if coalesced:
            self.metrics.inc("service.coalesced")
            self.metrics.inc(f"service.tenant.{tenant}.coalesced")
        else:
            loop = asyncio.get_running_loop()
            self.metrics.inc("service.lowerings")
            future = loop.run_in_executor(self._pool, self._evaluate, request)
            self._inflight[key] = future
            future.add_done_callback(
                lambda _fut, _key=key: self._inflight.pop(_key, None)
            )
        self._pending += 1
        self._tenant_inflight[tenant] += 1
        try:
            # Shielded: one follower's disconnect must not cancel the
            # leader's lowering other followers are waiting on.
            result = await asyncio.shield(future)
        except ServiceError as exc:
            return {"ok": False, "kind": exc.kind, "error": str(exc)}
        except BackendError as exc:
            return {"ok": False, "kind": "backend", "error": str(exc)}
        except Exception as exc:  # noqa: BLE001 — never kill the connection
            return {"ok": False, "kind": "internal", "error": repr(exc)}
        finally:
            self._pending -= 1
            self._tenant_inflight[tenant] -= 1
            if not self._tenant_inflight[tenant]:
                del self._tenant_inflight[tenant]
        return {"ok": True, "result": result.to_dict(), "coalesced": coalesced}

    def _evaluate(self, request: PlanRequest):
        """Pool-thread entry: evaluate and persist (single lane, no locks)."""
        with self.metrics.span("service.request"):
            result = self.engine.evaluate(request)
        self.engine.flush()
        return result

    # -- introspection ----------------------------------------------------
    def stats(self) -> dict:
        """Service counters for the ``stats`` op (JSON-safe)."""
        data: dict = {
            "protocol": PROTOCOL,
            "pending": self._pending,
            "inflight_keys": len(self._inflight),
            "tenants": dict(self._tenant_inflight),
            "plan_cache": self.engine.plan_cache.stats.as_dict(),
            "metrics": self.metrics.snapshot().to_dict(),
        }
        store = getattr(self.engine.plan_cache, "store", None)
        if store is not None:
            data["store"] = store.stats.as_dict()
            data["store_root"] = str(store.root)
        return data


def serve(
    socket_path: str | Path,
    *,
    store_root: str | Path | None = None,
    max_pending: int = 64,
    tenant_quota: int = 8,
    flush_every: int = 1,
) -> None:
    """Run a daemon in the foreground until a ``shutdown`` request.

    The blocking entry point behind ``wrht-repro serve`` /
    ``python -m repro.service serve``.
    """
    service = PlanningService(
        socket_path,
        store_root=store_root,
        max_pending=max_pending,
        tenant_quota=tenant_quota,
        flush_every=flush_every,
    )
    asyncio.run(service.run())
