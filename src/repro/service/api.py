"""Request model and evaluation engine shared by client and daemon.

A :class:`PlanRequest` is the wire encoding of one
:class:`~repro.backend.cell.CellSpec` — backend, collective, topology
size, wavelength budget, payload, MRR tuning model and fault set — plus
the caller's tenant, in a JSON-safe, hashable form. :class:`PlanEngine`
builds backends and schedules through the spec's own factories, the same
ones the experiment runners use, so an in-process evaluation is
bit-identical to the figure runners' ``Backend.run``, which is what makes
the daemon's answers auditable against the goldens.

Faulted optical requests do **not** re-lower from scratch: the engine
keeps one healthy base network per healthy config and overlap mode with
``keep_solutions=True`` and serves the degraded cell through the
incremental-repair path (:meth:`OpticalRingNetwork.repair_plan`), whose
plan-cache entries carry delta-salted keys.

The coalescing identity of a request is
``(backend, config fingerprint, fault diff)`` — built from
:func:`repro.obs.manifest.fingerprint` and
:func:`repro.backend.plancache.delta_salted_key`, the same primitives the
plan cache itself uses.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any

from repro.backend.base import Backend, ExecutionResult
from repro.backend.cell import CellSpec
from repro.backend.plancache import (
    PlanCache,
    default_plan_cache,
    delta_salted_key,
)
from repro.core.timing import CLOSED_FORM_ALGORITHMS
from repro.faults.models import (
    CutFiber,
    DeadWavelength,
    DroppedNode,
    Fault,
    FaultSet,
    MrrPortFault,
    PowerDroop,
)
from repro.obs.manifest import fingerprint
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.service.errors import ServiceRequestError

#: Algorithms a request may name: the display names with a closed form.
ALGORITHMS = CLOSED_FORM_ALGORITHMS


# -- fault wire codec ---------------------------------------------------
# Faults travel as plain tuples so a PlanRequest JSON round-trips
# losslessly (JSON lists are accepted on decode).

_FAULT_KINDS = {
    "dead_wavelength": DeadWavelength,
    "mrr_port": MrrPortFault,
    "cut_fiber": CutFiber,
    "dropped_node": DroppedNode,
    "power_droop": PowerDroop,
}

_FAULT_TYPES = tuple(_FAULT_KINDS.values())


def fault_to_wire(fault: Fault) -> tuple:
    """Encode one fault as a JSON-safe tuple (inverse of wire decode)."""
    if isinstance(fault, DeadWavelength):
        return ("dead_wavelength", fault.wavelength)
    if isinstance(fault, MrrPortFault):
        return ("mrr_port", fault.node, fault.wavelength, fault.mode, fault.direction)
    if isinstance(fault, CutFiber):
        return ("cut_fiber", fault.segment, fault.direction)
    if isinstance(fault, DroppedNode):
        return ("dropped_node", fault.node)
    if isinstance(fault, PowerDroop):
        return ("power_droop", fault.droop_db)
    raise ServiceRequestError(f"unencodable fault {fault!r}")


def fault_from_wire(wire: Any) -> Fault:
    """Decode one :func:`fault_to_wire` tuple (or JSON list) to a fault."""
    if not isinstance(wire, (tuple, list)) or not wire:
        raise ServiceRequestError(f"malformed fault entry {wire!r}")
    kind, *args = wire
    cls = _FAULT_KINDS.get(kind)
    if cls is None:
        raise ServiceRequestError(
            f"unknown fault kind {kind!r}; known: {sorted(_FAULT_KINDS)}"
        )
    try:
        return cls(*args)
    except (TypeError, ValueError) as exc:
        raise ServiceRequestError(f"invalid fault {wire!r}: {exc}") from exc


def faults_to_wire(faults: FaultSet) -> tuple[tuple, ...]:
    """Encode a whole fault set in its normalized order."""
    return tuple(fault_to_wire(f) for f in faults)


def _same(value: Any) -> Any:
    return value


def _optional_int(value: Any) -> int | None:
    return None if value is None else int(value)


#: Wire decoders by field annotation: JSON numbers become the field's type
#: (``from_dict`` tolerates ``4`` for a float, ``16.0`` for an int).
_DECODE = {"int": int, "float": float, "str": str, "int | None": _optional_int}

#: The spec fields behind a request's coalescing fingerprint.
_KEY_FIELDS = tuple(
    f.name for f in fields(CellSpec) if f.name not in ("backend", "faults")
)


@dataclass(frozen=True)
class PlanRequest(CellSpec):
    """One plan-service request: a :class:`CellSpec` plus its tenant.

    Hashable and JSON round-trip safe. ``faults`` may be given as
    :func:`fault_to_wire` tuples (or their JSON lists) or as fault objects;
    either way it normalizes into a :class:`FaultSet`. Every other field
    is the spec's (see :class:`~repro.backend.cell.CellSpec`).

    Attributes:
        tenant: Caller identity for quotas and per-tenant metrics; never
            part of the coalescing key.
    """

    tenant: str = "default"

    def __post_init__(self) -> None:
        # Decode wire entries; CellSpec then normalizes into FaultSet order,
        # so equal fault sets written in any order make equal requests.
        object.__setattr__(
            self,
            "faults",
            tuple(
                f if isinstance(f, _FAULT_TYPES) else fault_from_wire(f)
                for f in self.faults
            ),
        )
        super().__post_init__()

    def coalesce_key(self) -> tuple:
        """The identity under which identical requests share one lowering.

        ``(backend, fingerprint of every other spec field)`` for healthy
        requests; faulted ones are delta-salted with the fault tuple,
        mirroring how their plan-cache entries are keyed — so a faulted
        and a healthy request for the same cell can never coalesce with
        each other.
        """
        base = (
            self.backend,
            fingerprint(tuple(getattr(self, name) for name in _KEY_FIELDS)),
        )
        if self.faults:
            return delta_salted_key(base, faults_to_wire(self.faults))
        return base

    def to_dict(self) -> dict:
        """JSON-ready dict (inverse of :meth:`from_dict`)."""
        data = {name: getattr(self, name) for name, _ in _WIRE}
        data["faults"] = [list(f) for f in faults_to_wire(self.faults)]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "PlanRequest":
        """Rebuild from :meth:`to_dict` output (tolerates JSON lists).

        Absent optional fields take their defaults.

        Raises:
            ServiceRequestError: Not an object, a required field missing,
                or a field of the wrong type or out of range.
        """
        if not isinstance(data, dict):
            raise ServiceRequestError(f"plan request must be an object, got {data!r}")
        try:
            return cls(**{
                name: decode(data[name]) for name, decode in _WIRE if name in data
            })
        except (TypeError, ValueError) as exc:
            raise ServiceRequestError(f"malformed plan request: {exc}") from exc


#: ``(field name, wire decoder)`` for every request field, in order.
_WIRE = tuple((f.name, _DECODE.get(f.type, _same)) for f in fields(PlanRequest))


def comparable_dict(result: ExecutionResult) -> dict:
    """The bit-identity view of a result: everything but cache/metrics.

    Cache counters depend on what the serving process had already lowered
    and metrics snapshots carry wall clocks, so neither participates in
    the daemon-vs-in-process equality the service guarantees. Timings,
    timelines, events and meta must match exactly.
    """
    data = result.to_dict()
    data.pop("cache", None)
    data.pop("metrics", None)
    return data


class PlanEngine:
    """Evaluates :class:`PlanRequest` cells on shared backend state.

    One engine instance is the unit both the in-process client and the
    daemon share: it owns the backend instances (built by
    :meth:`CellSpec.new_backend`, so results are bit-identical to the
    figure runners), the optical repair bases, and the plan cache every
    lowering goes through.

    Args:
        plan_cache: Cache behind every ``lower()`` (default: the
            process-wide one; the daemon passes a
            :class:`~repro.service.store.PersistentPlanCache`).
        metrics: Observability registry shared with the daemon.
    """

    def __init__(
        self,
        *,
        plan_cache: PlanCache | None = None,
        metrics: MetricsRegistry = NULL_METRICS,
    ) -> None:
        self.plan_cache = default_plan_cache() if plan_cache is None else plan_cache
        self.metrics = metrics
        self._backends: dict[tuple, Backend] = {}
        self._repair_bases: dict[tuple, Any] = {}

    def evaluate(self, request: PlanRequest) -> ExecutionResult:
        """Lower and execute one request (the service's whole data plane).

        Healthy requests run ``Backend.run`` on the spec's backend —
        bit-identical to the figure runners. Faulted optical requests
        route through the incremental-repair path; faulted requests on
        other backends are rejected (the repair engine is optical-only).

        Raises:
            ServiceRequestError: Malformed/unservable request.
            BackendError: Lowering or execution failed.
        """
        if request.algorithm not in ALGORITHMS:
            raise ServiceRequestError(
                f"unknown algorithm {request.algorithm!r}; known: {ALGORITHMS}"
            )
        try:
            schedule = request.schedule()
        except (KeyError, ValueError) as exc:
            raise ServiceRequestError(f"unbuildable schedule: {exc}") from exc
        if request.faults:
            if request.backend != "optical":
                raise ServiceRequestError(
                    "faulted requests are served through the optical repair "
                    f"path; backend {request.backend!r} does not support them"
                )
            return self._evaluate_repaired(request, schedule)
        backend = self._backends.get(request.backend_key)
        if backend is None:
            try:
                backend = request.new_backend(plan_cache=self.plan_cache)
            except ValueError as exc:
                raise ServiceRequestError(str(exc)) from exc
            self._backends[request.backend_key] = backend
        with self.metrics.span("service.evaluate"):
            return backend.run(schedule, bytes_per_elem=request.bytes_per_elem)

    def _evaluate_repaired(self, request: PlanRequest, schedule) -> ExecutionResult:
        """Serve a faulted optical cell via incremental repair.

        The healthy base lowers the schedule once (cross-run cached, and
        its full RWA solutions are kept), then the fault set is applied as
        a repair: only the delta-affected subgraph recolors, and the
        repaired summaries land in the plan cache under delta-salted keys.
        """
        from repro.backend.optical import _execution_result
        from repro.optical.network import OpticalRingNetwork

        try:
            config = request.config()
        except ValueError as exc:
            raise ServiceRequestError(f"invalid faulted cell: {exc}") from exc
        healthy = replace(config, faults=FaultSet())
        base = self._repair_bases.get((healthy, request.overlap))
        if base is None:
            base = self._repair_bases[(healthy, request.overlap)] = OpticalRingNetwork(
                healthy,
                plan_cache=self.plan_cache,
                metrics=self.metrics,
                keep_solutions=True,
                overlap=request.overlap,
            )
        with self.metrics.span("service.evaluate"):
            base.lower(schedule, request.bytes_per_elem)
            plan, degraded = base.repair_plan(
                schedule, config.faults, bytes_per_elem=request.bytes_per_elem
            )
            run = degraded.execute_plan(plan)
        return _execution_result(
            run,
            meta={
                "interpretation": request.interpretation,
                "repair": True,
                "n_faults": len(config.faults),
            },
            metrics=self.metrics,
        )

    def flush(self) -> None:
        """Persist the plan cache when it is store-backed (else no-op)."""
        flush = getattr(self.plan_cache, "flush", None)
        if callable(flush):
            flush()


def request_without_tenant(request: PlanRequest) -> PlanRequest:
    """The request with its tenant scrubbed (coalescing/fixture helper)."""
    return replace(request, tenant="default")
