"""Request model and engine: round-trips, coalescing identity, parity."""

import pytest

from repro.backend.analytic import AnalyticBackend
from repro.backend.electrical import ElectricalBackend
from repro.backend.optical import OpticalBackend
from repro.backend.plancache import PlanCache
from repro.collectives.registry import build_schedule
from repro.electrical.config import ElectricalSystemConfig
from repro.faults.models import DeadWavelength, FaultSet
from repro.optical.config import OpticalSystemConfig
from repro.optical.reconfig import ReconfigModel
from repro.service.api import (
    ALGORITHMS,
    PlanEngine,
    PlanRequest,
    comparable_dict,
    fault_from_wire,
    fault_to_wire,
    request_without_tenant,
)
from repro.service.errors import ServiceRequestError


class TestFaultCodec:
    @pytest.mark.parametrize(
        "wire",
        [
            ("dead_wavelength", 3),
            ("mrr_port", 2, 1, "stuck", "cw"),
            ("cut_fiber", 4, "cw"),
            ("dropped_node", 7),
            ("power_droop", 1.5),
        ],
    )
    def test_round_trip(self, wire):
        fault = fault_from_wire(wire)
        assert fault_to_wire(fault) == wire

    def test_json_list_accepted(self):
        assert fault_from_wire(["dead_wavelength", 3]) == DeadWavelength(3)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ServiceRequestError):
            fault_from_wire(("laser_on_fire", 1))

    def test_bad_args_rejected(self):
        with pytest.raises(ServiceRequestError):
            fault_from_wire(("dead_wavelength",))


class TestPlanRequest:
    def test_dict_round_trip(self):
        req = PlanRequest(
            "WRHT", 16, 4096, n_wavelengths=8, m=5, tenant="alice",
            faults=(("dead_wavelength", 2),),
        )
        assert PlanRequest.from_dict(req.to_dict()) == req

    def test_json_shaped_faults_normalize(self):
        a = PlanRequest("Ring", 8, 100, faults=(("dead_wavelength", 2),))
        b = PlanRequest.from_dict(
            {**a.to_dict(), "faults": [["dead_wavelength", 2]]}
        )
        assert a == b

    def test_fault_order_normalized(self):
        a = PlanRequest(
            "Ring", 8, 100,
            faults=(("dead_wavelength", 5), ("dead_wavelength", 2)),
        )
        b = PlanRequest(
            "Ring", 8, 100,
            faults=(("dead_wavelength", 2), ("dead_wavelength", 5)),
        )
        assert a == b
        assert a.coalesce_key() == b.coalesce_key()

    def test_malformed_rejected(self):
        with pytest.raises(ServiceRequestError):
            PlanRequest.from_dict({"algorithm": "Ring"})  # missing sizes
        with pytest.raises(ServiceRequestError):
            PlanRequest.from_dict("not an object")

    @pytest.mark.parametrize(
        "field, value",
        [("t_tune", -1), ("overlap", "yes"), ("overlap", 1), ("overlap", None)],
    )
    def test_bad_tuning_fields_rejected(self, field, value):
        data = {**PlanRequest("Ring", 8, 100).to_dict(), field: value}
        with pytest.raises(ServiceRequestError):
            PlanRequest.from_dict(data)

    def test_dict_without_tuning_fields_decodes_as_before(self):
        data = PlanRequest("WRHT", 16, 4096, n_wavelengths=8).to_dict()
        del data["t_tune"], data["overlap"]
        req = PlanRequest.from_dict(data)
        assert req.t_tune == 0.0 and req.overlap is True
        assert req == PlanRequest("WRHT", 16, 4096, n_wavelengths=8)

    def test_json_numbers_take_the_field_type(self):
        data = {
            **PlanRequest("WRHT", 16, 4096, m=5).to_dict(),
            "n_nodes": 16.0, "m": 5.0, "bytes_per_elem": 4, "t_tune": 0,
        }
        req = PlanRequest.from_dict(data)
        assert req == PlanRequest("WRHT", 16, 4096, m=5)
        assert (type(req.n_nodes), type(req.m), type(req.bytes_per_elem)) == (
            int, int, float
        )

    def test_tuning_round_trips(self):
        req = PlanRequest("Swing", 8, 100, t_tune=25e-6, overlap=False)
        assert PlanRequest.from_dict(req.to_dict()) == req

    def test_fault_set_decodes(self):
        req = PlanRequest("Ring", 8, 100, faults=(("dead_wavelength", 2),))
        assert req.faults == FaultSet((DeadWavelength(2),))


class TestCoalesceKey:
    def test_identical_requests_share_a_key(self):
        a = PlanRequest("WRHT", 16, 4096, n_wavelengths=8)
        b = PlanRequest("WRHT", 16, 4096, n_wavelengths=8)
        assert a.coalesce_key() == b.coalesce_key()

    def test_tenant_never_splits_the_key(self):
        a = PlanRequest("WRHT", 16, 4096, tenant="alice")
        b = PlanRequest("WRHT", 16, 4096, tenant="bob")
        assert a.coalesce_key() == b.coalesce_key()
        assert request_without_tenant(a) == request_without_tenant(b)

    def test_distinct_cells_split_the_key(self):
        a = PlanRequest("WRHT", 16, 4096)
        assert a.coalesce_key() != PlanRequest("WRHT", 32, 4096).coalesce_key()
        assert a.coalesce_key() != PlanRequest("Ring", 16, 4096).coalesce_key()
        assert (
            a.coalesce_key()
            != PlanRequest("WRHT", 16, 4096, backend="analytic").coalesce_key()
        )

    def test_tuning_splits_the_key(self):
        a = PlanRequest("WRHT", 16, 4096, t_tune=25e-6)
        assert a.coalesce_key() != PlanRequest("WRHT", 16, 4096).coalesce_key()
        assert (
            a.coalesce_key()
            != PlanRequest("WRHT", 16, 4096, t_tune=10e-6).coalesce_key()
        )
        assert (
            a.coalesce_key()
            != PlanRequest("WRHT", 16, 4096, t_tune=25e-6, overlap=False).coalesce_key()
        )

    def test_faults_delta_salt_the_key(self):
        healthy = PlanRequest("WRHT", 16, 4096, n_wavelengths=8)
        faulted = PlanRequest(
            "WRHT", 16, 4096, n_wavelengths=8,
            faults=(("dead_wavelength", 2),),
        )
        assert healthy.coalesce_key() != faulted.coalesce_key()
        assert faulted.coalesce_key()[0] == "delta"
        assert faulted.coalesce_key()[1] == healthy.coalesce_key()


def _direct_run(backend, algorithm, n, w, n_params, t_tune=0.0, overlap=True):
    """The cell priced the way a figure runner prices it, built straight
    from the backend class and ``build_schedule`` (not through CellSpec)."""
    cache = PlanCache()
    if backend == "optical":
        be = OpticalBackend(
            OpticalSystemConfig(n_nodes=n, n_wavelengths=w, t_tune=t_tune),
            overlap=overlap, plan_cache=cache,
        )
    elif backend == "electrical":
        be = ElectricalBackend(ElectricalSystemConfig(n_nodes=n), plan_cache=cache)
    else:
        model = OpticalSystemConfig(n_nodes=n, n_wavelengths=w).cost_model()
        be = AnalyticBackend(
            model, w=w, reconfig=ReconfigModel(t_tune=t_tune), overlap=overlap,
            plan_cache=cache,
        )
    kwargs: dict = {"materialize": False}
    if algorithm == "WRHT":
        kwargs.update(n_wavelengths=w, m=None)
    elif algorithm == "H-Ring":
        kwargs.update(m=5)
    schedule = build_schedule(algorithm, n, n_params, **kwargs)
    return comparable_dict(be.run(schedule, bytes_per_elem=4))


class TestPlanEngine:
    @pytest.mark.parametrize("backend", ["optical", "electrical", "analytic"])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_parity_with_runner_path(self, backend, algorithm):
        """Engine answers are bit-identical to the experiment runners'."""
        engine = PlanEngine(plan_cache=PlanCache())
        request = PlanRequest(algorithm, 8, 4096, backend=backend, n_wavelengths=8)
        mine = comparable_dict(engine.evaluate(request))
        assert mine == _direct_run(backend, algorithm, 8, 8, 4096)

    # The untuned case is test_parity_with_runner_path.
    @pytest.mark.parametrize(
        "t_tune, overlap", [(25e-6, True), (25e-6, False)],
        ids=["tuned-overlap", "tuned-serial"],
    )
    @pytest.mark.parametrize("backend", ["optical", "analytic"])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_parity_with_runner_path_under_tuning(
        self, backend, algorithm, t_tune, overlap
    ):
        """The MRR tuning model reaches the engine's backends intact."""
        engine = PlanEngine(plan_cache=PlanCache())
        request = PlanRequest(
            algorithm, 8, 4096, backend=backend, n_wavelengths=8,
            t_tune=t_tune, overlap=overlap,
        )
        mine = comparable_dict(engine.evaluate(request))
        assert mine == _direct_run(backend, algorithm, 8, 8, 4096, t_tune, overlap)

    def test_result_json_round_trips_exactly(self):
        import json

        from repro.backend.base import ExecutionResult

        engine = PlanEngine(plan_cache=PlanCache())
        result = engine.evaluate(PlanRequest("WRHT", 8, 4096, n_wavelengths=8))
        wire = json.loads(json.dumps(result.to_dict()))
        assert comparable_dict(ExecutionResult.from_dict(wire)) == comparable_dict(
            result
        )

    def test_faulted_optical_served_via_repair(self):
        engine = PlanEngine(plan_cache=PlanCache())
        result = engine.evaluate(
            PlanRequest(
                "WRHT", 8, 4096, n_wavelengths=8,
                faults=(("dead_wavelength", 2),),
            )
        )
        assert result.meta["repair"] is True
        assert result.meta["n_faults"] == 1
        assert result.total_time > 0

    def test_faulted_tuned_repair_keeps_serial_tuning(self):
        """A serial-tuning faulted cell is repaired with overlap off."""
        engine = PlanEngine(plan_cache=PlanCache())
        tuned = PlanRequest(
            "Swing", 8, 4096, n_wavelengths=8, t_tune=25e-6,
            faults=(("dead_wavelength", 1),),
        )
        serial = engine.evaluate(PlanRequest(**{**vars(tuned), "overlap": False}))
        overlapped = engine.evaluate(tuned)
        assert serial.meta["repair"] is True
        assert serial.total_time > overlapped.total_time

    def test_faulted_non_optical_rejected(self):
        engine = PlanEngine(plan_cache=PlanCache())
        with pytest.raises(ServiceRequestError):
            engine.evaluate(
                PlanRequest(
                    "Ring", 8, 4096, backend="electrical",
                    faults=(("dead_wavelength", 2),),
                )
            )

    def test_unknown_algorithm_rejected(self):
        engine = PlanEngine(plan_cache=PlanCache())
        with pytest.raises(ServiceRequestError):
            engine.evaluate(PlanRequest("Butterfly", 8, 4096))

    def test_unknown_backend_rejected(self):
        engine = PlanEngine(plan_cache=PlanCache())
        with pytest.raises(ServiceRequestError):
            engine.evaluate(PlanRequest("Ring", 8, 4096, backend="quantum"))

    def test_invalid_fault_set_rejected(self):
        engine = PlanEngine(plan_cache=PlanCache())
        with pytest.raises(ServiceRequestError):
            engine.evaluate(
                PlanRequest(
                    "WRHT", 8, 4096, n_wavelengths=8,
                    faults=(("dead_wavelength", 99),),  # out of budget
                )
            )

    def test_lowerings_fill_the_shared_cache(self):
        cache = PlanCache()
        engine = PlanEngine(plan_cache=cache)
        engine.evaluate(PlanRequest("WRHT", 8, 4096, n_wavelengths=8))
        assert len(cache) > 0
