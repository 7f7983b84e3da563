"""CellSpec: the one cell -> backend/schedule factory, and the figure mapping."""

import pickle

import pytest

from repro.backend.analytic import AnalyticBackend
from repro.backend.cell import CellSpec
from repro.backend.electrical import ElectricalBackend
from repro.backend.optical import OpticalBackend
from repro.dnn.workload import DnnWorkload
from repro.electrical.config import ElectricalSystemConfig
from repro.faults.models import DeadWavelength, FaultSet
from repro.obs.metrics import MetricsRegistry
from repro.optical.config import OpticalSystemConfig
from repro.runner.experiments import DEFAULT_WAVELENGTHS, figure_cell


class TestCellSpec:
    def test_backends_by_name(self):
        assert isinstance(CellSpec("Ring", 8, 64).new_backend(), OpticalBackend)
        spec = CellSpec("Ring", 8, 64, backend="electrical")
        assert isinstance(spec.new_backend(), ElectricalBackend)
        spec = CellSpec("Ring", 8, 64, backend="analytic")
        assert isinstance(spec.new_backend(), AnalyticBackend)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="no cell backend"):
            CellSpec("Ring", 8, 64, backend="quantum").new_backend()

    def test_tuning_model_reaches_the_backend(self):
        spec = CellSpec("Ring", 8, 64, t_tune=25e-6, overlap=False)
        backend = spec.new_backend()
        assert backend.config.t_tune == 25e-6
        assert backend.network.overlap is False
        analytic = CellSpec(
            "Ring", 8, 64, backend="analytic", t_tune=25e-6, overlap=False
        ).new_backend()
        assert analytic.reconfig.t_tune == 25e-6
        assert analytic.overlap is False

    def test_metrics_bound(self):
        metrics = MetricsRegistry()
        assert CellSpec("Ring", 8, 64).new_backend(metrics=metrics).metrics is metrics

    def test_configs(self):
        spec = CellSpec("Ring", 8, 64, n_wavelengths=4, interpretation="strict")
        assert spec.config() == OpticalSystemConfig(
            n_nodes=8, n_wavelengths=4, interpretation="strict"
        )
        spec = CellSpec("Ring", 8, 64, backend="electrical")
        assert spec.config() == ElectricalSystemConfig(n_nodes=8)

    def test_faults_ride_on_the_optical_config(self):
        spec = CellSpec("Ring", 8, 64, n_wavelengths=4, faults=(DeadWavelength(1),))
        assert spec.faults == FaultSet.of(DeadWavelength(1))
        assert spec.config().faults == spec.faults
        with pytest.raises(ValueError):
            CellSpec("Ring", 8, 64, n_wavelengths=4, faults=(DeadWavelength(9),)).config()
        with pytest.raises(ValueError, match="no fault set"):
            CellSpec(
                "Ring", 8, 64, backend="electrical", faults=(DeadWavelength(1),)
            ).config()

    def test_builder_kwargs(self):
        wrht = CellSpec("WRHT", 16, 256, n_wavelengths=2, m=3).schedule()
        assert wrht.meta["plan"].m == 3
        hring = CellSpec("H-Ring", 16, 256, hring_m=4).schedule()
        assert hring.meta["m"] == 4
        assert CellSpec("Ring", 16, 256).schedule().n_steps == 2 * (16 - 1)

    def test_tuning_fields_validated(self):
        with pytest.raises(ValueError):
            CellSpec("Ring", 8, 64, t_tune=-1e-6)
        with pytest.raises(TypeError):
            CellSpec("Ring", 8, 64, overlap=1)

    def test_backend_key_ignores_schedule_fields(self):
        a = CellSpec("Ring", 8, 64)
        assert a.backend_key == CellSpec("WRHT", 8, 999, m=3).backend_key
        assert a.backend_key != CellSpec("Ring", 8, 64, t_tune=1e-6).backend_key

    def test_hashable_and_picklable(self):
        spec = CellSpec("WRHT", 8, 64, faults=(DeadWavelength(1),))
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert hash(spec) == hash(CellSpec("WRHT", 8, 64, faults=(DeadWavelength(1),)))


class TestFigureCell:
    WL = DnnWorkload("cell", 1000, 2)

    def test_payload_from_workload(self):
        spec = figure_cell("fig6", 64, "Ring", self.WL)
        assert (spec.n_params, spec.bytes_per_elem) == (1000, 2)

    def test_axes(self):
        assert figure_cell("fig4", 17, "WRHT", self.WL).m == 17
        fig5 = figure_cell("fig5", 4, "WRHT", self.WL, n_nodes=16)
        assert (fig5.n_nodes, fig5.n_wavelengths, fig5.m) == (16, 4, 9)
        fig6 = figure_cell("fig6", 64, "WRHT", self.WL)
        assert (fig6.n_nodes, fig6.m) == (64, None)

    def test_mode_picks_backend(self):
        assert figure_cell("fig6", 8, "Ring", self.WL).backend == "analytic"
        spec = figure_cell("fig6", 8, "Ring", self.WL, mode="simulated")
        assert spec.backend == "optical"

    def test_fig7_electrical_flavors_are_untuned(self):
        spec = figure_cell(
            "fig7", 16, "E-Ring", self.WL, mode="simulated", n_wavelengths=8,
            t_tune=25e-6, overlap=False,
        )
        assert (spec.algorithm, spec.backend) == ("Ring", "electrical")
        assert (spec.n_wavelengths, spec.t_tune, spec.overlap) == (
            DEFAULT_WAVELENGTHS, 0.0, True
        )
        optical = figure_cell(
            "fig7", 16, "O-Ring", self.WL, mode="simulated", t_tune=25e-6
        )
        assert (optical.algorithm, optical.backend, optical.t_tune) == (
            "Ring", "optical", 25e-6
        )

    def test_forced_backend_covers_every_flavor(self):
        spec = figure_cell("fig7", 16, "RD", self.WL, backend="analytic")
        assert (spec.algorithm, spec.backend) == ("RD", "analytic")

    def test_unknown_figure_and_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown figure"):
            figure_cell("fig9", 16, "Ring", self.WL)
        with pytest.raises(ValueError, match="unknown backend"):
            figure_cell("fig6", 16, "Ring", self.WL, backend="quantum")
