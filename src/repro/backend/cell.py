"""One cell specification: the single place a cell becomes a backend and a schedule.

Every number the reproduction reports is a *cell*: one algorithm at some
N, w and payload, priced on one backend. :class:`CellSpec` names a cell
completely, and its two factories are the only code that turns one into
runnable parts:

- :meth:`CellSpec.new_backend` — ``(backend, N, w, interpretation,
  t_tune, overlap, faults)`` to a fresh backend instance;
- :meth:`CellSpec.schedule` — the per-algorithm builder kwargs (WRHT gets
  ``w`` and ``m``, H-Ring gets ``hring_m``), never materialized.

The figure runners (:func:`repro.runner.experiments.figure_cell`), the
planning service (whose :class:`~repro.service.api.PlanRequest` is this
spec's wire encoding), ``wrht-repro obs`` and the golden-plan verifier all
go through it, so one cell prices bit-identically on every path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.faults.models import FaultSet
from repro.obs.metrics import NULL_METRICS, MetricsRegistry


@dataclass(frozen=True)
class CellSpec:
    """One priced cell (frozen, hashable, picklable into sweep workers).

    Attributes:
        algorithm: Collective display name (``"WRHT"``, ``"H-Ring"``, ...).
        n_nodes: Topology size N.
        n_params: Payload elements to all-reduce.
        backend: Pricing backend name (``optical``/``electrical``/
            ``analytic``).
        n_wavelengths: Wavelength budget w (optical/analytic; WRHT's
            schedule reads it too).
        interpretation: Line-rate units (``calibrated``/``strict``).
        bytes_per_elem: Element width in bytes.
        m: WRHT group size (``None``: Lemma-1 optimal).
        hring_m: H-Ring group size (the paper's figures use 5).
        t_tune: MRR tuning time per retune (0 disables the model).
        overlap: Let tuning race the previous round's transmission.
        faults: The fault set the cell is planned under.
    """

    algorithm: str
    n_nodes: int
    n_params: int
    backend: str = "optical"
    n_wavelengths: int = 64
    interpretation: str = "calibrated"
    bytes_per_elem: float = 4.0
    m: int | None = None
    hring_m: int = 5
    t_tune: float = 0.0
    overlap: bool = True
    faults: FaultSet = field(default_factory=FaultSet)

    def __post_init__(self) -> None:
        if not self.t_tune >= 0:
            raise ValueError(f"t_tune must be >= 0, got {self.t_tune!r}")
        if not isinstance(self.overlap, bool):
            raise TypeError(f"overlap must be a bool, got {self.overlap!r}")
        if not isinstance(self.faults, FaultSet):
            object.__setattr__(self, "faults", FaultSet(tuple(self.faults)))

    @property
    def backend_key(self) -> tuple:
        """The fields :meth:`new_backend` reads: equal keys, equal backends."""
        return (
            self.backend, self.n_nodes, self.n_wavelengths, self.interpretation,
            self.t_tune, self.overlap, self.faults,
        )

    def config(self):
        """The substrate config the cell's backend is built from.

        The optical ring's for ``optical`` and ``analytic`` (whose closed
        forms price its cost model), the fat-tree's for ``electrical``.
        The fault set rides on the optical config, which validates it.

        Raises:
            ValueError: Invalid sizes or fault set, or faults on the
                electrical fat-tree (its config carries none).
        """
        if self.backend == "electrical":
            from repro.electrical.config import ElectricalSystemConfig

            if self.faults:
                raise ValueError("the electrical fat-tree config carries no fault set")
            return ElectricalSystemConfig(
                n_nodes=self.n_nodes, interpretation=self.interpretation
            )
        from repro.optical.config import OpticalSystemConfig

        return OpticalSystemConfig(
            n_nodes=self.n_nodes,
            n_wavelengths=self.n_wavelengths,
            interpretation=self.interpretation,
            t_tune=self.t_tune,
            faults=self.faults,
        )

    def new_backend(self, plan_cache=None, metrics: MetricsRegistry = NULL_METRICS):
        """A fresh backend instance for this cell (callers cache it).

        Args:
            plan_cache: Cache behind every ``lower()`` (default: the
                process-wide one).
            metrics: Observability registry bound to the backend.

        Raises:
            ValueError: Unknown backend name, or an invalid config.
        """
        from repro.backend import registry

        common = {"plan_cache": plan_cache, "metrics": metrics}
        if self.backend == "optical":
            return registry.create(
                "optical", config=self.config(), overlap=self.overlap, **common
            )
        if self.backend == "electrical":
            return registry.create("electrical", config=self.config(), **common)
        if self.backend == "analytic":
            config = self.config()
            return registry.create(
                "analytic",
                model=config.cost_model(),
                w=self.n_wavelengths,
                reconfig=config.reconfig,
                overlap=self.overlap,
                faults=config.faults,
                **common,
            )
        raise ValueError(
            f"no cell backend {self.backend!r}; "
            "supported: optical, electrical, analytic"
        )

    def schedule(self):
        """The cell's schedule (never materialized).

        Raises:
            ValueError: Unknown algorithm or builder arguments.
        """
        from repro.collectives.registry import build_schedule

        kwargs: dict = {"materialize": False}
        if self.algorithm == "WRHT":
            kwargs.update(n_wavelengths=self.n_wavelengths, m=self.m)
        elif self.algorithm == "H-Ring":
            kwargs.update(m=self.hring_m)
        return build_schedule(self.algorithm, self.n_nodes, self.n_params, **kwargs)
