"""Backend registry: name → factory for every schedule-pricing backend.

The three built-in backends register on import:

- ``"optical"`` — :class:`~repro.backend.optical.OpticalBackend` (WDM
  ring, RWA + reconfiguration rounds);
- ``"electrical"`` — :class:`~repro.backend.electrical.ElectricalBackend`
  (fat-tree, ECMP + max-min fluid flows);
- ``"analytic"`` — :class:`~repro.backend.analytic.AnalyticBackend`
  (closed forms, Eq 6 and equivalents).

Adding a backend is one module plus one :func:`register` call, after which
:func:`create` builds it and :func:`available` lists it (the CLI's
``--backend`` choices). Figure cells and service requests are built by
:meth:`repro.backend.cell.CellSpec.new_backend`, which maps a cell's N,
w, interpretation and tuning model onto each built-in backend's
constructor; a new backend needs a branch there to be priced as a cell.
"""

from __future__ import annotations

from typing import Callable

from repro.backend.analytic import AnalyticBackend
from repro.backend.base import Backend
from repro.backend.electrical import ElectricalBackend
from repro.backend.optical import OpticalBackend

_REGISTRY: dict[str, Callable[..., Backend]] = {}


def register(name: str, factory: Callable[..., Backend]) -> None:
    """Register ``factory`` (a Backend subclass or callable) under ``name``.

    Re-registering a name replaces the previous factory (useful in tests).
    """
    if not name:
        raise ValueError("backend name must be non-empty")
    _REGISTRY[name] = factory


def unregister(name: str) -> None:
    """Remove a registered backend (no-op if absent)."""
    _REGISTRY.pop(name, None)


def available() -> list[str]:
    """Registered backend names, sorted."""
    return sorted(_REGISTRY)


def get_factory(name: str) -> Callable[..., Backend]:
    """The factory registered under ``name``.

    Raises:
        KeyError: If no backend is registered under ``name``.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown backend {name!r}; available: {available()}"
        ) from None


def create(name: str, **kwargs) -> Backend:
    """Instantiate the backend registered under ``name``.

    ``kwargs`` are forwarded to the factory — e.g.
    ``create("optical", config=OpticalSystemConfig(...))``.
    """
    return get_factory(name)(**kwargs)


register("optical", OpticalBackend)
register("electrical", ElectricalBackend)
register("analytic", AnalyticBackend)
