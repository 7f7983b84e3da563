"""Per-layer spans, recorded from the benchmark's own files.

The tracer wraps the public entry point of each layer (:data:`SPANS`)
wherever the program reaches it: on the class for methods, and for
functions in the defining module plus every module that imported the name.
Nothing under ``src/`` changes, and :func:`instrument` removes every
wrapper on exit, so an untraced run in the same process pays nothing.

A span's self time is its duration minus the time its child spans cover.
A span opened directly inside one of the same name (``OpticalBackend.
execute`` calling ``OpticalRingNetwork.execute_plan``) folds into the outer
one. ``backend.run`` is the cell boundary: every span it encloses carries
its cell id.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator

#: Span name -> the ``module:qualname`` entry points it times. The substrate
#: lowering (``*Network.lower``) is the ``backend.<name>.lower`` span: the
#: backends reach it through ``choose_plan`` (optical) or directly, and the
#: fault sweep and incremental repair call it without a backend.
SPANS: dict[str, tuple[str, ...]] = {
    "runner.figure": (
        "repro.runner.experiments:run_fig6",
        "repro.runner.experiments:run_fig7",
    ),
    "backend.run": ("repro.backend.base:Backend.run",),
    "collectives.build": (
        "repro.collectives.registry:build_schedule",
        "repro.collectives.degraded:build_shrunk_schedule",
        "repro.faults.replan:build_degraded_wrht_schedule",
    ),
    "backend.optical.lower": ("repro.optical.network:OpticalRingNetwork.lower",),
    "backend.electrical.lower": ("repro.electrical.network:ElectricalNetwork.lower",),
    "backend.analytic.lower": ("repro.backend.analytic:AnalyticBackend.lower",),
    "backend.execute": (
        "repro.backend.optical:OpticalBackend.execute",
        "repro.backend.electrical:ElectricalBackend.execute",
        "repro.backend.analytic:AnalyticBackend.execute",
        "repro.optical.network:OpticalRingNetwork.execute_plan",
        "repro.electrical.network:ElectricalNetwork.execute_plan",
    ),
    "optical.reconfig.choose_plan": ("repro.optical.reconfig:choose_plan",),
    "optical.plan_step_rounds": (
        "repro.optical.network:OpticalRingNetwork.plan_step_rounds",
    ),
    "rwa.plan_rounds": ("repro.optical.rwa:plan_rounds",),
    "optical.repair_rounds": ("repro.optical.repair:repair_rounds",),
    "optical.validate_no_conflicts": ("repro.optical.circuit:validate_no_conflicts",),
    "optical.validate_node_constraints": (
        "repro.optical.node:validate_node_constraints",
    ),
    "electrical.route": ("repro.electrical.routing:route",),
    "electrical.fluid_run": ("repro.electrical.flows:FluidSimulation.run",),
    "electrical.maxmin": ("repro.electrical.flows:max_min_rates",),
    "check.optical_context": ("repro.check.context:optical_context",),
    "check.verify_plan": ("repro.check.engine:verify_plan",),
    "sim.live_run": ("repro.optical.livesim:LiveOpticalSimulation.run",),
    "plancache.get": ("repro.backend.plancache:PlanCache.get",),
    "plancache.put": ("repro.backend.plancache:PlanCache.put",),
}

CELL_SPAN = "backend.run"

_MARK = "__e2e_original__"


def _n_errors(findings) -> int:
    from repro.check.findings import errors

    return len(errors(findings))


#: Span name -> counts taken from a completed call's (args, kwargs, result).
_COUNTS: dict[str, Callable[[tuple, dict, object], dict[str, int]]] = {
    "rwa.plan_rounds": lambda a, k, r: {"rwa.rounds": len(r)},
    "electrical.maxmin": lambda a, k, r: {
        "electrical.maxmin.flows": len(a[0] if a else k["flows"])
    },
    "sim.live_run": lambda a, k, r: {"sim.events": r.n_events},
    "check.verify_plan": lambda a, k, r: {"check.errors": _n_errors(r)},
    "plancache.get": lambda a, k, r: {
        "plancache.misses" if r is None else "plancache.hits": 1
    },
}


@dataclass
class LayerStats:
    """Calls and times of one span name within one phase."""

    calls: int = 0
    cum_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Nested spans with self/cumulative time, split by phase.

    ``phase`` names the pass being traced (``"cold"``, ``"warm"``); change
    it only between passes. With ``record=True`` every span is also kept as
    a dict (name, phase, parent index, cell id, start, end) for
    ``--trace-out``.
    """

    def __init__(
        self, clock: Callable[[], float] = time.perf_counter, record: bool = False
    ) -> None:
        self._clock = clock
        self._stack: list[list] = []  # [name, start, child_s, index, outer cell]
        self._open: Counter[str] = Counter()
        self._cell: int | None = None
        self._n_cells = 0
        self.phase = "cold"
        self.layers: dict[str, dict[str, LayerStats]] = {}
        self.counts: dict[str, Counter[str]] = {}
        self.spans: list[dict] | None = [] if record else None

    @property
    def innermost(self) -> str | None:
        """Name of the innermost open span."""
        return self._stack[-1][0] if self._stack else None

    def enter(self, name: str) -> None:
        """Open a span."""
        outer_cell = self._cell
        if name == CELL_SPAN:
            self._n_cells += 1
            self._cell = self._n_cells
        index = None
        if self.spans is not None:
            index = len(self.spans)
            self.spans.append({
                "name": name,
                "phase": self.phase,
                "parent": self._stack[-1][3] if self._stack else None,
                "cell": self._cell,
                "start": None,
                "end": None,
            })
        self._open[name] += 1
        start = self._clock()
        if index is not None:
            self.spans[index]["start"] = start
        self._stack.append([name, start, 0.0, index, outer_cell])

    def exit(self) -> None:
        """Close the innermost span."""
        end = self._clock()
        name, start, child_s, index, outer_cell = self._stack.pop()
        duration = end - start
        self._open[name] -= 1
        stats = self.layers.setdefault(self.phase, {}).setdefault(name, LayerStats())
        stats.calls += 1
        stats.self_s += duration - child_s
        if not self._open[name]:
            stats.cum_s += duration  # outermost only, so recursion counts once
        if self._stack:
            self._stack[-1][2] += duration
        if index is not None:
            self.spans[index]["end"] = end
        self._cell = outer_cell

    def count(self, name: str, n: int) -> None:
        """Add ``n`` to a counter of the current phase."""
        self.counts.setdefault(self.phase, Counter())[name] += n

    def stats(self, phase: str, name: str) -> LayerStats:
        """Totals of one span in one phase (zeros when never entered)."""
        return self.layers.get(phase, {}).get(name, LayerStats())

    def self_total(self, phase: str) -> float:
        """Summed self time of every span in ``phase``."""
        return sum(s.self_s for s in self.layers.get(phase, {}).values())


def _wrap(tracer: Tracer, name: str, fn: Callable) -> Callable:
    counts = _COUNTS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.innermost == name:
            return fn(*args, **kwargs)
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if counts is not None:
            for counter, n in counts(args, kwargs, result).items():
                tracer.count(counter, n)
        return result

    setattr(wrapper, _MARK, fn)
    return wrapper


def _program_modules() -> list:
    """Loaded modules of the program under test."""
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _resolve(target: str) -> tuple[object, str, Callable]:
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = vars(owner)[attr]
    if not callable(original):
        raise TypeError(f"{target} is not a plain function")
    return owner, attr, original


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every entry point in :data:`SPANS` for the ``with`` body."""
    resolved = [
        (name, *_resolve(target)) for name, targets in SPANS.items() for target in targets
    ]
    modules = _program_modules()
    patched: list[tuple[object, str, Callable]] = []
    try:
        for name, owner, attr, original in resolved:
            wrapper = _wrap(tracer, name, original)
            sites = [(owner, attr)]
            if not isinstance(owner, type):
                sites += [
                    (module, alias)
                    for module in modules
                    if module is not owner
                    for alias, value in vars(module).items()
                    if value is original
                ]
            for site, alias in sites:
                setattr(site, alias, wrapper)
                patched.append((site, alias, original))
        yield tracer
    finally:
        for site, alias, original in reversed(patched):
            setattr(site, alias, original)
        # A module first imported inside the body bound the wrapper itself.
        for module in _program_modules():
            for alias, value in list(vars(module).items()):
                original = getattr(value, _MARK, None)
                if original is not None:
                    setattr(module, alias, original)


def installed_wrappers() -> list[str]:
    """Every ``module.name`` or ``Class.name`` still bound to a wrapper."""
    found = []
    for module in _program_modules():
        for alias, value in vars(module).items():
            if getattr(value, _MARK, None) is not None:
                found.append(f"{module.__name__}.{alias}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                found += [
                    f"{module.__name__}.{alias}.{attr}"
                    for attr, member in vars(value).items()
                    if getattr(member, _MARK, None) is not None
                ]
    return found


def _ratio(counts: Counter[str]) -> float:
    lookups = counts["plancache.hits"] + counts["plancache.misses"]
    return counts["plancache.hits"] / lookups if lookups else 0.0


def layer_metrics(tracer: Tracer, traced_cold_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of a traced run, as ``name -> (value, unit)``.

    Span metrics without a prefix are the cold pass; ``warm.`` ones the
    first warm pass. ``trace.overhead_frac`` needs an untraced run and is
    added by the caller.
    """
    cold = tracer.counts.get("cold", Counter())
    warm = tracer.counts.get("warm", Counter())
    out: dict[str, tuple[float, str]] = {}
    for name in SPANS:
        stats = tracer.stats("cold", name)
        out[f"{name}.calls"] = (stats.calls, "count")
        out[f"{name}.self_s"] = (stats.self_s, "s")
        out[f"{name}.cum_s"] = (stats.cum_s, "s")
    for name in SPANS:
        stats = tracer.stats("warm", name)
        out[f"warm.{name}.calls"] = (stats.calls, "count")
        out[f"warm.{name}.self_s"] = (stats.self_s, "s")
    live_s = tracer.stats("cold", "sim.live_run").cum_s
    out.update({
        "plancache.hits": (cold["plancache.hits"], "count"),
        "plancache.misses": (cold["plancache.misses"], "count"),
        "plancache.cold_hit_ratio": (_ratio(cold), "ratio"),
        "plancache.warm_hit_ratio": (_ratio(warm), "ratio"),
        "rwa.rounds": (cold["rwa.rounds"], "count"),
        "electrical.maxmin.flows": (cold["electrical.maxmin.flows"], "count"),
        "sim.events": (cold["sim.events"], "count"),
        "sim.events_per_s": (cold["sim.events"] / live_s if live_s else 0.0, "1/s"),
        "check.errors": (cold["check.errors"] + warm["check.errors"], "count"),
        "trace.cold_s": (traced_cold_s, "s"),
        "trace.unattributed_s": (traced_cold_s - tracer.self_total("cold"), "s"),
    })
    return out
