"""The four workloads: seeded inputs and one pass over each.

A pass runs every operation of a workload once and records one *cell*
per result: ``{"values": {...}, "problems": [...]}``, or ``{"error": ...}``
when the operation raised. ``values`` are the simulated numbers (compared
against the seed-0 golden file and between passes); ``problems`` are
failed intrinsic checks (PLAN errors, live vs static disagreement).

Inputs come from ``--seed`` alone. Seed 0 is the paper's grid exactly. Any
other seed scales every payload by its own factor in [0.99, 1.01], which
changes chunk divisibility and so how many distinct step patterns get
lowered, and draws the live fault-event times in (0.2 T, 0.8 T).

Program modules are imported inside the functions, so importing this module
costs nothing and each workload's set-up imports only what it uses. Entry
points are looked up on their modules at call time, where the tracer's
wrappers sit.
"""

from __future__ import annotations

import importlib
import random
from dataclasses import dataclass
from typing import Callable

BYTES_PER_ELEM = 4.0

#: The paper's Fig 6 / Fig 7 grids (``repro.runner.experiments`` defaults).
FIG_NODES = {"fig6-paper": (1024, 2048, 3072, 4096), "fig7-paper": (128, 256, 512, 1024)}
FIG_SMOKE_NODES = {"fig6-paper": (64, 128), "fig7-paper": (16, 32)}
FIG_ALGOS = {
    "fig6-paper": ("Ring", "H-Ring", "BT", "WRHT"),
    "fig7-paper": ("E-Ring", "RD", "O-Ring", "WRHT"),
}
#: ``PAPER_WORKLOADS``: name and headline parameter count.
DNNS = (
    ("BEiT-L", 307_000_000),
    ("VGG16", 138_000_000),
    ("AlexNet", 62_300_000),
    ("ResNet50", 25_000_000),
)
SMOKE_DNNS = DNNS[2:]

#: The bake-off lineup: (cell label, registry name, builder kwargs).
LINEUP = (
    ("ring", "ring", {}),
    ("bt", "bt", {}),
    ("rd", "rd", {}),
    ("swing", "swing", {}),
    ("scring-p1", "scring", {"pipeline": 1}),
    ("scring-p4", "scring", {"pipeline": 4}),
    ("wrht", "wrht", {}),
)
#: (label, kind, wavelengths, t_tune). ``optical-w8-tune`` prices MRR
#: tuning, so every lowering races the reconfigure plan against the hold
#: plan, and its 8 wavelengths make long-chord steps spill into rounds.
BAKEOFF_BACKENDS = (
    ("optical-w64", "optical", 64, 0.0),
    ("optical-w8-tune", "optical", 8, 25e-6),
    ("electrical", "electrical", 64, 0.0),
)
BAKEOFF_NODES = {"optical": (64, 256), "electrical": (64,)}
BAKEOFF_PAYLOADS = (100_000, 25_000_000)

#: Fault sweep and incremental repair system, live-DES system, payload.
FAULT_SYSTEM, FAULT_SMOKE_SYSTEM = (128, 16), (16, 8)
LIVE_SYSTEM, LIVE_SMOKE_SYSTEM = (64, 16), (16, 8)
FAULT_ELEMS = 100_000
REPAIR_ALGOS = ("wrht", "swing", "rd")
LIVE_ALGOS = ("wrht", "ring", "swing", "rd")
LIVE_TOLERANCE = 1e-9


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _scaled(rng: random.Random, seed: int, n: int) -> int:
    return n if seed == 0 else max(1, round(n * rng.uniform(0.99, 1.01)))


def _cell(values: dict, problems: list[str] | None = None) -> dict:
    return {"values": values, "problems": problems or []}


class PassRecorder:
    """Collects the cells of one pass, one operation at a time."""

    def __init__(self) -> None:
        self.cells: dict[str, dict] = {}

    def run(self, cell_ids: list[str], fn: Callable[..., dict], *args) -> None:
        """Run one operation that yields ``cell_ids``; a raise fails them all."""
        try:
            produced = fn(*args)
        except Exception as exc:  # counted as failed operations, not fatal
            error = f"{type(exc).__name__}: {exc}"
            for cell_id in cell_ids:
                self.cells[cell_id] = {"error": error}
            return
        for cell_id in cell_ids:
            if cell_id not in produced:
                self.cells[cell_id] = {"error": "operation returned no result"}
        self.cells.update(produced)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload."""

    name: str
    why: str
    entry_modules: tuple[str, ...]
    make_inputs: Callable[[int, bool], dict]
    setup: Callable[[dict], None]
    run_pass: Callable[[dict, dict, PassRecorder, bool], None]

    def import_entry_modules(self) -> None:
        for module in self.entry_modules:
            importlib.import_module(module)


# -- fig6-paper / fig7-paper ------------------------------------------------


def _fig_inputs(figure: str) -> Callable[[int, bool], dict]:
    def make(seed: int, smoke: bool) -> dict:
        rng = _rng(figure, seed)
        return {
            "nodes": (FIG_SMOKE_NODES if smoke else FIG_NODES)[figure],
            "dnns": tuple(
                (name, _scaled(rng, seed, n)) for name, n in (SMOKE_DNNS if smoke else DNNS)
            ),
        }

    return make


def _fig_setup(figure: str) -> Callable[[dict], None]:
    def setup(inputs: dict) -> None:
        from repro.runner import experiments

        kinds = ("optical", "electrical") if figure == "fig7-paper" else ("optical",)
        for n in inputs["nodes"]:
            for kind in kinds:
                experiments.get_backend(
                    kind, n, experiments.DEFAULT_WAVELENGTHS, "calibrated"
                )

    return setup


def _fig_cells(figure: str, inputs: dict) -> dict:
    from repro.dnn.workload import DnnWorkload
    from repro.runner import experiments

    run = experiments.run_fig6 if figure == "fig6-paper" else experiments.run_fig7
    result = run(
        mode="simulated",
        nodes=inputs["nodes"],
        workloads=tuple(DnnWorkload(name, n) for name, n in inputs["dnns"]),
        workers=None,
    )
    return {
        f"{dnn}/{algo}/{n}": _cell({"total_s": seconds})
        for (dnn, algo), series in result.series.items()
        for n, seconds in zip(result.x_values, series)
    }


def _fig_pass(figure: str) -> Callable[[dict, dict, PassRecorder, bool], None]:
    def run_pass(inputs: dict, state: dict, rec: PassRecorder, cold: bool) -> None:
        cell_ids = [
            f"{dnn}/{algo}/{n}"
            for dnn, _ in inputs["dnns"]
            for algo in FIG_ALGOS[figure]
            for n in inputs["nodes"]
        ]
        rec.run(cell_ids, _fig_cells, figure, inputs)

    return run_pass


# -- bakeoff ----------------------------------------------------------------


def _bakeoff_inputs(seed: int, smoke: bool) -> dict:
    rng = _rng("bakeoff", seed)
    return {
        "backends": tuple(
            (label, kind, w, t_tune, n)
            for label, kind, w, t_tune in BAKEOFF_BACKENDS
            for n in ((16,) if smoke else BAKEOFF_NODES[kind])
        ),
        "payloads": tuple((nominal, _scaled(rng, seed, nominal)) for nominal in BAKEOFF_PAYLOADS),
    }


def _bakeoff_backend(kind: str, w: int, t_tune: float, n: int):
    from repro.backend import registry
    from repro.electrical.config import ElectricalSystemConfig
    from repro.optical.config import OpticalSystemConfig

    if kind == "electrical":
        return registry.create("electrical", config=ElectricalSystemConfig(n_nodes=n))
    return registry.create(
        "optical",
        config=OpticalSystemConfig(n_nodes=n, n_wavelengths=w, t_tune=t_tune),
    )


def _bakeoff_setup(inputs: dict) -> None:
    for _, kind, w, t_tune, n in inputs["backends"]:
        _bakeoff_backend(kind, w, t_tune, n)


def _bakeoff_cell(cell_id: str, backends: dict, spec: tuple, elems: int, algo: str,
                  kwargs: dict) -> dict:
    from repro.collectives import registry

    _, kind, w, t_tune, n = spec
    backend = backends.get(spec)
    if backend is None:
        backend = backends[spec] = _bakeoff_backend(kind, w, t_tune, n)
    if algo == "wrht":
        kwargs = {**kwargs, "n_wavelengths": w}
    schedule = registry.build_schedule(algo, n, elems, **kwargs)
    result = backend.run(schedule, bytes_per_elem=BYTES_PER_ELEM)
    return {cell_id: _cell({"total_s": result.total_time, "n_steps": result.n_steps})}


def _bakeoff_pass(inputs: dict, state: dict, rec: PassRecorder, cold: bool) -> None:
    backends: dict = {}  # built on first use in every pass, as a fresh script would
    for spec in inputs["backends"]:
        for nominal, elems in inputs["payloads"]:
            for label, algo, kwargs in LINEUP:
                cell_id = f"{spec[0]}/N{spec[4]}/e{nominal}/{label}"
                rec.run([cell_id], _bakeoff_cell, cell_id, backends, spec, elems, algo, kwargs)


# -- faults-live --------------------------------------------------------------


def _faults_inputs(seed: int, smoke: bool) -> dict:
    rng = _rng("faults-live", seed)
    elems = _scaled(rng, seed, FAULT_ELEMS)
    fracs = (1 / 3, 2 / 3) if seed == 0 else (rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8))
    return {
        "system": FAULT_SMOKE_SYSTEM if smoke else FAULT_SYSTEM,
        "live_system": LIVE_SMOKE_SYSTEM if smoke else LIVE_SYSTEM,
        "elems": elems,
        "fault_fracs": fracs,
    }


def _wrht_kwargs(algo: str, w: int) -> dict:
    return {"n_wavelengths": w} if algo == "wrht" else {}


def _repair_base(state: dict, inputs: dict):
    """The solution-keeping network repairs start from, built once per
    process: its kept solutions exist only for patterns it priced itself,
    which happens in the cold pass."""
    from repro.optical.config import OpticalSystemConfig
    from repro.optical.network import OpticalRingNetwork

    if "repair_base" not in state:
        n, w = inputs["system"]
        state["repair_base"] = OpticalRingNetwork(
            OpticalSystemConfig(n_nodes=n, n_wavelengths=w), keep_solutions=True
        )
    return state["repair_base"]


def _repairable(inputs: dict) -> list:
    from repro.runner import faultsweep

    n, w = inputs["system"]
    return [
        (name, faults)
        for name, faults in faultsweep.default_fault_scenarios(n, w).items()
        if not faults.dead_nodes and not faults.cut_segments
    ]


def _faults_setup(inputs: dict) -> None:
    from repro.optical.config import OpticalSystemConfig
    from repro.optical.livesim import LiveOpticalSimulation

    _repair_base({}, inputs)
    n, w = inputs["live_system"]
    LiveOpticalSimulation(OpticalSystemConfig(n_nodes=n, n_wavelengths=w))


def _repair_cells(inputs: dict, state: dict, algo: str, scenarios: list, verify: bool) -> dict:
    from repro.check import context, engine
    from repro.check.findings import errors
    from repro.collectives import registry

    n, w = inputs["system"]
    base = _repair_base(state, inputs)
    schedule = registry.build_schedule(algo, n, inputs["elems"], **_wrht_kwargs(algo, w))
    base.lower(schedule, BYTES_PER_ELEM)
    out = {}
    for name, faults in scenarios:
        plan, network = base.repair_plan(schedule, faults, bytes_per_elem=BYTES_PER_ELEM)
        problems = []
        if verify:
            ctx = context.optical_context(network, schedule, plan, bytes_per_elem=BYTES_PER_ELEM)
            n_errors = len(errors(engine.verify_plan(context=ctx)))
            if n_errors:
                problems.append(f"{n_errors} PLAN error(s)")
        total = network.execute_plan(plan).total_time
        out[f"repair/{algo}/{name}"] = _cell({"total_s": total}, problems)
    return out


def _sweep_cells(inputs: dict) -> dict:
    from repro.runner import faultsweep

    n, w = inputs["system"]
    results = faultsweep.run_fault_sweep(
        n_nodes=n, n_wavelengths=w, total_elems=inputs["elems"],
        backends=("optical", "analytic"), bytes_per_elem=BYTES_PER_ELEM, verify=True,
    )
    return {
        f"sweep/{r.scenario}/{r.backend}": _cell(
            {"healthy_s": r.healthy_time, "degraded_s": r.degraded_time},
            [f"{r.n_errors} PLAN error(s)"] if r.n_errors else [],
        )
        for r in results
    }


def _live_cells(inputs: dict, algo: str) -> dict:
    from repro.collectives import registry
    from repro.faults.models import DeadWavelength, FaultEvent, MrrPortFault
    from repro.optical.config import OpticalSystemConfig
    from repro.optical.livesim import LiveOpticalSimulation
    from repro.optical.network import OpticalRingNetwork

    n, w = inputs["live_system"]
    config = OpticalSystemConfig(n_nodes=n, n_wavelengths=w)
    schedule = registry.build_schedule(
        algo, n, inputs["elems"], materialize=True, **_wrht_kwargs(algo, w)
    )
    network = OpticalRingNetwork(config)
    static_s = network.execute_plan(network.lower(schedule, BYTES_PER_ELEM)).total_time
    healthy = LiveOpticalSimulation(config).run(schedule, BYTES_PER_ELEM)
    problems = []
    if abs(healthy.total_time - static_s) > LIVE_TOLERANCE * static_s:
        problems.append(
            f"live total {healthy.total_time!r} differs from static {static_s!r}"
        )
    first, second = (frac * healthy.total_time for frac in inputs["fault_fracs"])
    events = (
        FaultEvent(first, DeadWavelength(0)),
        FaultEvent(second, MrrPortFault(node=1, wavelength=1, mode="stuck")),
    )
    faulted = LiveOpticalSimulation(config, fault_events=events, repair=True).run(
        schedule, BYTES_PER_ELEM
    )
    return {
        f"live/{algo}/healthy": _cell(
            {"total_s": healthy.total_time, "n_events": healthy.n_events}, problems
        ),
        f"live/{algo}/faulted": _cell({
            "total_s": faulted.total_time,
            "n_events": faulted.n_events,
            "n_retries": faulted.n_retries,
        }),
    }


def _faults_pass(inputs: dict, state: dict, rec: PassRecorder, cold: bool) -> None:
    from repro.runner import faultsweep

    n, w = inputs["system"]
    scenarios = _repairable(inputs)
    # Repairs run first so the base network prices (and keeps solutions
    # for) its patterns before the sweep caches the same WRHT patterns.
    # Repaired plans are verified in the cold pass; warm passes replay
    # them from the plan cache, and bit-identity to cold covers them.
    for algo in REPAIR_ALGOS:
        cell_ids = [f"repair/{algo}/{name}" for name, _ in scenarios]
        rec.run(cell_ids, _repair_cells, inputs, state, algo, scenarios, cold)
    sweep_ids = [
        f"sweep/{name}/{backend}"
        for name in faultsweep.default_fault_scenarios(n, w)
        for backend in ("optical", "analytic")
    ]
    rec.run(sweep_ids, _sweep_cells, inputs)
    for algo in LIVE_ALGOS:
        rec.run([f"live/{algo}/healthy", f"live/{algo}/faulted"], _live_cells, inputs, algo)


WORKLOADS: dict[str, Workload] = {
    "fig7-paper": Workload(
        "fig7-paper",
        "slowest figure; electrical max-min filling carries most of its time, "
        "so it is the mechanism workload for the fluid-model fast path",
        ("repro.runner.experiments",),
        _fig_inputs("fig7-paper"), _fig_setup("fig7-paper"), _fig_pass("fig7-paper"),
    ),
    "fig6-paper": Workload(
        "fig6-paper",
        "optical lowering only (validation, routing, RWA) with zero electrical "
        "calls, so an electrical change must not move it",
        ("repro.runner.experiments",),
        _fig_inputs("fig6-paper"), _fig_setup("fig6-paper"), _fig_pass("fig6-paper"),
    ),
    "bakeoff": Workload(
        "bakeoff",
        "seven collectives on three backends: long chords and 8 wavelengths make "
        "RWA multi-round, tuning runs reconfigure-vs-hold, warm pass rebuilds schedules",
        ("repro.backend.registry", "repro.collectives.registry"),
        _bakeoff_inputs, _bakeoff_setup, _bakeoff_pass,
    ),
    "faults-live": Workload(
        "faults-live",
        "the only workload where verification, incremental repair, the live DES "
        "and fault handling carry the time",
        (
            "repro.runner.faultsweep", "repro.optical.livesim",
            "repro.check.context", "repro.check.engine", "repro.collectives.registry",
        ),
        _faults_inputs, _faults_setup, _faults_pass,
    ),
}
