"""Tests of the end-to-end benchmark itself: the tracer's arithmetic and
wrapping, the workload split the prediction table relies on, seeding, and
failure counting. Run with ``PYTHONPATH=src pytest benchmarks/e2e``."""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import checks, run, worker
from benchmarks.e2e.trace import SPANS, Tracer, _wrap, installed_wrappers, instrument
from benchmarks.e2e.workloads import DNNS, WORKLOADS, PassRecorder

ROOT = Path(__file__).resolve().parents[2]
ALL = tuple(WORKLOADS)
FIGS_AND_BAKEOFF = ("fig6-paper", "fig7-paper", "bakeoff")

#: The README's prediction table: span -> workloads where it must be called.
HEAVY = {
    "electrical.maxmin": ("fig7-paper", "bakeoff"),
    "electrical.fluid_run": ("fig7-paper", "bakeoff"),
    "optical.validate_no_conflicts": ("fig6-paper", "bakeoff"),
    "rwa.plan_rounds": ("bakeoff",),
    "optical.repair_rounds": ("faults-live",),
    "sim.live_run": ("faults-live",),
    "check.verify_plan": ("faults-live",),
    "collectives.build": ("bakeoff",),
    "optical.reconfig.choose_plan": ("bakeoff",),
    "backend.execute": ALL,
}
#: Span -> workloads that must never reach it.
NEVER = {
    "electrical.maxmin": ("fig6-paper", "faults-live"),
    "electrical.fluid_run": ("fig6-paper", "faults-live"),
    "optical.repair_rounds": FIGS_AND_BAKEOFF,
    "sim.live_run": FIGS_AND_BAKEOFF,
    "check.verify_plan": FIGS_AND_BAKEOFF,
}


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@contextlib.contextmanager
def _fresh_caches():
    """A fresh plan cache and no cached backends, as in a new process."""
    from repro.backend.plancache import PlanCache, set_default_plan_cache
    from repro.runner.experiments import clear_network_caches

    previous = set_default_plan_cache(PlanCache())
    clear_network_caches()
    try:
        yield
    finally:
        set_default_plan_cache(previous)
        clear_network_caches()


@pytest.fixture
def fresh_process():
    with _fresh_caches():
        yield


@pytest.fixture(scope="module")
def smoke_traces():
    """Each workload's smoke grid, traced cold and warm, from a fresh cache."""
    traces = {}
    for name, workload in WORKLOADS.items():
        with _fresh_caches():
            workload.import_entry_modules()
            tracer = Tracer()
            result = worker.measure(workload, workload.make_inputs(0, True), 0.0, tracer)
            traces[name] = (tracer, result)
    return traces


def _drive(tracer: Tracer, clock: FakeClock, events: list) -> None:
    for t, name in events:
        clock.now = t
        if name is None:
            tracer.exit()
        else:
            tracer.enter(name)


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    # outer [0,10] > a [1,4]; outer > b [5,9] > c [6,7]
    _drive(tracer, clock, [
        (0, "outer"), (1, "a"), (4, None), (5, "b"), (6, "c"), (7, None),
        (9, None), (10, None),
    ])
    stats = {name: tracer.stats("cold", name) for name in ("outer", "a", "b", "c")}
    assert [stats[n].self_s for n in ("outer", "a", "b", "c")] == [3, 3, 3, 1]
    assert [stats[n].cum_s for n in ("outer", "a", "b", "c")] == [10, 3, 4, 1]
    assert tracer.self_total("cold") == 10


def test_recursive_span_counts_cumulative_time_once():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    # x [0,10] > y [2,8] > x [3,5]
    _drive(tracer, clock, [(0, "x"), (2, "y"), (3, "x"), (5, None), (8, None), (10, None)])
    x, y = tracer.stats("cold", "x"), tracer.stats("cold", "y")
    assert (x.calls, x.self_s, x.cum_s) == (2, 6, 10)
    assert (y.self_s, y.cum_s) == (4, 6)
    assert tracer.self_total("cold") == 10


def test_direct_self_nesting_folds_and_phases_split():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    inner = _wrap(tracer, "s", lambda: 1)
    outer = _wrap(tracer, "s", lambda: inner() + 1)
    assert outer() == 2
    tracer.phase = "warm"
    outer()
    assert tracer.stats("cold", "s").calls == 1
    assert tracer.stats("warm", "s").calls == 1


def test_cell_ids_follow_backend_run():
    tracer = Tracer(record=True)
    for _ in range(2):
        tracer.enter("backend.run")
        tracer.enter("plancache.get")
        tracer.exit()
        tracer.exit()
    tracer.enter("plancache.get")
    tracer.exit()
    assert [(s["name"], s["cell"]) for s in tracer.spans] == [
        ("backend.run", 1), ("plancache.get", 1),
        ("backend.run", 2), ("plancache.get", 2), ("plancache.get", None),
    ]
    assert tracer.spans[1]["parent"] == 0


def test_wrappers_are_removed_after_a_traced_pass(fresh_process):
    import repro.optical.network as network
    from repro.backend.plancache import PlanCache

    workload = WORKLOADS["fig6-paper"]
    workload.import_entry_modules()
    inputs = workload.make_inputs(0, True)
    tracer = Tracer()
    with instrument(tracer):
        assert hasattr(network.plan_rounds, "__e2e_original__")
        assert hasattr(PlanCache.get, "__e2e_original__")
        workload.run_pass(inputs, {}, PassRecorder(), True)
    assert installed_wrappers() == []
    calls = tracer.stats("cold", "rwa.plan_rounds").calls
    assert calls > 0
    workload.run_pass(inputs, {}, PassRecorder(), True)
    assert tracer.stats("cold", "rwa.plan_rounds").calls == calls


@pytest.mark.parametrize("span", sorted(HEAVY))
def test_predicted_span_is_called_on_its_heavy_workloads(smoke_traces, span):
    for name in HEAVY[span]:
        assert smoke_traces[name][0].stats("cold", span).calls >= 1, name


@pytest.mark.parametrize("span", sorted(NEVER))
def test_bypassing_workloads_never_reach_the_span(smoke_traces, span):
    for name in NEVER[span]:
        assert smoke_traces[name][0].stats("cold", span).calls == 0, name


def test_every_span_is_reached_by_some_workload(smoke_traces):
    dead = [
        span for span in SPANS
        if not any(t.stats("cold", span).calls for t, _ in smoke_traces.values())
    ]
    assert dead == []


def test_traced_passes_stay_correct(smoke_traces):
    golden = checks.load_golden()
    for name, (tracer, result) in smoke_traces.items():
        verdict = checks.score(result["passes"], golden[checks.golden_key(name, True)])
        assert verdict["failed"] == 0, verdict["failures"]
        assert tracer.self_total("cold") <= result["cold_s"]
        assert tracer.stats("warm", "backend.execute").calls >= 1


@pytest.mark.parametrize("name", ALL)
def test_seed_determines_inputs(name):
    make = WORKLOADS[name].make_inputs
    for smoke in (False, True):
        assert make(3, smoke) == make(3, smoke)
        assert make(3, smoke) != make(4, smoke)
        assert make(0, smoke) == make(0, smoke)


def test_seed_zero_is_the_paper_grid_and_other_seeds_scale_by_one_percent():
    assert WORKLOADS["fig7-paper"].make_inputs(0, False)["dnns"] == DNNS
    assert WORKLOADS["fig6-paper"].make_inputs(0, False)["nodes"] == (1024, 2048, 3072, 4096)
    assert WORKLOADS["faults-live"].make_inputs(0, False)["fault_fracs"] == (1 / 3, 2 / 3)
    for seed in range(1, 20):
        scaled = WORKLOADS["fig7-paper"].make_inputs(seed, False)["dnns"]
        for (name, n), (paper_name, paper_n) in zip(scaled, DNNS):
            assert name == paper_name
            assert 0.99 * paper_n <= n <= 1.01 * paper_n
        fracs = WORKLOADS["faults-live"].make_inputs(seed, False)["fault_fracs"]
        assert all(0.2 < f < 0.8 for f in fracs)


def _smoke_passes(name: str) -> list[dict]:
    workload = WORKLOADS[name]
    workload.import_entry_modules()
    return worker.measure(workload, workload.make_inputs(0, True), 0.0, None)["passes"]


def test_clean_smoke_run_matches_the_golden_file(fresh_process):
    passes = _smoke_passes("fig7-paper")
    verdict = checks.score(passes, checks.load_golden()["fig7-paper@smoke"])
    assert verdict["failed"] == 0
    assert verdict["golden"]["exact"] == verdict["golden"]["cells"] == 16


def test_injected_golden_mismatch_raises_fail_frac(fresh_process):
    passes = _smoke_passes("fig7-paper")
    golden = json.loads(json.dumps(checks.load_golden()["fig7-paper@smoke"]))
    cell = sorted(golden)[0]
    golden[cell]["total_s"] *= 1 + 1e-6
    verdict = checks.score(passes, golden)
    assert verdict["failed"] == 1
    assert verdict["golden"]["mismatched"] == 1
    # A drift inside the tolerance is reported as close, not as a failure.
    golden[cell]["total_s"] = passes[0][cell]["values"]["total_s"] * (1 + 1e-12)
    verdict = checks.score(passes, golden)
    assert (verdict["failed"], verdict["golden"]["close"]) == (0, 1)


def test_injected_exception_raises_fail_frac(fresh_process, monkeypatch):
    from repro.runner import experiments

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(experiments, "run_fig7", broken)
    passes = _smoke_passes("fig7-paper")
    verdict = checks.score(passes, checks.load_golden()["fig7-paper@smoke"])
    assert verdict["attempted"] == 4 * 16
    assert verdict["failed"] == verdict["attempted"]
    assert "RuntimeError: injected" in verdict["failures"][0]


def test_warm_drift_from_cold_fails():
    cold = {"a": {"values": {"total_s": 1.0}, "problems": []}}
    warm = {"a": {"values": {"total_s": 1.0 + 1e-15}, "problems": []}}
    verdict = checks.score([cold, warm], None)
    assert (verdict["attempted"], verdict["failed"]) == (2, 1)


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert [m["name"] for m in spec["end_to_end"]] == [
        name for name, _ in run.END_TO_END if name not in run.NOT_IN_RESULT_LINE
    ]
    assert [m["name"] for m in spec["per_layer"]] == run.reported_layer_metrics()


def test_smoke_run_prints_the_result_line():
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--smoke", "--workload", "faults-live"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] > 0 and line["failed"] == 0
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        "setup_s": "s", "cold_s": "s", "warm_s": "s", "peak_rss_mb": "MB",
    }


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(
        ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "bakeoff"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
