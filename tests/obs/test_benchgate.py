"""The bench gate: the schema comparator's unit tests plus the script's
exit contract."""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from benchmarks.bench_collectives import GATE as COLLECTIVES
from benchmarks.bench_faults import GATE as FAULTS
from benchmarks.bench_reconfig import GATE as RECONFIG
from benchmarks.bench_repair import GATE as REPAIR
from benchmarks.bench_rwa import GATE as RWA
from benchmarks.bench_service import GATE as SERVICE
from repro.obs.benchgate import GateReport, GateViolation, compare

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
GATE_SCRIPT = REPO_ROOT / "scripts" / "bench_gate.py"
GATES = (RWA, REPAIR, SERVICE, FAULTS, COLLECTIVES, RECONFIG)
#: The baselines ``--skip-perf`` still gates: pure functions of the inputs.
DETERMINISTIC = ("BENCH_faults.json", "BENCH_collectives.json", "BENCH_reconfig.json")


def _with(gate, **bounds):
    """``gate`` with ``bounds`` set on every section (a copied schema)."""
    return replace(
        gate, sections=tuple(replace(section, **bounds) for section in gate.sections)
    )


def _rows(gate, rows, baseline, **bounds):
    """Gate ``rows`` as the first section of ``gate`` (any later section
    is measured empty)."""
    section = gate.sections[0]
    return compare(_with(gate, **bounds), {section.name: rows}, baseline)


_RWA_BASELINE = {
    "micro": [
        {"case": "dense-alltoall", "n": 64, "transfers": 240, "speedup": 12.0},
    ]
}

_FAULT_ROW = {
    "scenario": "cut-fiber", "backend": "optical", "n_survivors": 64,
    "healthy_s": 1e-4, "degraded_s": 2e-4, "slowdown_pct": 100.0,
    "availability": 0.5, "n_errors": 0,
}
_FAULT_BASELINE = {"scenarios": [dict(_FAULT_ROW)]}


class TestCompareRwa:
    def _row(self, **over):
        row = {"case": "dense-alltoall", "n": 64, "transfers": 240,
               "speedup": 11.0}
        row.update(over)
        return row

    def test_pass(self):
        report = _rows(RWA, [self._row()], _RWA_BASELINE, perf_floor=0.25)
        assert report.ok
        assert len(report.checked) == 2

    def test_perf_floor_breach(self):
        report = _rows(
            RWA, [self._row(speedup=1.0)], _RWA_BASELINE, perf_floor=0.25
        )
        assert [v.kind for v in report.violations] == ["floor"]
        assert "0.25" in report.violations[0].allowed

    def test_above_floor_but_below_baseline_passes(self):
        # Wall clock is noisy: only a floor breach fails, not any slowdown.
        report = _rows(
            RWA, [self._row(speedup=4.0)], _RWA_BASELINE, perf_floor=0.25
        )
        assert report.ok

    def test_transfer_count_exact(self):
        report = _rows(RWA, [self._row(transfers=239)], _RWA_BASELINE)
        assert [v.kind for v in report.violations] == ["exact"]

    def test_missing_baseline_row_is_a_violation(self):
        report = _rows(RWA, [self._row(n=256)], _RWA_BASELINE)
        assert {v.kind for v in report.violations} == {"missing-baseline"}
        assert len(report.violations) == 2  # transfers and speedup


_REPAIR_BASELINE = {
    "repair": [
        {"case": "dead-wavelength", "n": 1024, "transfers": 240,
         "fallbacks": 0, "speedup": 12.0},
    ]
}


class TestCompareRepair:
    def _row(self, **over):
        row = {"case": "dead-wavelength", "n": 1024, "transfers": 240,
               "fallbacks": 0, "speedup": 11.0}
        row.update(over)
        return row

    def test_pass(self):
        report = _rows(REPAIR, [self._row()], _REPAIR_BASELINE)
        assert report.ok
        assert len(report.checked) == 3

    def test_perf_floor_breach_reports_measured_ratio(self):
        report = _rows(
            REPAIR, [self._row(speedup=1.2)], _REPAIR_BASELINE, perf_floor=0.25
        )
        assert [v.kind for v in report.violations] == ["floor"]
        # The violation message names the measured current/baseline ratio
        # (1.2 / 12.0 = 0.1x), not just the bound.
        assert "measured 0.1 x baseline" in report.violations[0].allowed

    def test_fallback_is_a_regression(self):
        report = _rows(REPAIR, [self._row(fallbacks=1)], _REPAIR_BASELINE)
        assert [v.metric for v in report.violations] == [
            "repair.dead-wavelength.n1024.fallbacks"
        ]
        assert report.violations[0].kind == "exact"

    def test_transfer_count_exact(self):
        report = _rows(REPAIR, [self._row(transfers=239)], _REPAIR_BASELINE)
        assert [v.kind for v in report.violations] == ["exact"]

    def test_missing_baseline_row(self):
        # A grown grid: the baseline row is re-measured, the new one is not
        # in the baseline. fallbacks is gated against the constant 0 even
        # without a baseline.
        report = _rows(
            REPAIR, [self._row(), self._row(n=64)], _REPAIR_BASELINE
        )
        assert len(report.violations) == 2
        assert {v.kind for v in report.violations} == {"missing-baseline"}


_CASCADE_ROW = {
    "case": "swing-stuck-mrr", "n": 128, "transfers": 24448, "repairs": 14,
    "cascades": 130, "fallbacks": 4, "repair_s": 2.5,
}


class TestCompareRepairCascade:
    def _gate(self, **over):
        row = dict(_CASCADE_ROW, **over)
        return compare(REPAIR, {"cascade": [row]}, {"cascade": [dict(_CASCADE_ROW)]})

    def test_pass_ignores_wall_clock(self):
        report = self._gate(repair_s=60.0)
        assert report.ok
        assert len(report.checked) == 4

    @pytest.mark.parametrize("field", ["transfers", "repairs", "cascades", "fallbacks"])
    def test_counts_are_exact(self, field):
        report = self._gate(**{field: _CASCADE_ROW[field] - 1})
        assert [(v.metric, v.kind) for v in report.violations] == [
            (f"repair.cascade.swing-stuck-mrr.n128.{field}", "exact")
        ]

    def test_committed_rows_gate_exactly(self):
        committed = json.loads((REPO_ROOT / "BENCH_repair.json").read_text())
        assert [
            (row["n"], row["cascades"], row["fallbacks"]) for row in committed["cascade"]
        ] == [(64, 66, 4), (128, 130, 4)]


class TestCompareFaults:
    def test_pass(self):
        report = _rows(FAULTS, [dict(_FAULT_ROW)], _FAULT_BASELINE)
        assert report.ok
        assert len(report.checked) == 6

    def test_rel_drift_fails(self):
        row = dict(_FAULT_ROW, availability=0.500001)
        report = _rows(FAULTS, [row], _FAULT_BASELINE, rel_tol=1e-6)
        assert [v.metric for v in report.violations] == [
            "faults.cut-fiber.optical.availability"
        ]
        assert report.violations[0].kind == "rel"

    def test_rel_tolerance_is_configurable(self):
        row = dict(_FAULT_ROW, availability=0.500001)
        assert _rows(FAULTS, [row], _FAULT_BASELINE, rel_tol=1e-3).ok

    def test_nonzero_check_errors_fail(self):
        row = dict(_FAULT_ROW, n_errors=2)
        report = _rows(FAULTS, [row], _FAULT_BASELINE)
        assert "n_errors" in report.violations[0].metric

    def test_survivor_count_exact(self):
        row = dict(_FAULT_ROW, n_survivors=63)
        report = _rows(FAULTS, [row], _FAULT_BASELINE)
        assert [v.kind for v in report.violations] == ["exact"]

    def test_missing_baseline_row(self):
        row = dict(_FAULT_ROW, scenario="unknown")
        # A grown grid; n_errors is gated against the constant 0 even
        # without a baseline.
        report = _rows(FAULTS, [dict(_FAULT_ROW), row], _FAULT_BASELINE)
        assert len(report.violations) == 5
        assert {v.kind for v in report.violations} == {"missing-baseline"}


_CURVE_ROW = {
    "algorithm": "swing", "backend": "analytic", "n_nodes": 64,
    "elems": 100_000, "n_steps": 12, "total_time_s": 1e-3,
}
_COLLECTIVE_FAULT_ROW = {
    "algorithm": "scring-p4", "scenario": "cut-fiber", "n_survivors": 15,
    "healthy_s": 1e-4, "degraded_s": 2e-4, "availability": 0.5, "n_errors": 0,
}
_COLLECTIVES_BASELINE = {
    "curves": [dict(_CURVE_ROW)],
    "faults": [dict(_COLLECTIVE_FAULT_ROW)],
}


class TestCompareCollectives:
    def _current(self, curve_over=None, fault_over=None):
        return {
            "curves": [dict(_CURVE_ROW, **(curve_over or {}))],
            "faults": [dict(_COLLECTIVE_FAULT_ROW, **(fault_over or {}))],
        }

    def _compare(self, current, baseline, **bounds):
        return compare(_with(COLLECTIVES, **bounds), current, baseline)

    def test_pass(self):
        report = self._compare(self._current(), _COLLECTIVES_BASELINE)
        assert report.ok
        # 2 curve fields + 5 fault fields.
        assert len(report.checked) == 7

    def test_step_count_exact(self):
        report = self._compare(
            self._current(curve_over={"n_steps": 13}), _COLLECTIVES_BASELINE
        )
        assert [v.metric for v in report.violations] == [
            "collectives.swing.analytic.n64.e100000.n_steps"
        ]
        assert report.violations[0].kind == "exact"

    def test_time_drift_fails_at_tight_tol(self):
        report = self._compare(
            self._current(curve_over={"total_time_s": 1.00001e-3}),
            _COLLECTIVES_BASELINE,
            rel_tol=1e-6,
        )
        assert [v.kind for v in report.violations] == ["rel"]
        assert self._compare(
            self._current(curve_over={"total_time_s": 1.00001e-3}),
            _COLLECTIVES_BASELINE,
            rel_tol=1e-3,
        ).ok

    def test_fault_row_must_verify_clean(self):
        # n_errors is gated against the constant 0, baseline or not.
        report = self._compare(
            self._current(fault_over={"n_errors": 3}), _COLLECTIVES_BASELINE
        )
        assert [v.metric for v in report.violations] == [
            "collectives.scring-p4.cut-fiber.n_errors"
        ]
        assert report.violations[0].kind == "exact"
        # Even without any baseline, a dirty row still fails.
        bare = self._compare(
            {"faults": [dict(_COLLECTIVE_FAULT_ROW, n_errors=3)]}, None
        )
        assert any(
            v.metric.endswith(".n_errors") and v.kind == "exact"
            for v in bare.violations
        )

    def test_missing_baseline_row(self):
        # A grown grid: the baseline cell is re-measured next to a new one.
        current = self._current()
        current["curves"].append(dict(_CURVE_ROW, n_nodes=256))
        report = self._compare(current, _COLLECTIVES_BASELINE)
        assert {v.kind for v in report.violations} == {"missing-baseline"}
        assert len(report.violations) == 2  # n_steps and total_time_s


_RECONFIG_ROW = {
    "algorithm": "rd", "backend": "optical", "n_nodes": 8, "elems": 1_000_000,
    "t_tune_us": 25.0, "no_overlap_s": 2e-3, "overlap_s": 1.5e-3,
    "hold_s": 1.2e-3, "decision": "hold", "chosen_s": 1.2e-3, "n_errors": 0,
}
_RECONFIG_BASELINE = {"reconfig": [dict(_RECONFIG_ROW)]}


class TestCompareReconfig:
    def _row(self, **over):
        row = dict(_RECONFIG_ROW)
        row.update(over)
        return row

    def test_pass(self):
        report = _rows(RECONFIG, [self._row()], _RECONFIG_BASELINE)
        assert report.ok
        # 6 per-row fields + the baseline-independent overlap_wins check.
        assert len(report.checked) == 7

    def test_decision_flip_exact(self):
        report = _rows(
            RECONFIG, [self._row(decision="reconfigure")], _RECONFIG_BASELINE
        )
        assert [v.metric for v in report.violations] == [
            "reconfig.rd.optical.n8.e1000000.decision"
        ]
        assert report.violations[0].kind == "exact"

    def test_time_drift_fails_at_tight_tol(self):
        report = _rows(
            RECONFIG, [self._row(chosen_s=1.20001e-3)], _RECONFIG_BASELINE,
            rel_tol=1e-6,
        )
        assert [v.kind for v in report.violations] == ["rel"]
        assert _rows(
            RECONFIG, [self._row(chosen_s=1.20001e-3)], _RECONFIG_BASELINE,
            rel_tol=1e-3,
        ).ok

    def test_row_must_verify_clean(self):
        # n_errors gates against the constant 0 even without a baseline.
        report = _rows(RECONFIG, [self._row(n_errors=2)], None)
        assert any(
            v.metric.endswith(".n_errors") and v.kind == "exact"
            for v in report.violations
        )

    def test_hold_feasibility_flip_is_exact(self):
        report = _rows(RECONFIG, [self._row(hold_s=None)], _RECONFIG_BASELINE)
        violations = [
            v for v in report.violations if v.metric.endswith(".hold_s")
        ]
        assert [v.kind for v in violations] == ["exact"]
        assert "None-ness" in violations[0].allowed

    def test_both_hold_none_passes(self):
        baseline = {
            "reconfig": [dict(_RECONFIG_ROW, hold_s=None, decision="hold-infeasible")]
        }
        current = [self._row(hold_s=None, decision="hold-infeasible")]
        assert _rows(RECONFIG, current, baseline).ok

    def test_missing_baseline_row(self):
        # A grown grid: the baseline cell is re-measured next to a new one.
        report = _rows(
            RECONFIG, [self._row(), self._row(n_nodes=16)], _RECONFIG_BASELINE
        )
        # decision + 3 rel fields + hold_s; n_errors/overlap_wins still pass.
        assert {v.kind for v in report.violations} == {"missing-baseline"}
        assert len(report.violations) == 5

    def test_overlap_must_win_somewhere(self):
        stuck = self._row(overlap_s=_RECONFIG_ROW["no_overlap_s"])
        report = _rows(RECONFIG, [stuck], {"reconfig": [dict(stuck)]})
        assert [v.metric for v in report.violations] == ["reconfig.overlap_wins"]
        assert report.violations[0].kind == "floor"
        # Electrical-only rows carry no overlap machinery — no floor check.
        electric = self._row(
            backend="electrical", overlap_s=2e-3, chosen_s=2e-3,
            hold_s=None, decision="n/a",
        )
        assert _rows(RECONFIG, [electric], {"reconfig": [dict(electric)]}).ok


_SERVICE_BASELINE = {
    "service": [
        {"case": "service-micro", "tenants": 4, "requests": 400,
         "distinct_cells": 10, "rps": 1600.0, "p50_ms": 2.0, "p99_ms": 5.0},
    ]
}


class TestCompareService:
    def _row(self, **over):
        row = {"case": "service-micro", "tenants": 4, "requests": 400,
               "distinct_cells": 10, "rps": 1500.0, "p50_ms": 2.5,
               "p99_ms": 6.0}
        row.update(over)
        return row

    def test_pass(self):
        report = _rows(SERVICE, [self._row()], _SERVICE_BASELINE)
        assert report.ok
        assert len(report.checked) == 5

    def test_perf_floor_breach(self):
        report = _rows(
            SERVICE, [self._row(rps=450.0)], _SERVICE_BASELINE, perf_floor=0.25
        )
        # 450 clears 0.25 x 1600 = 400 but breaches the absolute >=500 floor.
        assert [v.metric for v in report.violations] == [
            "service.service-micro.rps_absolute"
        ]
        report = _rows(
            SERVICE, [self._row(rps=350.0)], _SERVICE_BASELINE, perf_floor=0.5
        )
        assert {v.metric for v in report.violations} == {
            "service.service-micro.rps",
            "service.service-micro.rps_absolute",
        }

    def test_absolute_floor_is_configurable(self):
        assert _rows(
            SERVICE, [self._row(rps=520.0)], _SERVICE_BASELINE,
            absolute=(("rps_absolute", "rps", 500.0),),
        ).ok
        report = _rows(
            SERVICE, [self._row(rps=520.0)], _SERVICE_BASELINE,
            absolute=(("rps_absolute", "rps", 1000.0),),
        )
        assert [v.metric for v in report.violations] == [
            "service.service-micro.rps_absolute"
        ]

    def test_structural_counts_exact(self):
        report = _rows(SERVICE, [self._row(requests=399)], _SERVICE_BASELINE)
        assert [v.kind for v in report.violations] == ["exact"]

    def test_missing_baseline_row(self):
        # A grown grid; the absolute rps floor still applies without a
        # baseline row.
        report = _rows(
            SERVICE, [self._row(), self._row(case="other")], _SERVICE_BASELINE
        )
        assert len(report.violations) == 4
        assert {v.kind for v in report.violations} == {"missing-baseline"}


class TestGateReport:
    def test_merge_accumulates(self):
        a = GateReport(checked=["x"], violations=[])
        b = GateReport(
            checked=["y"],
            violations=[GateViolation("y", "rel", 1.0, 2.0, "<= 1e-6")],
        )
        assert a.merge(b) is a
        assert a.checked == ["x", "y"]
        assert not a.ok

    def test_to_dict_round_trips_through_json(self):
        report = _rows(RWA, [], _RWA_BASELINE)
        data = json.loads(json.dumps(report.to_dict()))
        assert data["ok"] is True
        assert data["n_checked"] == 0

    def test_render_mentions_counts(self):
        assert "0 violation(s)" in GateReport().render()


def _committed(gate):
    return json.loads((REPO_ROOT / gate.file).read_text())


class TestSchemas:
    def test_bounds_are_schema_constants(self):
        for gate in GATES:
            for section in gate.sections:
                assert section.rel_tol == 1e-6
                assert section.perf_floor == 0.25
        assert SERVICE.sections[0].absolute == (("rps_absolute", "rps", 500.0),)

    @pytest.mark.parametrize("gate", GATES, ids=lambda gate: gate.file)
    def test_committed_baseline_gates_green_against_itself(self, gate):
        baseline = _committed(gate)
        assert compare(gate, baseline, baseline).ok


class TestMissingCurrent:
    @pytest.mark.parametrize(
        ("gate", "dropped"),
        [
            (FAULTS, lambda row: row["scenario"] == "cut-fiber"
             and row["backend"] == "optical"),
            (COLLECTIVES, lambda row: row["algorithm"] == "swing"),
            (RECONFIG, lambda row: row["backend"] == "optical"),
        ],
        ids=["one-fault-row", "every-swing-row", "every-optical-reconfig-row"],
    )
    def test_dropped_rows_fail(self, gate, dropped):
        baseline = _committed(gate)
        current = {
            section.name: [row for row in baseline[section.name] if not dropped(row)]
            for section in gate.sections
        }
        n_dropped = sum(
            dropped(row) for section in gate.sections for row in baseline[section.name]
        )
        assert n_dropped
        report = compare(gate, current, baseline)
        # One violation per lost row; without optical rows the reconfig
        # overlap_wins invariant passes vacuously, so only these catch it.
        assert [v.kind for v in report.violations] == ["missing-current"] * n_dropped

    def test_partially_measured_section_is_exempt(self):
        # The RWA gate re-runs only the N<1024 micro rows (~20 s otherwise).
        baseline = _committed(RWA)
        current = {"micro": [row for row in baseline["micro"] if row["n"] < 1024]}
        assert len(current["micro"]) < len(baseline["micro"])
        assert compare(RWA, current, baseline).ok


@pytest.fixture
def baselines(tmp_path):
    """Copies of the committed baselines; every script run points here."""
    copies = tmp_path / "baselines"
    copies.mkdir()
    for path in REPO_ROOT.glob("BENCH_*.json"):
        shutil.copy(path, copies / path.name)
    return copies


def _committed_files():
    return {
        path.name: (path.read_bytes(), path.stat().st_mtime_ns)
        for path in REPO_ROOT.glob("BENCH_*.json")
    }


def _run_gate(baselines, *argv):
    before = _committed_files()
    proc = subprocess.run(
        [
            sys.executable, str(GATE_SCRIPT), "--skip-perf",
            "--baselines", str(baselines), *argv,
        ],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        timeout=300,
    )
    # Not even an mtime: a test run must never re-pin a committed baseline.
    assert _committed_files() == before
    return proc


class TestBenchGateScript:
    def test_green_against_committed_baseline(self, baselines, tmp_path):
        out = tmp_path / "diff.json"
        summary = tmp_path / "summary.md"
        proc = _run_gate(baselines, "--json", str(out), "--summary", str(summary))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        diff = json.loads(out.read_text())
        assert diff["ok"] is True
        assert diff["n_checked"] == 615
        assert [
            (entry["file"], entry["n_checked"], entry["n_violations"])
            for entry in diff["files"]
        ] == [
            ("BENCH_faults.json", 72, 0),
            ("BENCH_collectives.json", 434, 0),
            ("BENCH_reconfig.json", 109, 0),
        ]
        assert "| `BENCH_collectives.json` | 434 | 0 |" in summary.read_text()

    def test_perturbed_baseline_fails(self, baselines, tmp_path):
        path = baselines / "BENCH_faults.json"
        baseline = json.loads(path.read_text())
        baseline["scenarios"][0]["availability"] *= 0.9
        path.write_text(json.dumps(baseline))
        out = tmp_path / "diff.json"
        proc = _run_gate(baselines, "--json", str(out))
        assert proc.returncode == 1, proc.stdout + proc.stderr
        diff = json.loads(out.read_text())
        assert diff["ok"] is False
        assert any(
            v["metric"].endswith(".availability") for v in diff["violations"]
        )

    def test_missing_baseline_exits_2(self, baselines):
        (baselines / "BENCH_faults.json").unlink()
        proc = _run_gate(baselines)
        assert proc.returncode == 2
        assert "missing or unreadable baseline" in proc.stderr

    def test_update_baseline_rewrites_measured_cells(self, baselines):
        """--update-baseline splices fresh rows into the baseline JSON; the
        deterministic baselines must come back byte-identical."""
        path = baselines / "BENCH_faults.json"
        baseline = json.loads(path.read_text())
        baseline["scenarios"][0]["availability"] *= 0.9  # stale cell
        path.write_text(json.dumps(baseline, indent=2) + "\n")
        proc = _run_gate(baselines, "--update-baseline")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        updated = json.loads(path.read_text())
        committed = json.loads((REPO_ROOT / "BENCH_faults.json").read_text())
        assert updated["scenarios"] == committed["scenarios"]
        for name in DETERMINISTIC:
            assert (baselines / name).read_bytes() == (REPO_ROOT / name).read_bytes()

    def test_update_baseline_creates_missing_file(self, baselines):
        (baselines / "BENCH_faults.json").unlink()
        (baselines / "BENCH_collectives.json").unlink()
        proc = _run_gate(baselines, "--update-baseline")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert json.loads((baselines / "BENCH_faults.json").read_text())["scenarios"]
        fresh = json.loads((baselines / "BENCH_collectives.json").read_text())
        assert fresh["curves"] and fresh["faults"]
