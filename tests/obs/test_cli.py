"""The ``wrht-repro obs`` CLI: table, metrics summary, manifest, forwarding."""

import json

import pytest

from repro.dnn.workload import workload_by_name
from repro.obs.cli import main as obs_main
from repro.obs.manifest import SCHEMA
from repro.runner.cli import main as runner_main
from repro.runner.experiments import run_fig4, run_fig5, run_fig6, run_fig7

# A cheap cell: fig5 at w=8 on 64 nodes (the default N=1024 would route
# thousands of transfers per step).
CELL = ["fig5", "--x", "8", "--nodes", "64", "--workload", "AlexNet"]


class TestObsCli:
    def test_renders_table_and_metrics(self, capsys):
        assert obs_main(CELL) == 0
        out = capsys.readouterr().out
        assert "fig5 cell: WRHT on AlexNet" in out
        assert "wavelengths w=8" in out
        assert "stage" in out and "time %" in out  # timing table header
        assert "counters:" in out
        assert "rwa.rounds" in out
        assert "spans (wall clock):" in out

    def test_no_metrics_flag_drops_the_summary(self, capsys):
        assert obs_main([*CELL, "--no-metrics"]) == 0
        out = capsys.readouterr().out
        assert "stage" in out
        assert "counters:" not in out

    def test_manifest_written(self, tmp_path, capsys):
        path = tmp_path / "cell.json"
        assert obs_main([*CELL, "--manifest", str(path)]) == 0
        manifest = json.loads(path.read_text())
        assert manifest["schema"] == SCHEMA
        assert manifest["extra"]["figure"] == "fig5"
        assert manifest["extra"]["x"] == 8
        assert manifest["metrics"]["counters"]
        assert manifest["config"]["hash"]

    def test_unknown_algo_for_figure_rejected(self, capsys):
        assert obs_main(["fig4", "--algo", "E-Ring"]) == 2
        assert "no algorithm 'E-Ring'" in capsys.readouterr().err

    def test_runner_cli_forwards_verbatim(self, capsys):
        # ``wrht-repro obs ...`` must behave exactly like ``python -m
        # repro.obs ...`` — including leading optionals that argparse
        # REMAINDER would otherwise swallow.
        assert runner_main(["obs", *CELL, "--no-metrics"]) == 0
        assert "fig5 cell: WRHT on AlexNet" in capsys.readouterr().out


class TestObsRunnerParity:
    """obs prices exactly the cell the figure runner prices."""

    @pytest.mark.parametrize(
        "argv, run, grid, algo",
        [
            (["fig4", "--x", "5", "--nodes", "16"], run_fig4,
             {"n_nodes": 16, "group_sizes": (5,)}, "WRHT"),
            (["fig5", "--algo", "H-Ring", "--x", "4", "--nodes", "16"], run_fig5,
             {"n_nodes": 16, "wavelengths": (4,)}, "H-Ring"),
            (["fig6", "--x", "16"], run_fig6, {"nodes": (16,)}, "WRHT"),
            (["fig7", "--algo", "E-Ring", "--x", "16"], run_fig7,
             {"nodes": (16,)}, "E-Ring"),
        ],
        ids=["fig4", "fig5-hring", "fig6-wrht", "fig7-ering"],
    )
    def test_manifest_total_equals_runner_series(
        self, tmp_path, capsys, argv, run, grid, algo
    ):
        path = tmp_path / "cell.json"
        argv = [*argv, "--workload", "ResNet50", "--manifest", str(path)]
        assert obs_main(argv) == 0
        total = json.loads(path.read_text())["total_time"]
        workload = workload_by_name("ResNet50")
        result = run(mode="simulated", workloads=(workload,), **grid)
        assert total == result.series[("ResNet50", algo)][0]
