"""The ``repro check`` CLI: golden-cell enumeration and end-to-end runs."""

import pytest

from repro.check.cli import build_parser, golden_cells, main


class TestGoldenCells:
    def test_every_figure_enumerates(self):
        for fig in ("fig4", "fig5", "fig6", "fig7"):
            cells = golden_cells(fig)
            assert cells, fig
            for cell in cells:
                assert cell["algo"]
                assert cell["n"] >= 2
                assert cell["w"] >= 1

    def test_unknown_figure_rejected(self):
        with pytest.raises(ValueError, match="unknown figure"):
            golden_cells("fig99")


class TestCheckCommand:
    def test_fig5_analytic_verifies_clean(self, capsys):
        assert main(
            ["check", "--fig", "fig5", "--backend", "analytic", "-v"]
        ) == 0
        out = capsys.readouterr().out
        assert "ok" in out
        assert "clean" in out
        assert "FAIL" not in out

    def test_fig7_electrical_verifies_clean(self, capsys):
        assert main(["check", "--fig", "fig7", "--backend", "electrical"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_lint_subcommand_clean_on_src(self):
        assert main(["lint", "src"]) == 0


class TestFlowCommand:
    """The CONC/DET rules (once a separate ``flow`` pass) through ``lint``."""

    CONC_DET = "CONC001,CONC002,CONC003,CONC004,CONC005,DET001,DET002,DET004"

    def test_flow_clean_on_src(self, capsys):
        assert main(["lint", "src", "--select", self.CONC_DET]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_flow_select_restricts_rules(self, tmp_path, capsys):
        bad = tmp_path / "svc.py"
        bad.write_text(
            "import time\n\n\nasync def handler():\n    time.sleep(1)\n"
        )
        assert main(["lint", str(tmp_path), "--select", "DET001"]) == 0
        assert "CONC001" not in capsys.readouterr().out
        assert main(["lint", str(tmp_path), "--select", "CONC001"]) == 1
        assert "CONC001" in capsys.readouterr().out

    def test_flow_unknown_rule_rejected(self, capsys):
        # DET003 is retired and its id is never reused.
        with pytest.raises(SystemExit) as exc:
            main(["lint", "src", "--select", "DET003"])
        assert exc.value.code == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_flow_list_rules(self, capsys):
        from repro.check.lint import main as lint_main

        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "CONC001", "CONC002", "CONC003", "CONC004", "CONC005",
            "DET001", "DET002", "DET004",
        ):
            assert rule_id in out
        assert "DET003" not in out


class TestParser:
    def test_default_backend_is_optical(self):
        args = build_parser().parse_args(["check"])
        assert args.backend == "optical"

    def test_runner_cli_forwards_check(self, capsys):
        from repro.runner.cli import main as runner_main

        code = runner_main(
            ["check", "--fig", "fig5", "--backend", "analytic"]
        )
        assert code == 0
        assert "clean" in capsys.readouterr().out
