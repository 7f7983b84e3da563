"""The REP rules of the AST lint: each rule has failing and passing fixtures.

The CONC/DET rules of the same pass have theirs in ``test_flow.py``.
"""

import textwrap

from repro.check.lint import LINT_RULES, lint_source, main


def _ids(source, **kwargs):
    return [f.rule_id for f in lint_source(textwrap.dedent(source), **kwargs)]


class TestRep001UnseededRng:
    def test_unseeded_default_rng_flagged(self):
        assert _ids("""
            import numpy as np
            rng = np.random.default_rng()
        """) == ["REP001"]

    def test_unseeded_random_flagged(self):
        assert _ids("""
            import random
            r = random.Random()
        """) == ["REP001"]

    def test_global_random_function_flagged(self):
        assert _ids("""
            import random
            x = random.shuffle(items)
        """) == ["REP001"]

    def test_seeded_constructions_pass(self):
        assert _ids("""
            import random
            import numpy as np
            rng = np.random.default_rng(42)
            r = random.Random(7)
        """) == []


class TestRep002TimingEquality:
    def test_duration_equality_flagged(self):
        assert _ids("if a.duration == b.duration:\n    pass\n") == ["REP002"]

    def test_suffix_s_flagged(self):
        assert _ids("ok = max_payload_s != other_s\n") == ["REP002"]

    def test_non_timing_names_pass(self):
        assert _ids("ok = count == total\n") == []

    def test_zero_and_none_guards_pass(self):
        assert _ids("""
            a = duration == 0
            b = elapsed != None
        """) == []


class TestRep003UnpicklableException:
    def test_custom_init_without_hook_flagged(self):
        assert _ids("""
            class SweepError(RuntimeError):
                def __init__(self, step, detail):
                    super().__init__(f"{step}: {detail}")
                    self.step = step
        """) == ["REP003"]

    def test_custom_init_with_reduce_passes(self):
        assert _ids("""
            class SweepError(RuntimeError):
                def __init__(self, step):
                    super().__init__(step)
                    self.step = step

                def __reduce__(self):
                    return (type(self), (self.step,))
        """) == []

    def test_plain_exception_passes(self):
        assert _ids("""
            class SweepError(RuntimeError):
                pass
        """) == []

    def test_non_exception_class_with_init_passes(self):
        assert _ids("""
            class Widget:
                def __init__(self, size):
                    self.size = size
        """) == []


class TestRep005TraceRegistry:
    def test_unregistered_literal_flagged(self):
        assert _ids(
            'tracer.emit(now, "optical.rund", stage=s)\n'
        ) == ["REP005"]

    def test_registered_literal_passes(self):
        assert _ids(
            'tracer.emit(now, "optical.round", stage=s)\n'
        ) == []

    def test_dynamic_category_passes(self):
        assert _ids("tracer.emit(now, category, stage=s)\n") == []


HOT_PATH = "src/repro/optical/network.py"


class TestRep006TransferLoop:
    def test_hot_path_transfer_loop_flagged(self):
        assert _ids("""
            for t in step.transfers:
                price(t)
        """, path=HOT_PATH) == ["REP006"]

    def test_bare_transfers_name_flagged(self):
        assert _ids("""
            for i, t in enumerate(transfers):
                price(t)
        """, path=HOT_PATH) == ["REP006"]

    def test_cold_path_passes(self):
        assert _ids("""
            for t in step.transfers:
                price(t)
        """, path="src/repro/runner/faultsweep.py") == []

    def test_comprehension_passes(self):
        assert _ids(
            "sizes = [t.n_elems for t in step.transfers]\n", path=HOT_PATH
        ) == []

    def test_pragma_on_loop_line_passes(self):
        assert _ids("""
            for t in step.transfers:  # REP006: per-circuit trace emission
                trace(t)
        """, path=HOT_PATH) == []

    def test_pragma_comment_block_above_passes(self):
        assert _ids("""
            # REP006: route construction is per-transfer by nature; the
            # priced hot loop below it is vectorized.
            for t in step.transfers:
                route(t)
        """, path=HOT_PATH) == []

    def test_non_transfer_loop_passes(self):
        assert _ids("""
            for circuits in rounds:
                fold(circuits)
        """, path=HOT_PATH) == []


COLD_PATH = "src/repro/runner/faultsweep.py"


class TestRep007PlanCacheMutation:
    def test_put_outside_seams_flagged(self):
        assert _ids(
            "self.plan_cache.put(key, value)\n", path=COLD_PATH
        ) == ["REP007"]

    def test_clear_on_default_cache_flagged(self):
        assert _ids(
            "default_plan_cache().clear()\n", path=COLD_PATH
        ) == ["REP007"]

    def test_resize_flagged(self):
        assert _ids("plan_cache.resize(0)\n", path=COLD_PATH) == ["REP007"]

    def test_get_passes(self):
        assert _ids("v = self.plan_cache.get(key)\n", path=COLD_PATH) == []

    def test_non_cache_receiver_passes(self):
        assert _ids("registry.put(key, value)\n", path=COLD_PATH) == []

    def test_plain_clear_passes(self):
        assert _ids("self._entries.clear()\n", path=COLD_PATH) == []

    def test_lowering_seam_passes(self):
        assert _ids(
            "self.plan_cache.put(key, value)\n",
            path="src/repro/optical/network.py",
        ) == []

    def test_store_module_passes(self):
        assert _ids(
            "self.plan_cache.put(key, value)\n",
            path="src/repro/service/store.py",
        ) == []

    def test_pragma_passes(self):
        assert _ids(
            "plan_cache.clear()  # REP007: bench cold-path measurement\n",
            path=COLD_PATH,
        ) == []


class TestRep008BarePragma:
    """Lint of the lint: a suppression without a reason is itself flagged."""

    def test_bare_pragma_flagged_and_not_honoured(self):
        source = "plan_cache.clear()  # REP007\n"
        assert sorted(_ids(source, path=COLD_PATH)) == ["REP007", "REP008"]

    def test_reasoned_pragma_passes(self):
        assert _ids(
            "plan_cache.clear()  # REP007: bench cold-path measurement\n",
            path=COLD_PATH,
        ) == []

    def test_bare_conc_pragma_flagged(self):
        # The shared pragma grammar covers the flow rule families too.
        assert _ids("x = 1  # CONC001\n") == ["REP008"]

    def test_rep008_cannot_suppress_itself(self):
        assert _ids("x = 1  # REP006\n# REP008: hush\n") == ["REP008"]


class TestSyntaxErrorHandling:
    def test_unparseable_source_reports_finding_not_raise(self):
        (finding,) = lint_source("def broken(:\n", path="bad.py")
        assert finding.rule_id == "SYNTAX"
        assert finding.location and finding.location.startswith("bad.py:")

    def test_main_exits_nonzero_on_syntax_error(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("def broken(:\n")
        assert main([str(tmp_path)]) == 1
        assert "SYNTAX" in capsys.readouterr().out


class TestHarness:
    def test_select_restricts_rules(self):
        source = (
            "plan_cache.resize(0)\n"
            "import random\n"
            "r = random.Random()\n"
        )
        assert _ids(source, select={"REP007"}) == ["REP007"]

    def test_findings_carry_locations(self):
        (finding,) = lint_source(
            "plan_cache.resize(0)\n", path="fixture.py"
        )
        assert finding.location == "fixture.py:1"

    def test_rule_catalog_is_complete(self):
        """REP004 and DET003 are retired; their ids are never reused."""
        assert sorted(LINT_RULES) == [
            "CONC001", "CONC002", "CONC003", "CONC004", "CONC005",
            "DET001", "DET002", "DET004",
            "REP001", "REP002", "REP003", "REP005", "REP006", "REP007",
            "REP008",
        ]

    def test_main_clean_on_src(self):
        assert main(["src"]) == 0

    def test_main_flags_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("default_plan_cache().clear()\n")
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "REP007" in out

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "REP001" in out and "REP005" in out
