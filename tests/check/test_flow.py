"""Adversarial fixtures for the CONC/DET rules of the lint pass.

Each rule id gets at least one injected violation asserting the exact id
fires, plus a near-miss fixture asserting it stays quiet. The suppression
pragma, rule selection, SYNTAX findings and the "repo src is clean" gate
are covered at the end. Every fixture is one file: the rules resolve calls
to module functions and ``self.`` methods of that file.
"""

import textwrap
from pathlib import Path

from repro.check.findings import Severity
from repro.check.lint import LINT_RULES, lint_paths, lint_source

REPO_ROOT = Path(__file__).resolve().parents[2]

#: The async-safety and determinism rule ids.
CONC_DET_RULES = {r for r in LINT_RULES if r.startswith(("CONC", "DET"))}


def _ids(*files, select=None):
    return [
        f.rule_id
        for path, source in files
        for f in lint_source(textwrap.dedent(source), path=path, select=select)
    ]


def _findings(source, select=None):
    return lint_source(textwrap.dedent(source), path="m.py", select=select)


class TestConc001BlockingInAsync:
    def test_direct_blocking_call_flagged(self):
        assert _ids(("m.py", """
            import time

            async def handler():
                time.sleep(1)
        """)) == ["CONC001"]

    def test_transitive_blocking_via_sync_callee_flagged(self):
        findings = _findings("""
            import subprocess

            def run_tool():
                subprocess.run(["true"])

            async def handler():
                run_tool()
        """)
        assert [f.rule_id for f in findings] == ["CONC001"]
        assert "run_tool" in findings[0].message

    def test_async_sleep_passes(self):
        assert _ids(("m.py", """
            import asyncio

            async def handler():
                await asyncio.sleep(1)
        """)) == []

    def test_blocking_in_sync_function_passes(self):
        assert _ids(("m.py", """
            import time

            def worker():
                time.sleep(1)
        """)) == []


class TestConc002SharedState:
    def test_read_modify_write_across_await_flagged(self):
        assert _ids(("m.py", """
            class Service:
                def __init__(self):
                    self._pending = 0

                async def admit(self, fut):
                    count = self._pending
                    await fut
                    self._pending = count + 1
        """)) == ["CONC002"]

    def test_augassign_after_await_passes(self):
        # += executes atomically between yield points on the loop.
        assert _ids(("m.py", """
            class Service:
                def __init__(self):
                    self._pending = 0

                async def admit(self, fut):
                    self._pending += 1
                    await fut
                    self._pending -= 1
        """)) == []

    def test_executor_dispatched_mutation_flagged(self):
        assert _ids(("m.py", """
            class Service:
                def __init__(self, loop, pool):
                    self._loop = loop
                    self._pool = pool
                    self._stats = {}

                async def poll(self):
                    return self._stats

                async def kick(self):
                    self._loop.run_in_executor(self._pool, self._work)

                def _work(self):
                    self._stats = {}
        """)) == ["CONC002"]

    def test_executor_worker_touching_private_state_passes(self):
        # The worker's attribute is never touched by an async method.
        assert _ids(("m.py", """
            class Service:
                def __init__(self, loop, pool):
                    self._loop = loop
                    self._pool = pool
                    self._scratch = 0

                async def kick(self):
                    self._loop.run_in_executor(self._pool, self._work)

                def _work(self):
                    self._scratch += 1
        """)) == []


class TestConc003UnawaitedCoroutine:
    def test_bare_coroutine_statement_flagged(self):
        assert _ids(("m.py", """
            class Service:
                async def tick(self):
                    pass

                async def run(self):
                    self.tick()
        """)) == ["CONC003"]

    def test_awaited_and_task_wrapped_pass(self):
        assert _ids(("m.py", """
            import asyncio

            class Service:
                async def tick(self):
                    pass

                async def run(self):
                    await self.tick()
                    asyncio.create_task(self.tick())
        """)) == []


class TestConc004ForkIdentity:
    SOURCE = """
        import os
        from pathlib import Path

        class Store:
            def __init__(self, root):
                self.root = Path(root)
                self._owner_pid = os.getpid()

            def _check_owner(self):
                if self._owner_pid != os.getpid():
                    self._owner_pid = os.getpid()

            def put(self, key, value):
                return self.root / f"blob-{self._owner_pid}.pkl"

            def get(self, key):
                self._check_owner()
                return self._owner_pid
    """

    def test_public_method_without_recheck_flagged(self):
        findings = _findings(self.SOURCE)
        assert [f.rule_id for f in findings] == ["CONC004"]
        assert "put()" in findings[0].message

    def test_rechecked_method_passes(self):
        fixed = self.SOURCE.replace(
            'def put(self, key, value):\n                return',
            'def put(self, key, value):\n'
            '                self._check_owner()\n                return',
        )
        assert _ids(("m.py", fixed)) == []

    def test_class_without_cached_pid_passes(self):
        assert _ids(("m.py", """
            import os

            class Store:
                def put(self, key):
                    return os.getpid()
        """)) == []


class TestConc005NonAtomicShardWrite:
    def test_direct_shard_write_flagged(self):
        assert _ids(("m.py", """
            from pathlib import Path

            def flush(root, blob):
                (root / "shard-0.pkl").write_bytes(blob)
        """)) == ["CONC005"]

    def test_var_held_shard_target_flagged(self):
        assert _ids(("m.py", """
            from pathlib import Path

            def flush(root, blob):
                target = root / "shard-0.pkl"
                target.write_bytes(blob)
        """)) == ["CONC005"]

    def test_tmp_plus_replace_passes(self):
        assert _ids(("m.py", """
            import os
            from pathlib import Path

            def flush(root, blob):
                target = root / "shard-0.pkl"
                tmp = target.with_name(target.name + ".tmp")
                tmp.write_bytes(blob)
                os.replace(tmp, target)
        """)) == []

    def test_non_shard_write_passes(self):
        assert _ids(("m.py", """
            def flush(root, blob):
                (root / "report.json").write_bytes(blob)
        """)) == []


class TestDet001WallClockInKeys:
    def test_wall_clock_through_two_hops_reaches_cache_key(self):
        # time.perf_counter -> clock() -> stamp() -> make_key(...) -> put
        findings = _findings("""
            import time

            def clock():
                return time.perf_counter()

            def stamp():
                return clock()

            def make_key(tag, value):
                return (tag, value)

            def remember(cache, value):
                cache.put(make_key("plan", stamp()), value)
        """)
        ids = [f.rule_id for f in findings]
        assert "DET001" in ids
        assert all(rule_id == "DET001" for rule_id in ids)
        assert any("put" in f.message for f in findings)

    def test_wall_clock_into_key_return_flagged(self):
        assert "DET001" in _ids(("m.py", """
            import time

            def cache_key(cfg):
                return (cfg, time.time())
        """))

    def test_wall_clock_outside_keys_passes(self):
        assert _ids(("m.py", """
            import time

            def measure(fn):
                start = time.perf_counter()
                fn()
                return time.perf_counter() - start
        """)) == []

    def test_config_only_key_passes(self):
        assert _ids(("m.py", """
            def make_key(algo, n, w):
                return (algo, n, w)

            def remember(cache, algo, n, w, value):
                cache.put(make_key(algo, n, w), value)
        """)) == []


class TestDet002SetIterationOnLoweringPath:
    def test_set_iteration_reachable_from_lower_flagged(self):
        findings = _findings("""
            def color(nodes):
                order = []
                for node in set(nodes):
                    order.append(node)
                return order

            def lower(schedule):
                return color(schedule)
        """)
        assert [f.rule_id for f in findings] == ["DET002"]

    def test_sorted_set_iteration_passes(self):
        assert _ids(("m.py", """
            def color(nodes):
                return [n for n in sorted(set(nodes))]

            def lower(schedule):
                return color(schedule)
        """)) == []

    def test_set_iteration_off_lowering_path_flagged(self):
        # DET002 covers every function of a linted file, not only code a
        # lowering entry point reaches.
        assert _ids(("m.py", """
            def summarize(nodes):
                return [n for n in set(nodes)]
        """)) == ["DET002"]


class TestDet003UnseededRngFromLower:
    """DET003 is retired: REP001 flags an unseeded RNG where it is built."""

    def test_rng_two_calls_below_lower_flagged(self):
        findings = _findings("""
            import random

            def jitter():
                return random.Random().random()

            def place(nodes):
                return jitter()

            def lower(schedule):
                return place(schedule)
        """)
        assert [f.rule_id for f in findings] == ["REP001"]
        assert findings[0].location == "m.py:5"

    def test_seeded_rng_below_lower_passes(self):
        assert _ids(("m.py", """
            import random

            def place(nodes, seed):
                return random.Random(seed).random()

            def lower(schedule):
                return place(schedule, 7)
        """)) == []


class TestDet004ProcessLocalIdentity:
    def test_id_in_key_return_flagged(self):
        assert _ids(("m.py", """
            def coalesce_key(request):
                return id(request)
        """), select={"DET004"}) == ["DET004"]

    def test_hash_into_cache_put_flagged(self):
        assert _ids(("m.py", """
            def remember(cache, request, value):
                cache.put(hash(request.text), value)
        """), select={"DET004"}) == ["DET004"]

    def test_sha_digest_key_passes(self):
        assert _ids(("m.py", """
            import hashlib

            def coalesce_key(request):
                return hashlib.sha256(request).hexdigest()
        """), select={"DET004"}) == []


class TestPragmasAndDriver:
    def test_reasoned_pragma_suppresses_flow_finding(self):
        assert _ids(("m.py", """
            import time

            async def handler():
                time.sleep(1)  # CONC001: smoke harness, loop is idle here
        """)) == []

    def test_bare_pragma_does_not_suppress(self):
        assert _ids(("m.py", """
            import time

            async def handler():
                time.sleep(1)  # CONC001
        """)) == ["CONC001", "REP008"]  # the bare pragma is flagged too

    def test_select_restricts_rules(self):
        source = ("m.py", """
            import time

            async def handler():
                time.sleep(1)

            def cache_key(cfg):
                return (cfg, time.time())
        """)
        assert _ids(source, select={"DET001"}) == ["DET001"]
        assert sorted(_ids(source)) == ["CONC001", "DET001"]

    def test_syntax_error_becomes_finding(self):
        findings = lint_source("def broken(:\n", path="bad.py")
        assert [f.rule_id for f in findings] == ["SYNTAX"]
        assert findings[0].severity is Severity.ERROR

    def test_findings_carry_location_and_line(self):
        (finding,) = _findings("""
            import time

            async def handler():
                time.sleep(1)
        """)
        assert finding.location == "m.py:5"
        assert finding.details["line"] == 5


class TestRepoIsClean:
    def test_flow_rules_clean_on_src(self):
        findings = lint_paths([REPO_ROOT / "src"], select=CONC_DET_RULES)
        assert findings == [], "\n".join(f.render() for f in findings)
