"""Hazard census: each statically caught hazard, seeded into real src.

Every row copies one src file's text, applies one hazard by replacing an
exact anchor, and lints the result with :func:`repro.check.lint.lint_source`
under the file's own path. The row's rule must fire on the mutant and stay
quiet on the unmutated file. A row whose anchor no longer occurs exactly
once fails with the row's name, so an edit to src cannot retire a row
silently: re-anchor it on the moved code instead.

Rows S2, S8 and S13 are not here on purpose. S2 (``self.engine.flush()``
on the event loop) reaches the blocking call through ``getattr``, which no
static rule sees. S8 and S13 (a wall-clock read or an ``id()`` in the
plan-cache key, through a helper in another module) are caught by
``tests/optical/test_plancache.py`` and ``tests/backend/test_lower_cache.py``.
"""

from pathlib import Path

import pytest

from repro.check.lint import lint_source

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: (row, file under src/repro, anchor, replacement, rule that catches it)
CENSUS = [
    (
        "S1", "service/daemon.py",
        '        op = message.get("op")\n',
        '        time.sleep(0.001)\n        op = message.get("op")\n',
        "CONC001",
    ),
    (
        "S3", "service/daemon.py",
        "        self._pending += 1\n",
        "        pending = self._pending\n"
        "        await asyncio.sleep(0)\n"
        "        self._pending = pending + 1\n",
        "CONC002",
    ),
    (
        "S4", "service/daemon.py",
        "        response = await self._dispatch(message)\n",
        "        self._dispatch(message)\n"
        "        response = await self._dispatch(message)\n",
        "CONC003",
    ),
    (
        "S5", "service/store.py",
        "            self._check_owner()\n"
        "            self._own.setdefault(slot, {})[digest] = value\n",
        "            self._own.setdefault(slot, {})[digest] = value\n",
        "CONC004",
    ),
    (
        "S6", "service/store.py",
        "            tmp.write_bytes(pickle.dumps(payload, "
        "protocol=pickle.HIGHEST_PROTOCOL))\n"
        "            os.replace(tmp, target)\n",
        "            target.write_bytes(pickle.dumps(payload, "
        "protocol=pickle.HIGHEST_PROTOCOL))\n",
        "CONC005",
    ),
    (
        "S7", "optical/network.py",
        "key = (pattern_key, self._plan_key_base, bytes_per_elem)\n",
        "key = (pattern_key, self._plan_key_base, bytes_per_elem, "
        "time.perf_counter())\n",
        "DET001",
    ),
    (
        "S9", "optical/rwa.py",
        "    channels = _allowed_channels(n_wavelengths, "
        "fibers_per_direction, blocked)\n",
        "    for _ in set(blocked):\n        pass\n"
        "    channels = _allowed_channels(n_wavelengths, "
        "fibers_per_direction, blocked)\n",
        "DET002",
    ),
    (
        "S10", "optical/network.py",
        "        ties.sort(key=lambda i: "
        "(step.transfers[i].src, step.transfers[i].dst))\n",
        "        ties = [i for i in set(ties)]\n"
        "        ties.sort(key=lambda i: "
        "(step.transfers[i].src, step.transfers[i].dst))\n",
        "DET002",
    ),
    (
        "S11", "optical/rwa.py",
        "    channels = _allowed_channels(n_wavelengths, "
        "fibers_per_direction, blocked)\n",
        "    random.Random().random()\n"
        "    channels = _allowed_channels(n_wavelengths, "
        "fibers_per_direction, blocked)\n",
        "REP001",
    ),
    (
        "S12", "optical/network.py",
        "key = (pattern_key, self._plan_key_base, bytes_per_elem)\n",
        "key = (pattern_key, self._plan_key_base, bytes_per_elem, id(step))\n",
        "DET004",
    ),
]


@pytest.mark.parametrize(
    "row, relpath, anchor, replacement, rule_id",
    CENSUS,
    ids=[row[0] for row in CENSUS],
)
def test_seeded_hazard_is_caught(row, relpath, anchor, replacement, rule_id):
    path = SRC / relpath
    source = path.read_text()
    assert source.count(anchor) == 1, (
        f"census row {row}: anchor {anchor!r} does not occur exactly once "
        f"in {relpath}; re-anchor the row on the moved code"
    )
    clean = {f.rule_id for f in lint_source(source, path=str(path))}
    assert rule_id not in clean, f"census row {row}: {relpath} is not clean"
    mutant = source.replace(anchor, replacement)
    found = [f for f in lint_source(mutant, path=str(path)) if f.rule_id == rule_id]
    assert found, f"census row {row}: {rule_id} missed the seeded hazard"
