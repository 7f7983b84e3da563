"""Array-built schedules against the transfer-object oracle.

The registered builders describe each schedule once as a payload-free
structure (:mod:`repro.collectives.structure`) and instantiate it per
payload by array arithmetic. ``schedule_reference.py`` keeps the builders
that made one ``Transfer`` per transfer per payload. This file pins:

- parity over the whole grid: steps, profile representatives and counts,
  step totals, meta and raised errors;
- the bytes pattern key's contract: over every profile entry the four
  seed-0 benchmark grids lower, two bytes keys are equal exactly when the
  old tuple keys are;
- isolation: builds from one memo entry share no mutable object, and the
  memo's arrays are read-only.
"""

from __future__ import annotations

import pickle

import pytest

from repro.collectives import structure
from repro.collectives.base import CommStep, Transfer
from repro.collectives.registry import build_schedule
from tests.collectives.schedule_reference import (
    build_reference,
    reference_pattern_key,
)

NODES = (1, 2, 3, 5, 8, 15, 16, 63, 64, 65, 127, 128, 129, 256)
CONFIGS = (
    ("ring", {}),
    ("hring", {"m": 5}),
    ("bt", {}),
    ("rd", {"variant": "doubling"}),
    ("rd", {"variant": "halving_doubling"}),
    ("swing", {}),
    ("scring", {"pipeline": 1}),
    ("scring", {"pipeline": 4}),
    ("wrht", {"n_wavelengths": 8}),
    ("wrht", {"n_wavelengths": 64}),
    ("wrht", {"n_wavelengths": 64, "m": 3}),
)


def _payloads(n: int) -> list[int]:
    return sorted({1, n - 1, n, n + 1, 1000, 25_000_000})


def _outcome(build, *args, **kwargs):
    try:
        return build(*args, **kwargs), None
    except Exception as exc:  # noqa: BLE001 — the error itself is compared
        return None, (type(exc), str(exc))


def assert_same_schedule(new, ref) -> None:
    assert (new.algorithm, new.n_nodes, new.total_elems) == (
        ref.algorithm, ref.n_nodes, ref.total_elems,
    )
    assert (new.steps is None) == (ref.steps is None)
    if ref.steps is not None:
        assert new.steps == ref.steps
    assert [count for _, count in new.timing_profile] == [
        count for _, count in ref.timing_profile
    ]
    # CommStep equality is (transfers, stage, level), compared as arrays.
    assert [step for step, _ in new.timing_profile] == [
        step for step, _ in ref.timing_profile
    ]
    assert new.n_steps == ref.n_steps
    assert new.meta == ref.meta


@pytest.mark.parametrize("n", NODES)
@pytest.mark.parametrize(
    "algorithm,kwargs", CONFIGS, ids=[f"{a}-{k}" for a, k in CONFIGS]
)
def test_parity_with_reference(algorithm, kwargs, n):
    for total in _payloads(n):
        for materialize in (None, True, False):
            args = (algorithm, n, total)
            ref, ref_error = _outcome(
                build_reference, *args, materialize=materialize, **kwargs
            )
            new, new_error = _outcome(
                build_schedule, *args, materialize=materialize, **kwargs
            )
            assert new_error == ref_error, (total, materialize)
            if ref is not None:
                assert_same_schedule(new, ref)


def test_hring_default_m_and_bad_knobs_match_reference():
    cases = [
        ("hring", 7, 100, {}),
        ("hring", 4, 100, {"m": 5}),
        ("rd", 8, 100, {"variant": "ring"}),
        ("scring", 8, 100, {"pipeline": 0}),
        ("wrht", 16, 100, {"m": 1}),
    ]
    for algorithm, n, total, kwargs in cases:
        ref, ref_error = _outcome(build_reference, algorithm, n, total, **kwargs)
        new, new_error = _outcome(build_schedule, algorithm, n, total, **kwargs)
        assert new_error == ref_error
        if ref is not None:
            assert_same_schedule(new, ref)


def test_wrht_plan_argument_matches_reference():
    from repro.core.planner import plan_wrht

    plan = plan_wrht(64, 8)
    assert_same_schedule(
        build_schedule("wrht", 64, 999, plan=plan),
        build_reference("wrht", 64, 999, plan=plan),
    )
    assert _outcome(build_schedule, "wrht", 32, 999, plan=plan)[1] == (
        _outcome(build_reference, "wrht", 32, 999, plan=plan)[1]
    )


# -- the pattern key ------------------------------------------------------------


def _wrht_kwargs(algo: str, w: int) -> dict:
    return {"n_wavelengths": w} if algo == "wrht" else {}


def _grid_schedules():
    """Every schedule the four seed-0 benchmark workloads lower."""
    from benchmarks.e2e import workloads as wl
    from repro.dnn.workload import DnnWorkload
    from repro.faults import build_degraded_wrht_schedule, plan_wrht_degraded
    from repro.runner import faultsweep
    from repro.runner.experiments import figure_cell

    for figure in ("fig6-paper", "fig7-paper"):
        for name, params in wl.DNNS:
            for algo in wl.FIG_ALGOS[figure]:
                for n in wl.FIG_NODES[figure]:
                    yield figure_cell(
                        figure.split("-")[0], n, algo, DnnWorkload(name, params),
                        mode="simulated",
                    ).schedule()
    for _, kind, w, _, in wl.BAKEOFF_BACKENDS:
        for n in wl.BAKEOFF_NODES[kind]:
            for elems in wl.BAKEOFF_PAYLOADS:
                for _, algo, kwargs in wl.LINEUP:
                    if algo == "wrht":
                        kwargs = {**kwargs, "n_wavelengths": w}
                    yield build_schedule(algo, n, elems, **kwargs)
    n, w = wl.FAULT_SYSTEM
    elems = wl.FAULT_ELEMS
    for algo in wl.REPAIR_ALGOS:
        yield build_schedule(algo, n, elems, **_wrht_kwargs(algo, w))
    for faults in faultsweep.default_fault_scenarios(n, w).values():
        yield build_schedule("wrht", n, elems, n_wavelengths=w)
        yield build_degraded_wrht_schedule(n, elems, faults, n_wavelengths=w)
        plan = plan_wrht_degraded(n, faults, n_wavelengths=w)
        yield build_schedule("wrht", plan.n_nodes, elems, plan=plan, materialize=False)
    n, w = wl.LIVE_SYSTEM
    for algo in wl.LIVE_ALGOS:
        yield build_schedule(algo, n, elems, materialize=True, **_wrht_kwargs(algo, w))


def test_bytes_keys_partition_like_tuple_keys():
    pairs = {
        (step.pattern_key(), reference_pattern_key(step))
        for schedule in _grid_schedules()
        for step, _, _ in schedule.lowering_profile()
    }
    new_keys = {new for new, _ in pairs}
    old_keys = {old for _, old in pairs}
    # Equal exactly when equal: the pairing is a bijection.
    assert len(pairs) == len(new_keys) == len(old_keys)
    assert len(pairs) > 100


def test_key_ignores_order_and_positions_but_sees_sizes_and_ops():
    base = CommStep((Transfer(0, 1, 0, 10), Transfer(2, 3, 5, 9, "copy")))
    same = CommStep((Transfer(2, 3, 0, 4, "copy"), Transfer(0, 1, 90, 100)))
    assert base.pattern_key() == same.pattern_key()
    assert base.pattern_key() != CommStep(
        (Transfer(0, 1, 0, 10), Transfer(2, 3, 5, 10, "copy"))
    ).pattern_key()
    assert base.pattern_key() != CommStep(
        (Transfer(0, 1, 0, 10, "copy"), Transfer(2, 3, 5, 9, "copy"))
    ).pattern_key()
    # A repeated (src, dst) pair sorts by size and then op.
    a = CommStep((Transfer(0, 1, 0, 5), Transfer(0, 1, 0, 3, "copy"), Transfer(0, 1, 0, 3)))
    b = CommStep((Transfer(0, 1, 0, 3), Transfer(0, 1, 0, 5), Transfer(0, 1, 0, 3, "copy")))
    assert a.pattern_key() == b.pattern_key()


# -- the step data model --------------------------------------------------------


class TestCommStepArrays:
    def _pair(self):
        transfers = (Transfer(3, 1, 0, 7), Transfer(0, 2, 2, 9, "copy"))
        by_objects = CommStep(transfers, stage="broadcast", level=2)
        by_arrays = CommStep.from_arrays(
            [3, 0], [1, 2], [0, 2], [7, 9], [0, 1], stage="broadcast", level=2
        )
        return transfers, by_objects, by_arrays

    def test_both_constructors_agree(self):
        transfers, by_objects, by_arrays = self._pair()
        assert by_arrays.transfers == transfers
        assert by_objects == by_arrays
        assert hash(by_objects) == hash(by_arrays)
        assert by_objects.pattern_key() == by_arrays.pattern_key()
        assert by_arrays.n_transfers == 2
        assert by_arrays.total_elems() == 14
        assert by_arrays != CommStep(transfers, stage="reduce", level=2)

    def test_transfer_view_fields_are_python_ints(self):
        _, _, step = self._pair()
        for t in step.transfers:
            assert all(type(v) is int for v in (t.src, t.dst, t.lo, t.hi))
        assert step.transfers is step.transfers  # built once, then kept

    def test_arrays_are_read_only_and_step_is_frozen(self):
        _, by_objects, by_arrays = self._pair()
        for step in (by_objects, by_arrays):
            for array in (step.src, step.dst, step.lo, step.hi, step.op):
                assert not array.flags.writeable
        with pytest.raises(AttributeError):
            by_arrays.stage = "reduce"

    def test_pickle_round_trip(self):
        _, _, step = self._pair()
        clone = pickle.loads(pickle.dumps(step))
        assert clone == step and clone.pattern_key() == step.pattern_key()

    @pytest.mark.parametrize(
        "row",
        [(1, 1, 0, 10, 0), (0, 1, 5, 3, 0), (0, 1, -1, 3, 0)],
    )
    def test_from_arrays_rejects_what_transfer_rejects(self, row):
        src, dst, lo, hi, op = row
        with pytest.raises(ValueError) as expected:
            Transfer(src, dst, lo, hi, ("sum", "copy")[op])
        with pytest.raises(ValueError) as got:
            CommStep.from_arrays([0, src], [1, dst], [0, lo], [1, hi], [0, op])
        assert str(got.value) == str(expected.value)

    def test_from_arrays_needs_transfers(self):
        with pytest.raises(ValueError, match="at least one transfer"):
            CommStep.from_arrays([], [], [], [], [])


# -- the memo ---------------------------------------------------------------------


class TestMemo:
    @pytest.mark.parametrize(
        "algorithm,kwargs", CONFIGS, ids=[f"{a}-{k}" for a, k in CONFIGS]
    )
    def test_builds_share_no_mutable_object(self, algorithm, kwargs):
        first = build_schedule(algorithm, 16, 1000, materialize=True, **kwargs)
        first.meta["participants"] = (0, 1)
        first.steps.append(first.steps[0])
        first.timing_profile.clear()
        second = build_schedule(algorithm, 16, 1000, materialize=True, **kwargs)
        assert "participants" not in second.meta
        assert_same_schedule(
            second,
            build_reference(algorithm, 16, 1000, materialize=True, **kwargs),
        )
        third = build_schedule(algorithm, 16, 1000, materialize=True, **kwargs)
        assert not any(a is b for a, b in zip(second.steps, third.steps))
        for step in second.steps:
            with pytest.raises(ValueError):
                step.lo[0] = 1

    def test_memo_arrays_are_read_only(self):
        build_schedule("swing", 16, 1000, materialize=True)
        build_schedule("ring", 64, 1000, materialize=False)
        for entry in list(structure._memo.values()):
            assert not entry.lo_ref.flags.writeable
            assert not entry.hi_ref.flags.writeable
            for shape in entry.shapes:
                for array in (shape.src, shape.dst, shape.op):
                    assert not array.flags.writeable

    def test_memo_is_bounded(self):
        for n in range(2, structure.MEMO_SIZE + 12):
            build_schedule("bt", n, 10)
        assert len(structure._memo) == structure.MEMO_SIZE
        structure.clear_memo()
        assert not structure._memo

    def test_a_failed_build_is_not_kept(self):
        before = len(structure._memo)
        with pytest.raises(ValueError):
            build_schedule("wrht", 16, 100, m=1)
        assert len(structure._memo) == before
