"""Fault model tests: normalization, derived views, validation."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.constraints import OpticalPhyParams
from repro.faults.models import (
    EMPTY_FAULTS,
    CutFiber,
    DeadWavelength,
    DroppedNode,
    FaultEvent,
    FaultSet,
    MrrPortFault,
    PowerDroop,
)
from repro.optical.config import OpticalSystemConfig
from repro.optical.topology import Direction
from repro.service.store import key_digest


class TestFaultSetNormalization:
    def test_order_insensitive_equality_and_hash(self):
        a = FaultSet.of(DeadWavelength(3), DroppedNode(7))
        b = FaultSet.of(DroppedNode(7), DeadWavelength(3))
        assert a == b
        assert hash(a) == hash(b)

    def test_duplicates_collapse(self):
        assert len(FaultSet.of(DeadWavelength(1), DeadWavelength(1))) == 1

    def test_empty_is_falsy(self):
        assert not EMPTY_FAULTS
        assert bool(FaultSet.of(DeadWavelength(0)))

    def test_with_fault_is_pure(self):
        base = FaultSet.of(DeadWavelength(0))
        grown = base.with_fault(DroppedNode(1))
        assert len(base) == 1
        assert len(grown) == 2
        assert grown == FaultSet.of(DroppedNode(1), DeadWavelength(0))

    def test_iterable(self):
        faults = [DeadWavelength(0), DroppedNode(2)]
        assert set(FaultSet.of(*faults)) == set(faults)


class TestDerivedViews:
    def test_dead_wavelengths_and_nodes(self):
        fs = FaultSet.of(DeadWavelength(2), DeadWavelength(5), DroppedNode(3))
        assert fs.dead_wavelengths == frozenset({2, 5})
        assert fs.dead_nodes == frozenset({3})

    def test_droop_stacks_additively_in_db(self):
        fs = FaultSet.of(PowerDroop(1.0), PowerDroop(0.5))
        assert fs.droop_db == pytest.approx(1.5)

    def test_is_cut_direction_scoping(self):
        fs = FaultSet.of(CutFiber(4, direction="cw"))
        assert fs.is_cut(4, Direction.CW)
        assert not fs.is_cut(4, Direction.CCW)
        both = FaultSet.of(CutFiber(4))
        assert both.is_cut(4, Direction.CW) and both.is_cut(4, Direction.CCW)

    @pytest.mark.parametrize("mode", ["dead", "stuck"])
    def test_endpoint_blocked_covers_both_modes(self, mode):
        fs = FaultSet.of(MrrPortFault(3, 1, mode=mode))
        assert fs.endpoint_blocked(3, Direction.CW) == frozenset({1})
        assert fs.endpoint_blocked(3, Direction.CCW) == frozenset({1})
        assert fs.endpoint_blocked(4, Direction.CW) == frozenset()

    def test_endpoint_blocked_direction_scoped(self):
        fs = FaultSet.of(MrrPortFault(3, 1, direction="ccw"))
        assert fs.endpoint_blocked(3, Direction.CW) == frozenset()
        assert fs.endpoint_blocked(3, Direction.CCW) == frozenset({1})

    def test_quarantine_masks_span_adjacent_segments(self):
        fs = FaultSet.of(MrrPortFault(3, 0, mode="stuck"))
        masks = fs.segment_quarantine_masks(8)
        span = (1 << 3) | (1 << 2)
        assert masks == {
            (Direction.CW, 0): span,
            (Direction.CCW, 0): span,
        }

    def test_quarantine_wraps_at_node_zero(self):
        fs = FaultSet.of(MrrPortFault(0, 2, mode="stuck", direction="cw"))
        masks = fs.segment_quarantine_masks(8)
        assert masks == {(Direction.CW, 2): (1 << 0) | (1 << 7)}

    def test_dead_mode_never_quarantines(self):
        fs = FaultSet.of(MrrPortFault(3, 0, mode="dead"))
        assert fs.segment_quarantine_masks(8) == {}

    def test_effective_phy_derates_both_budgets(self):
        phy = OpticalPhyParams()
        derated = FaultSet.of(PowerDroop(2.0)).effective_phy(phy)
        assert derated.laser_power_dbm == pytest.approx(phy.laser_power_dbm - 2.0)
        assert derated.signal_power_mw == pytest.approx(
            phy.signal_power_mw * 10 ** -0.2
        )

    def test_effective_phy_identity_cases(self):
        phy = OpticalPhyParams()
        assert EMPTY_FAULTS.effective_phy(phy) is phy
        assert FaultSet.of(PowerDroop(1.0)).effective_phy(None) is None


def _is_cut_scan(fs, segment, direction):
    """``FaultSet.is_cut`` as it was: a scan over every fault."""
    return any(
        isinstance(f, CutFiber)
        and f.segment == segment
        and (f.direction is None or f.direction == direction.value)
        for f in fs.faults
    )


def _endpoint_blocked_scan(fs, node, direction):
    """``FaultSet.endpoint_blocked`` as it was: a filter over port faults."""
    return frozenset(
        f.wavelength
        for f in fs.port_faults
        if f.node == node and (f.direction is None or f.direction == direction.value)
    )


_DIRS = st.sampled_from([None, "cw", "ccw"])
_FAULTS = st.one_of(
    st.builds(DeadWavelength, st.integers(0, 5)),
    st.builds(
        MrrPortFault, st.integers(0, 7), st.integers(0, 5),
        st.sampled_from(["dead", "stuck"]), _DIRS,
    ),
    st.builds(CutFiber, st.integers(0, 7), _DIRS),
    st.builds(DroppedNode, st.integers(0, 7)),
    st.builds(PowerDroop, st.sampled_from([0.5, 1.0])),
)


class TestCachedViews:
    """``is_cut``/``endpoint_blocked`` answer from views built once per
    set; they must agree with the per-call scans they replaced and leave
    the set's identity (every plan-cache key embeds it) untouched."""

    @settings(max_examples=150, deadline=None)
    @given(faults=st.lists(_FAULTS, max_size=8))
    def test_views_match_scans(self, faults):
        fs = FaultSet(tuple(faults))
        for node in range(9):
            for direction in Direction:
                assert fs.is_cut(node, direction) == _is_cut_scan(fs, node, direction)
                assert fs.endpoint_blocked(node, direction) == (
                    _endpoint_blocked_scan(fs, node, direction)
                )

    @settings(max_examples=50, deadline=None)
    @given(faults=st.lists(_FAULTS, max_size=8))
    def test_views_leave_identity_unchanged(self, faults):
        fs = FaultSet(tuple(faults))
        fresh = FaultSet(tuple(faults))
        before = (repr(fs), hash(fs), key_digest((fs, "first_fit")))
        fs.is_cut(0, Direction.CW)
        fs.endpoint_blocked(0, Direction.CCW)
        assert (repr(fs), hash(fs), key_digest((fs, "first_fit"))) == before
        assert fs == fresh and hash(fs) == hash(fresh)
        clone = pickle.loads(pickle.dumps(fs))
        assert clone == fs and repr(clone) == repr(fs)
        assert clone.endpoint_blocked(0, Direction.CW) == fs.endpoint_blocked(
            0, Direction.CW
        )

    def test_views_built_once(self):
        fs = FaultSet.of(MrrPortFault(3, 1), CutFiber(2, direction="cw"))
        assert fs.endpoint_blocked(3, Direction.CW) is fs.endpoint_blocked(
            3, Direction.CW
        )
        assert fs._cut_segments is fs._cut_segments


class TestValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            lambda: DeadWavelength(-1),
            lambda: MrrPortFault(-1, 0),
            lambda: MrrPortFault(0, -1),
            lambda: MrrPortFault(0, 0, mode="broken"),
            lambda: MrrPortFault(0, 0, direction="up"),
            lambda: CutFiber(-1),
            lambda: CutFiber(0, direction="up"),
            lambda: DroppedNode(-1),
            lambda: PowerDroop(0.0),
            lambda: FaultEvent(-1.0, DeadWavelength(0)),
        ],
    )
    def test_constructor_bounds(self, bad):
        with pytest.raises(ValueError):
            bad()

    @pytest.mark.parametrize(
        "fault",
        [
            DeadWavelength(8),
            MrrPortFault(16, 0),
            MrrPortFault(0, 8),
            CutFiber(16),
            DroppedNode(16),
        ],
    )
    def test_out_of_range_vs_system(self, fault):
        with pytest.raises(ValueError, match="out of range"):
            FaultSet.of(fault).validate(16, 8)

    def test_everything_dead_rejected(self):
        all_lams = FaultSet.of(*[DeadWavelength(i) for i in range(4)])
        with pytest.raises(ValueError, match="wavelength must survive"):
            all_lams.validate(8, 4)
        all_nodes = FaultSet.of(*[DroppedNode(i) for i in range(4)])
        with pytest.raises(ValueError, match="node must survive"):
            all_nodes.validate(4, 8)


class TestConfigIntegration:
    def test_faults_fold_into_dead_wavelengths(self):
        cfg = OpticalSystemConfig(
            n_nodes=16,
            n_wavelengths=8,
            failed_wavelengths=frozenset({1}),
            faults=FaultSet.of(DeadWavelength(2)),
        )
        assert cfg.dead_wavelengths == frozenset({1, 2})
        assert cfg.usable_wavelengths == 6

    def test_empty_faultset_config_equals_default(self):
        # The plan cache keys on the frozen config, so attaching an empty
        # fault set must not create a distinct key.
        plain = OpticalSystemConfig(n_nodes=16, n_wavelengths=8)
        gated = OpticalSystemConfig(
            n_nodes=16, n_wavelengths=8, faults=FaultSet()
        )
        assert plain == gated
        assert hash(plain) == hash(gated)

    def test_config_validates_fault_bounds(self):
        with pytest.raises(ValueError, match="out of range"):
            OpticalSystemConfig(
                n_nodes=16, n_wavelengths=8,
                faults=FaultSet.of(DeadWavelength(8)),
            )

    def test_config_coerces_iterables(self):
        cfg = OpticalSystemConfig(
            n_nodes=16, n_wavelengths=8, faults=[DeadWavelength(0)]
        )
        assert isinstance(cfg.faults, FaultSet)
        assert cfg.faults == FaultSet.of(DeadWavelength(0))

    def test_effective_phy_on_config(self):
        cfg = OpticalSystemConfig(
            n_nodes=16, n_wavelengths=8, phy=OpticalPhyParams(),
            faults=FaultSet.of(PowerDroop(1.0)),
        )
        assert cfg.effective_phy.laser_power_dbm == pytest.approx(
            cfg.phy.laser_power_dbm - 1.0
        )

    def test_effective_phy_none_without_phy(self):
        cfg = OpticalSystemConfig(
            n_nodes=16, n_wavelengths=8, faults=FaultSet.of(PowerDroop(1.0))
        )
        assert cfg.effective_phy is None
