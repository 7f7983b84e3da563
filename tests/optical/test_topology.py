"""Ring topology tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.optical.topology import Direction, RingTopology, Route


class TestRoute:
    def test_needs_segments(self):
        with pytest.raises(ValueError):
            Route(Direction.CW, ())

    def test_no_revisits(self):
        with pytest.raises(ValueError):
            Route(Direction.CW, (1, 2, 1))

    def test_hops(self):
        assert Route(Direction.CW, (0, 1, 2)).hops == 3


class TestDirection:
    def test_opposite(self):
        assert Direction.CW.opposite() is Direction.CCW
        assert Direction.CCW.opposite() is Direction.CW


class TestRingTopology:
    def test_needs_two_nodes(self):
        with pytest.raises(ValueError):
            RingTopology(1)

    def test_cw_route_segments(self):
        ring = RingTopology(8)
        assert ring.cw_route(2, 5).segments == (2, 3, 4)

    def test_cw_route_wraps(self):
        ring = RingTopology(8)
        assert ring.cw_route(6, 1).segments == (6, 7, 0)

    def test_ccw_route_segments(self):
        ring = RingTopology(8)
        # CCW from 5 to 2 crosses segments 4, 3, 2.
        assert ring.ccw_route(5, 2).segments == (4, 3, 2)

    def test_ccw_route_wraps(self):
        ring = RingTopology(8)
        assert ring.ccw_route(1, 6).segments == (0, 7, 6)

    def test_shortest_prefers_fewer_hops(self):
        ring = RingTopology(10)
        assert ring.shortest_route(0, 3).direction is Direction.CW
        assert ring.shortest_route(0, 7).direction is Direction.CCW

    def test_tie_goes_clockwise(self):
        ring = RingTopology(8)
        assert ring.shortest_route(0, 4).direction is Direction.CW

    def test_self_route_rejected(self):
        with pytest.raises(ValueError):
            RingTopology(4).shortest_route(2, 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            RingTopology(4).cw_route(0, 7)
        for src, dst in ((0, 7), (7, 0), (-1, 2)):
            with pytest.raises(ValueError):
                RingTopology(4).ccw_route(src, dst)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 17, 64])
    def test_routes_match_modular_formula(self, n):
        # Every (src, dst): the range slices equal the per-segment formula.
        ring = RingTopology(n)
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                cw = tuple((a + k) % n for k in range(ring.cw_distance(a, b)))
                ccw = tuple((a - 1 - k) % n for k in range(ring.ccw_distance(a, b)))
                assert ring.cw_route(a, b).segments == cw
                assert ring.ccw_route(a, b).segments == ccw

    @given(st.integers(2, 100), st.integers(0, 99), st.integers(0, 99))
    def test_distance_identity(self, n, a, b):
        a, b = a % n, b % n
        ring = RingTopology(n)
        if a != b:
            assert ring.cw_distance(a, b) + ring.ccw_distance(a, b) == n
            assert ring.cw_route(a, b).hops == ring.cw_distance(a, b)
            assert ring.shortest_route(a, b).hops <= n // 2

    @given(st.integers(2, 60), st.integers(0, 59), st.integers(0, 59))
    def test_routes_end_adjacent_to_destination(self, n, a, b):
        a, b = a % n, b % n
        if a == b:
            return
        ring = RingTopology(n)
        cw = ring.cw_route(a, b)
        assert cw.segments[0] == a
        assert (cw.segments[-1] + 1) % n == b
        ccw = ring.ccw_route(a, b)
        assert ccw.segments[0] == (a - 1) % n
        assert ccw.segments[-1] == b
