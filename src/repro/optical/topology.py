"""Ring topology: segments, directions, and shortest paths.

Segment ``i`` is the fiber span between node ``i`` and node ``(i+1) mod N``.
A clockwise (CW) transmission from ``a`` to ``b`` crosses segments
``a, a+1, …, b−1`` (mod N); counter-clockwise (CCW) crosses
``a−1, a−2, …, b`` (mod N). Each direction is a separate fiber (pool), so
CW and CCW transmissions never conflict — this is what lets a WRHT group's
two sides reuse the same wavelength indices.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.util.validation import check_positive_int


class Direction(enum.Enum):
    """Transmission direction around the ring."""

    CW = "cw"
    CCW = "ccw"

    def opposite(self) -> "Direction":
        """The other direction."""
        return Direction.CCW if self is Direction.CW else Direction.CW


@dataclass(frozen=True)
class Route:
    """A concrete path: direction plus the segment ids it crosses, in order.

    ``hops`` (the number of crossed segments) is what the physical-layer
    budget counts as passed interfaces.
    """

    direction: Direction
    segments: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("a route must cross at least one segment")
        if len(set(self.segments)) != len(self.segments):
            raise ValueError(f"route revisits a segment: {self.segments}")

    @property
    def hops(self) -> int:
        """Number of segments crossed."""
        return len(self.segments)


class RingTopology:
    """An N-node bidirectional optical ring."""

    def __init__(self, n_nodes: int) -> None:
        check_positive_int("n_nodes", n_nodes)
        if n_nodes < 2:
            raise ValueError("a ring needs at least 2 nodes")
        self.n_nodes = n_nodes

    def _check_node(self, node: int) -> None:
        if not (0 <= node < self.n_nodes):
            raise ValueError(f"node {node} out of range [0, {self.n_nodes})")

    def cw_distance(self, src: int, dst: int) -> int:
        """Hops from ``src`` to ``dst`` going clockwise."""
        self._check_node(src)
        self._check_node(dst)
        return (dst - src) % self.n_nodes

    def ccw_distance(self, src: int, dst: int) -> int:
        """Hops from ``src`` to ``dst`` going counter-clockwise."""
        return (src - dst) % self.n_nodes

    def cw_route(self, src: int, dst: int) -> Route:
        """The clockwise route (src != dst)."""
        dist = self.cw_distance(src, dst)
        if dist == 0:
            raise ValueError(f"no route from node {src} to itself")
        end = src + dist
        if end <= self.n_nodes:
            segments = tuple(range(src, end))
        else:
            segments = tuple(range(src, self.n_nodes)) + tuple(range(end - self.n_nodes))
        return Route(Direction.CW, segments)

    def ccw_route(self, src: int, dst: int) -> Route:
        """The counter-clockwise route (src != dst)."""
        dist = self.cw_distance(dst, src)  # the CCW distance, both nodes checked
        if dist == 0:
            raise ValueError(f"no route from node {src} to itself")
        end = src - dist
        if end >= 0:
            segments = tuple(range(src - 1, end - 1, -1))
        else:
            segments = tuple(range(src - 1, -1, -1)) + tuple(
                range(self.n_nodes - 1, self.n_nodes + end - 1, -1)
            )
        return Route(Direction.CCW, segments)

    def shortest_route(self, src: int, dst: int) -> Route:
        """The shorter of the two directional routes.

        Exact ties (``dst`` diametrically opposite ``src`` on an even ring)
        alternate by endpoint order: ``src < dst`` goes CW, otherwise CCW.
        This balances the two fiber directions — with tie→CW, an all-to-all
        among k evenly spread nodes would overload the CW fibers and exceed
        the ``⌈k²/8⌉`` wavelength bound that assumes balanced directions.
        """
        cw = self.cw_distance(src, dst)
        ccw = self.ccw_distance(src, dst)
        if cw == 0:
            raise ValueError(f"no route from node {src} to itself")
        if cw < ccw or (cw == ccw and src < dst):
            return self.cw_route(src, dst)
        return self.ccw_route(src, dst)

    def route(self, src: int, dst: int, direction: Direction | None = None) -> Route:
        """A route in the given direction, or the shortest when ``None``."""
        if direction is None:
            return self.shortest_route(src, dst)
        if direction is Direction.CW:
            return self.cw_route(src, dst)
        return self.ccw_route(src, dst)
