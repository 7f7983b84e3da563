"""Optical 2-D torus/mesh substrate (prices the Sec 6.1 extension).

An ``R × C`` grid where every row and every column is its own optical ring
(or line, for a mesh): the natural silicon-photonics generalization of the
TeraRack ring, and the fabric the paper's Sec 6.1 sketch assumes. Routing
is dimension-ordered (row leg, then column leg), each leg taking the
shorter wrap direction on a torus (meshes have no wrap).

Wavelength assignment reuses the ring RWA machinery through a *virtual
segment space*: every (dimension, ring-index, direction, segment) gets a
unique integer id, and each route is expressed over those ids — two
transfers conflict exactly when they share a physical fiber span in the
same direction on the same wavelength, across row/column/leg combinations.

The executor mirrors :class:`~repro.optical.network.OpticalRingNetwork`:
bulk-synchronous steps, MRR reconfiguration per round, pattern-cached
pricing, spill-to-rounds under wavelength scarcity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

from repro.backend.errors import BackendConfigError
from repro.backend.plancache import (
    CachedRound,
    PlanCache,
    PlanCacheCounters,
    default_plan_cache,
)
from repro.collectives.base import CommStep, Schedule
from repro.core.timing import CostModel
from repro.optical.config import OpticalSystemConfig
from repro.optical.rwa import plan_rounds
from repro.optical.topology import Direction, Route
from repro.util.validation import check_positive_int


class TorusTopology:
    """An ``R × C`` grid of row/column optical rings (or mesh lines)."""

    def __init__(self, rows: int, cols: int, wraparound: bool = True) -> None:
        check_positive_int("rows", rows)
        check_positive_int("cols", cols)
        self.rows = rows
        self.cols = cols
        self.wraparound = wraparound
        # Virtual segment space: row segments then column segments, two
        # directions each. Row r has `cols` spans (c -> c+1 wraps at the
        # end); column c has `rows` spans.
        self._row_base = 0
        self._col_base = rows * cols * 2

    @property
    def n_nodes(self) -> int:
        """Grid size."""
        return self.rows * self.cols

    @property
    def n_virtual_segments(self) -> int:
        """Size of the flattened (dimension, ring, direction, span) space."""
        return self.rows * self.cols * 2 + self.cols * self.rows * 2

    def node(self, r: int, c: int) -> int:
        """Node id of grid coordinate (row-major)."""
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise ValueError(f"coordinate ({r}, {c}) out of range")
        return r * self.cols + c

    def coords(self, node: int) -> tuple[int, int]:
        """Grid coordinate of a node id."""
        if not (0 <= node < self.n_nodes):
            raise ValueError(f"node {node} out of range")
        return divmod(node, self.cols)

    # -- virtual segment ids ----------------------------------------------
    def _row_segment(self, r: int, span: int, positive: bool) -> int:
        return self._row_base + ((r * self.cols + span) * 2) + (0 if positive else 1)

    def _col_segment(self, c: int, span: int, positive: bool) -> int:
        return self._col_base + ((c * self.rows + span) * 2) + (0 if positive else 1)

    def _line_spans(self, size: int, a: int, b: int) -> tuple[bool, list[int]]:
        """Spans crossed moving from index ``a`` to ``b`` within one ring
        of ``size`` positions; returns (positive_direction, spans)."""
        if a == b:
            return True, []
        forward = (b - a) % size
        backward = (a - b) % size
        if not self.wraparound:
            # A mesh line: only the direct (non-wrapping) path exists.
            if b > a:
                return True, list(range(a, b))
            return False, list(range(b, a))
        if forward < backward or (forward == backward and a < b):
            return True, [(a + k) % size for k in range(forward)]
        return False, [(b + k) % size for k in range(backward)]

    def route(self, src: int, dst: int) -> Route:
        """Dimension-ordered route: row leg to the target column, then
        column leg to the target row."""
        if src == dst:
            raise ValueError(f"no route from node {src} to itself")
        (r1, c1), (r2, c2) = self.coords(src), self.coords(dst)
        segments: list[int] = []
        if c1 != c2:
            positive, spans = self._line_spans(self.cols, c1, c2)
            segments.extend(self._row_segment(r1, s, positive) for s in spans)
        if r1 != r2:
            positive, spans = self._line_spans(self.rows, r1, r2)
            segments.extend(self._col_segment(c2, s, positive) for s in spans)
        # Direction is folded into the virtual segment ids; the Route's
        # direction field is a constant placeholder.
        return Route(Direction.CW, tuple(segments))


@dataclass(frozen=True)
class TorusStepTiming:
    """Timing of one torus profile entry."""

    stage: str
    count: int
    n_transfers: int
    rounds: int
    duration: float


@dataclass
class TorusRunResult:
    """Result of pricing a schedule on the torus substrate.

    ``cache`` carries the cross-run plan-cache hit/miss/eviction tallies
    for this run (see :mod:`repro.backend.plancache`).
    """

    algorithm: str
    n_steps: int
    total_time: float
    step_timings: list[TorusStepTiming] = field(default_factory=list)
    cache: PlanCacheCounters = field(default_factory=PlanCacheCounters)

    @property
    def total_rounds(self) -> int:
        """Reconfiguration rounds across the run."""
        return sum(t.rounds * t.count for t in self.step_timings)


class TorusOpticalNetwork:
    """Schedule executor for the optical torus/mesh.

    Reuses the ring's :class:`~repro.optical.config.OpticalSystemConfig`
    for rates/overheads; ``config.n_nodes`` must equal ``rows × cols``.
    """

    def __init__(
        self,
        config: OpticalSystemConfig,
        rows: int,
        cols: int,
        wraparound: bool = True,
        plan_cache: PlanCache | None = None,
    ) -> None:
        if rows * cols != config.n_nodes:
            raise ValueError(
                f"{rows}x{cols} grid has {rows * cols} nodes but config says "
                f"{config.n_nodes}"
            )
        self.config = config
        self.topology = TorusTopology(rows, cols, wraparound=wraparound)
        self.plan_cache = default_plan_cache() if plan_cache is None else plan_cache
        # "torus" disambiguates from ring entries sharing the same config.
        self._plan_key_base = (config, rows, cols, wraparound, "torus")
        self._cost = config.cost_model()

    @property
    def cost_model(self) -> CostModel:
        """The analytical cost model used for payload durations."""
        return self._cost

    def execute(self, schedule: Schedule, bytes_per_elem: float = 4.0) -> TorusRunResult:
        """Price ``schedule`` on the torus (bulk-synchronous steps)."""
        if schedule.n_nodes > self.config.n_nodes:
            raise BackendConfigError(
                f"schedule spans {schedule.n_nodes} nodes but the torus has "
                f"{self.config.n_nodes}",
                backend="optical-torus",
            )
        if bytes_per_elem <= 0:
            raise BackendConfigError(
                f"bytes_per_elem must be positive, got {bytes_per_elem!r}",
                backend="optical-torus",
            )
        result = TorusRunResult(
            algorithm=schedule.algorithm, n_steps=schedule.n_steps, total_time=0.0
        )
        cache: dict[Hashable, TorusStepTiming] = {}
        for step, count, key in schedule.lowering_profile():
            timing = cache.get(key)
            if timing is None:
                timing = self._time_step(
                    step, count, bytes_per_elem, key, result.cache
                )
                cache[key] = timing
            result.step_timings.append(timing)
            result.total_time += timing.duration * count
        return result

    def _time_step(
        self,
        step: CommStep,
        count: int,
        bytes_per_elem: float,
        pattern_key: Hashable,
        counters: PlanCacheCounters,
    ) -> TorusStepTiming:
        use_cache = self.plan_cache.enabled
        if use_cache:
            key = (pattern_key, self._plan_key_base, bytes_per_elem)
            cached = self.plan_cache.get(key)
            if cached is not None:
                counters.hits += 1
                return self._timing_from_rounds(step, count, cached)
            counters.misses += 1
        routes = [self.topology.route(t.src, t.dst) for t in step.transfers]
        rounds = plan_rounds(
            routes,
            n_segments=self.topology.n_virtual_segments,
            n_wavelengths=self.config.n_wavelengths,
            fibers_per_direction=self.config.fibers_per_direction,
            blocked=self.config.dead_wavelengths,
        )
        summary = tuple(
            CachedRound(
                n_circuits=len(assignment),
                max_payload_s=max(
                    self._cost.payload_time(step.transfers[i].n_elems * bytes_per_elem)
                    for i in assignment
                ),
                peak_wavelength=max(lam for _, lam in assignment.values()) + 1,
                payload_bytes=sum(
                    step.transfers[i].n_elems * bytes_per_elem for i in assignment
                ),
            )
            for assignment in rounds
        )
        if use_cache:
            counters.evictions += self.plan_cache.put(key, summary)
        return self._timing_from_rounds(step, count, summary)

    def _timing_from_rounds(
        self, step: CommStep, count: int, rounds: tuple[CachedRound, ...]
    ) -> TorusStepTiming:
        """Fold per-round summaries into a TorusStepTiming (same float
        accumulation order as fresh pricing, so cache hits are bit-exact)."""
        duration = 0.0
        for rnd in rounds:
            duration += self.config.mrr_reconfig_delay + rnd.max_payload_s
        return TorusStepTiming(
            stage=step.stage, count=count, n_transfers=step.n_transfers,
            rounds=len(rounds), duration=duration,
        )
