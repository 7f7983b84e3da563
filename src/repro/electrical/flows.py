"""Max-min fair fluid flow simulation (the SimGrid-equivalent core).

Flow-level ("fluid") network models replace per-packet events with rate
shares: at any instant, every active flow gets its max-min fair share of
each link it crosses; the simulation jumps from flow completion to flow
completion, recomputing shares in between. This is the same family of model
SimGrid's network layer uses, which is why it is a faithful substitute for
the paper's electrical baseline (DESIGN.md §5).

:func:`max_min_rates` implements classic progressive filling:

1. every loaded link's fair share is ``residual_capacity / unfrozen_flows``;
2. the link with the smallest share is the bottleneck (the first such link
   in *first-appearance order*: flows in input order, links in path order);
   its unfrozen flows are frozen at that share;
3. the share is subtracted from every link those flows cross, once per
   (flow, link) entry, and residuals are clipped at zero; repeat until all
   flows are frozen.

The filling runs over the flow×link incidence as flat arrays. Links are
relabelled in first-appearance order, per-link flow counts come from
``np.bincount``, and each bottleneck search is one vector division over the
loaded links, whose first minimum is the first such link in that order.

Most picks tie: a fat-tree step has few distinct link loads, so the 444
calls of the Fig 7 paper grid make 86,520 bottleneck picks at only 1,124
distinct shares (counted per call). All loaded links tied at the minimum
share ``s`` are therefore frozen in one pass, in first-appearance order,
under two rules:

- a tied link that an earlier freeze in the pass touched is skipped (it is
  now unloaded, or its share is now above ``s``);
- the pass ends after a freeze that leaves a touched, still-loaded link at
  a share ``<= s``.

Links the pass has not touched keep their share, so each freeze is the one
the one-bottleneck-per-search loop picks next. Every subtraction in a pass
takes away the same ``s``, so the order of the entries does not change the
rounding. Capacities are checked finite and non-negative, so ``s >= 0`` and
a residual that goes negative stays negative for the rest of the pass:
clipping at zero once per pass equals clipping after every freeze. The
rates are therefore bit-identical to that loop, which
``tests/electrical/maxmin_reference.py`` keeps as the parity oracle. The
freezes themselves run over Python lists: each touches a handful of
entries, where a NumPy call per freeze costs more than the loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, chain

import numpy as np


@dataclass
class Flow:
    """One fluid flow.

    Attributes:
        flow_id: Caller-chosen identifier.
        links: Link ids the flow crosses.
        size: Total bytes to move.
        latency: Fixed delay added to the fluid finish time (router
            forwarding delays).
        remaining: Bytes still to move (mutated by the simulation).
        finish_time: Set when the flow completes.
    """

    flow_id: int
    links: tuple[int, ...]
    size: float
    latency: float = 0.0
    remaining: float = field(init=False)
    finish_time: float | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"flow size must be >= 0, got {self.size!r}")
        if self.latency < 0:
            raise ValueError(f"latency must be >= 0, got {self.latency!r}")
        if not self.links:
            raise ValueError("a flow needs at least one link")
        if min(self.links) < 0:
            raise ValueError(f"link ids must be >= 0, got {self.links!r}")
        if len(set(self.links)) != len(self.links):
            raise ValueError(f"a flow crosses each link once, got {self.links!r}")
        self.remaining = self.size


def max_min_rates(flows: list[Flow], capacities: list[float]) -> np.ndarray:
    """Max-min fair rates for ``flows`` over links with ``capacities``.

    Args:
        flows: Active flows (each with at least one link).
        capacities: Bytes/second per link id.

    Returns:
        Array of rates (bytes/second), one per flow, in input order.

    Raises:
        ValueError: A flow crosses a link id with no capacity, or a crossed
            link's capacity is negative or not finite.
    """
    n_flows = len(flows)
    if n_flows == 0:
        return np.zeros(0)
    lengths = [len(flow.links) for flow in flows]
    ids = np.fromiter(
        chain.from_iterable(flow.links for flow in flows),
        dtype=np.intp,
        count=sum(lengths),
    )
    if ids.min() < 0 or ids.max() >= len(capacities):
        raise ValueError(
            f"link ids must lie in [0, {len(capacities)}), "
            f"got {int(ids.min())}..{int(ids.max())}"
        )
    # Relabel the crossed links 0..L-1 in first-appearance order.
    link_ids, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    label = rank[inverse]
    residual_arr = np.asarray(capacities, dtype=float)[link_ids[order]]
    if not (np.isfinite(residual_arr).all() and residual_arr.min() >= 0.0):
        raise ValueError("crossed link capacities must be finite and >= 0")
    count_arr = np.bincount(label)
    # The searches read the arrays; the freezes update Python-list copies,
    # written back to the arrays for the links a pass touched.
    residual = residual_arr.tolist()
    count = count_arr.tolist()
    # Incidence both ways, as offsets into flat lists: flow i crosses
    # path_links[flow_start[i]:flow_start[i + 1]]; link l carries
    # link_flows[link_start[l]:link_start[l + 1]].
    path_links = label.tolist()
    flow_start = [0, *accumulate(lengths)]
    link_flows = np.repeat(np.arange(n_flows), lengths)[
        np.argsort(label, kind="stable")
    ].tolist()
    link_start = [0, *accumulate(count)]
    rates = [0.0] * n_flows
    frozen = [False] * n_flows
    unfrozen = n_flows
    loaded = np.arange(len(count))
    while unfrozen:
        loaded = loaded[count_arr[loaded] > 0]
        shares = residual_arr[loaded] / count_arr[loaded]
        bottleneck_share = shares.min()
        share = float(bottleneck_share)
        # Freeze every link tied at the minimum, under the two rules above.
        touched: set[int] = set()
        for link in loaded[shares == bottleneck_share].tolist():
            if link in touched:
                continue
            hit: list[int] = []
            for i in link_flows[link_start[link]:link_start[link + 1]]:
                if frozen[i]:
                    continue
                frozen[i] = True
                rates[i] = share
                unfrozen -= 1
                path = path_links[flow_start[i]:flow_start[i + 1]]
                for l in path:
                    residual[l] -= share
                    count[l] -= 1
                hit += path
            touched.update(hit)
            if any(count[l] and residual[l] / count[l] <= share for l in hit):
                break
        # Numerical guard: residuals may go slightly negative from float
        # accumulation; clamp so later shares stay non-negative.
        changed = list(touched)
        for l in changed:
            if residual[l] < 0.0:
                residual[l] = 0.0
        residual_arr[changed] = [residual[l] for l in changed]
        count_arr[changed] = [count[l] for l in changed]
    return np.array(rates)


class FluidSimulation:
    """Run a set of flows to completion under max-min fair sharing."""

    def __init__(self, capacities: list[float]) -> None:
        if not capacities:
            raise ValueError("need at least one link")
        if any(c <= 0 for c in capacities):
            raise ValueError("all link capacities must be positive")
        self.capacities = list(capacities)

    def run(self, flows: list[Flow]) -> float:
        """Advance all ``flows`` to completion.

        Returns:
            The time the last flow finishes, *including* per-flow fixed
            latencies. Each flow's :attr:`Flow.finish_time` is set.
        """
        clock = 0.0
        zero_flows = [f for f in flows if f.size == 0]
        for f in zero_flows:
            f.remaining = 0.0
            f.finish_time = f.latency
        active = [f for f in flows if f.size > 0]
        while active:
            rates = max_min_rates(active, self.capacities)
            if not np.all(rates > 0):
                raise AssertionError("max-min assigned a zero rate to an active flow")
            # Jump to the next completion.
            dt = min(f.remaining / r for f, r in zip(active, rates))
            clock += dt
            still_active = []
            for f, r in zip(active, rates):
                f.remaining -= r * dt
                if f.remaining <= 1e-9 * max(f.size, 1.0):
                    f.remaining = 0.0
                    f.finish_time = clock + f.latency
                else:
                    still_active.append(f)
            active = still_active
        return max((f.finish_time for f in flows), default=0.0)
