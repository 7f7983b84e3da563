"""Packet-level electrical simulation — the fluid model's ground truth.

The fat-tree executor uses a fluid (max-min fair) model, as SimGrid does.
This module provides the microscopic counterpart on the DES kernel: every
transfer is chopped into Table 2's 72-byte packets; each link is a
rate-limited :class:`~repro.sim.resources.Pipe` whose delivery latency is
the downstream router's forwarding delay; a forwarder process per switch
output port store-and-forwards packets hop by hop. Output-port queueing,
cross-flow interleaving and pipeline-fill latency all emerge rather than
being assumed.

Purpose: validating the fluid model. For a single uncontended flow the
packet simulation converges to ``size/rate + routers·delay`` (the fluid
answer) up to per-packet quantization; under contention the interleaving
approximates the max-min fair share. The test suite checks both, which is
what justifies using the (vastly faster) fluid executor for the Fig 7
sweeps. O(packets × hops) events — keep payloads small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.collectives.base import CommStep, Schedule
from repro.electrical.config import ElectricalSystemConfig
from repro.electrical.fattree import FatTree
from repro.electrical.routing import route
from repro.sim import Pipe, Simulator
from repro.util.validation import check_positive


@dataclass
class PacketRunResult:
    """Result of a packet-level run.

    Attributes:
        total_time: Seconds until the last packet of the last step arrived.
        n_packets: Packets injected across all steps.
        n_events: Kernel events processed.
        per_step: Duration of each executed step.
    """

    total_time: float
    n_packets: int
    n_events: int
    per_step: list[float]


class PacketLevelNetwork:
    """Store-and-forward packet simulation of the fat-tree."""

    def __init__(self, config: ElectricalSystemConfig) -> None:
        self.config = config
        self.tree = FatTree(config)

    def execute(self, schedule: Schedule, bytes_per_elem: float = 4.0) -> PacketRunResult:
        """Run ``schedule`` packet by packet (steps are barriers).

        Requires materialized steps; intended for small payloads.
        """
        if schedule.n_nodes > self.config.n_nodes:
            raise ValueError(
                f"schedule spans {schedule.n_nodes} nodes but the fat-tree "
                f"has {self.config.n_nodes} hosts"
            )
        check_positive("bytes_per_elem", bytes_per_elem)
        totals = PacketRunResult(0.0, 0, 0, [])
        clock = 0.0
        for step in schedule.iter_steps():
            duration, packets, events = self._run_step(step, bytes_per_elem)
            clock += duration
            totals.per_step.append(duration)
            totals.n_packets += packets
            totals.n_events += events
        totals.total_time = clock
        return totals

    # -- internals ------------------------------------------------------
    def _run_step(self, step: CommStep, bytes_per_elem: float) -> tuple[float, int, int]:
        sim = Simulator()
        rate = self.config.line_rate
        delay = self.config.router_delay
        pkt = self.config.packet_bytes
        links = self.tree.links

        # A packet arriving on a link lands at the link's head entity; the
        # forwarding delay applies when that entity is a router.
        def head_latency(link_id: int) -> float:
            return delay if links[link_id].kind != "host_down" else 0.0

        pipes = {
            link.link_id: Pipe(
                sim, rate=rate, latency=head_latency(link.link_id),
                name=f"link{link.link_id}",
            )
            for link in links
        }

        routes = [
            route(self.tree, t.src, t.dst, ecmp=self.config.ecmp)
            for t in step.transfers
        ]
        packet_counts = [
            max(1, math.ceil(t.n_elems * bytes_per_elem / pkt)) if t.n_elems else 0
            for t in step.transfers
        ]
        total_packets = sum(packet_counts)
        if total_packets == 0:
            return 0.0, 0, 0
        done = sim.event("step-complete")
        remaining = {
            i: count for i, count in enumerate(packet_counts) if count > 0
        }

        def forwarder(link_id: int):
            pipe = pipes[link_id]
            while True:
                packet = yield pipe.get()
                flow_id, path, hop = packet
                if hop + 1 < len(path):
                    pipes[path[hop + 1]].put((flow_id, path, hop + 1), size=pkt)
                else:
                    remaining[flow_id] -= 1
                    if remaining[flow_id] == 0:
                        del remaining[flow_id]
                        if not remaining and not done.triggered:
                            done.succeed(sim.now)

        used_links = {lid for r in routes for lid in r.links}
        # DET002: link ids are small ints, whose set order no hash seed
        # moves; it fixes the forwarders' DES start order, which sorted()
        # would change.
        for link_id in used_links:
            sim.process(forwarder(link_id), name=f"fwd{link_id}")

        # Round-robin injection across transfers so flows sharing a source
        # NIC interleave at packet granularity (like real NIC scheduling),
        # rather than one flow monopolizing the first link FIFO.
        cursors = {i: packet_counts[i] for i in range(len(routes)) if packet_counts[i]}
        while cursors:
            for i in list(cursors):
                path = routes[i].links
                pipes[path[0]].put((i, path, 0), size=pkt)
                cursors[i] -= 1
                if cursors[i] == 0:
                    del cursors[i]

        sim.run()
        if not done.processed:
            raise RuntimeError("packet step deadlocked (lost packets?)")
        return done.value, total_packets, sim.n_processed
