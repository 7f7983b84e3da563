"""The one-bottleneck-per-search max-min loop: the parity oracle.

This is the progressive filling ``repro.electrical.flows.max_min_rates``
ran before it moved to arrays, kept verbatim. Every search rescans all
loaded links in first-appearance order and freezes the first link with the
smallest share; the array kernel must return the same rates bit for bit
(``tests/electrical/test_flows.py::TestBitParity``). It is slow: use it on
small inputs only.
"""

from __future__ import annotations

import numpy as np

from repro.electrical.flows import Flow


def max_min_rates_reference(flows: list[Flow], capacities: list[float]) -> np.ndarray:
    """Max-min fair rates for ``flows`` over links with ``capacities``.

    Args:
        flows: Active flows (each with at least one link).
        capacities: Bytes/second per link id.

    Returns:
        Array of rates (bytes/second), one per flow, in input order.
    """
    n_flows = len(flows)
    rates = np.zeros(n_flows)
    if n_flows == 0:
        return rates
    residual = np.asarray(capacities, dtype=float).copy()
    # flows_on[link] = indices of unfrozen flows crossing it
    flows_on: dict[int, set[int]] = {}
    for i, flow in enumerate(flows):
        for link in flow.links:
            flows_on.setdefault(link, set()).add(i)
    unfrozen = set(range(n_flows))
    while unfrozen:
        # Find the bottleneck link: smallest fair share among loaded links.
        bottleneck_share = None
        bottleneck_link = None
        for link, members in flows_on.items():
            if not members:
                continue
            share = residual[link] / len(members)
            if bottleneck_share is None or share < bottleneck_share:
                bottleneck_share = share
                bottleneck_link = link
        if bottleneck_link is None:
            raise AssertionError("unfrozen flows with no loaded links")
        # Freeze every flow on the bottleneck at the fair share.
        frozen_now = list(flows_on[bottleneck_link])
        for i in frozen_now:
            rates[i] = bottleneck_share
            unfrozen.discard(i)
            for link in flows[i].links:
                flows_on[link].discard(i)
                residual[link] -= bottleneck_share
        # Numerical guard: residuals may go slightly negative from float
        # accumulation; clamp so later shares stay non-negative.
        np.clip(residual, 0.0, None, out=residual)
        flows_on = {l: m for l, m in flows_on.items() if m}
    return rates
