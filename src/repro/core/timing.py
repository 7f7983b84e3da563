"""Analytical communication-time models (Eq 6 of Sec 4.3 and equivalents).

The paper's model: ``T_comm = d·θ/B + a·θ`` where ``d`` is the per-step
payload, ``B`` the per-wavelength rate, ``a`` the per-step overhead (MRR
reconfiguration + O/E/O conversion), and ``θ`` the step count. The payload
``d`` differs per algorithm:

- WRHT and BT move the **full** gradient ``d`` every step (reduction keeps
  the size constant).
- Ring moves ``d/N`` per step (reduce-scatter / all-gather chunks).
- Recursive Doubling moves the full ``d`` every exchange.
- H-Ring moves ``d/m`` in intra-group steps and ``d·m/N`` in inter-group
  steps (see DESIGN.md §6 for the decomposition; the paper only gives the
  step count, formulas from the standard hierarchical-ring construction).

Every function here returns seconds and takes an explicit
:class:`CostModel`, so the same code produces the "strict" (B = 40 Gbit/s)
and "calibrated" (B = 40 GB/s, see DESIGN.md §6) variants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.steps import (
    bt_steps,
    hring_steps,
    rd_steps,
    ring_steps,
    scring_arc_count,
    wrht_steps,
)
from repro.util.validation import check_positive, check_positive_int


@dataclass(frozen=True)
class CostModel:
    """Parameters of the analytical time model.

    Attributes:
        line_rate: Per-wavelength payload rate in bytes/second (``B``).
        step_overhead: Per-step constant ``a`` in seconds (MRR
            reconfiguration delay; 25 µs in Table 2).
        oeo_delay_per_packet: O/E/O conversion delay per packet in seconds
            (497 fs in Table 2; negligible but modeled).
        packet_bytes: Packet size used for the O/E/O term (72 B in Table 2).
    """

    line_rate: float
    step_overhead: float
    oeo_delay_per_packet: float = 0.0
    packet_bytes: int = 72

    def __post_init__(self) -> None:
        check_positive("line_rate", self.line_rate)
        if self.step_overhead < 0:
            raise ValueError(f"step_overhead must be >= 0, got {self.step_overhead!r}")
        if self.oeo_delay_per_packet < 0:
            raise ValueError(
                f"oeo_delay_per_packet must be >= 0, got {self.oeo_delay_per_packet!r}"
            )
        check_positive_int("packet_bytes", self.packet_bytes)

    def payload_time(self, payload_bytes: float) -> float:
        """Serialization + O/E/O time for one payload on one wavelength."""
        if payload_bytes < 0:
            raise ValueError(f"payload must be >= 0, got {payload_bytes!r}")
        n_packets = math.ceil(payload_bytes / self.packet_bytes)
        return payload_bytes / self.line_rate + n_packets * self.oeo_delay_per_packet

    def payload_times(self, payload_bytes):
        """Vectorized :meth:`payload_time` over a float64 numpy array.

        Bit-identical to the scalar path element-wise: the division, the
        packet-count ceiling and the multiply are the same IEEE-754
        operations whether evaluated by ``math`` or ``numpy`` (packet
        counts stay far below 2**53, where ``float(math.ceil(x)) ==
        np.ceil(x)`` exactly). Used by the executors to price a whole
        step's transfers in one pass instead of a per-transfer Python loop.
        """
        import numpy as np

        payload_bytes = np.asarray(payload_bytes, dtype=np.float64)
        if payload_bytes.size and float(payload_bytes.min()) < 0:
            raise ValueError("payloads must be >= 0")
        n_packets = np.ceil(payload_bytes / self.packet_bytes)
        return payload_bytes / self.line_rate + n_packets * self.oeo_delay_per_packet

    def step_time(self, payload_bytes: float) -> float:
        """One full communication step: payload plus the constant overhead."""
        return self.payload_time(payload_bytes) + self.step_overhead


def wrht_time(
    n_nodes: int, d_bytes: float, model: CostModel, m: int, w: int | None = None
) -> float:
    """WRHT communication time: ``θ · (d/B + a)`` (Eq 6).

    Args:
        n_nodes: Ring size N.
        d_bytes: Gradient size per node (bytes).
        model: Cost parameters.
        m: Group size.
        w: Wavelengths available (``None`` = unconstrained all-to-all check).
    """
    theta = wrht_steps(n_nodes, m, w)
    return theta * model.step_time(d_bytes)


def ring_time(n_nodes: int, d_bytes: float, model: CostModel) -> float:
    """Ring All-reduce time: ``2(N−1) · (d/(N·B) + a)``."""
    check_positive_int("n_nodes", n_nodes)
    if n_nodes == 1:
        return 0.0
    chunk = d_bytes / n_nodes
    return ring_steps(n_nodes) * model.step_time(chunk)


def bt_time(n_nodes: int, d_bytes: float, model: CostModel) -> float:
    """Binary-tree All-reduce time: ``2⌈log₂N⌉ · (d/B + a)``."""
    return bt_steps(n_nodes) * model.step_time(d_bytes)


def rd_time(n_nodes: int, d_bytes: float, model: CostModel) -> float:
    """Recursive-doubling All-reduce time: full-vector exchange per step."""
    return rd_steps(n_nodes) * model.step_time(d_bytes)


def swing_time(n_nodes: int, d_bytes: float, model: CostModel) -> float:
    """Swing All-reduce time: recursive-halving payloads, ``2⌊log₂N⌋`` steps.

    Step ``s`` of the reduce-scatter (and its all-gather mirror) moves
    ``d/2^s``, so the total is ``Σ_{s=1}^{⌊log₂N⌋} 2·(d/(2^s·B) + a)`` —
    ≈2d of traffic like Ring, at logarithmically many reconfigurations.
    Non-powers of two add the two full-vector MPICH fold steps.
    """
    check_positive_int("n_nodes", n_nodes)
    if n_nodes == 1:
        return 0.0
    floor_log = n_nodes.bit_length() - 1
    total = 0.0
    if n_nodes != 1 << floor_log:
        total += 2 * model.step_time(d_bytes)
    for s in range(1, floor_log + 1):
        total += 2 * model.step_time(d_bytes / (1 << s))
    return total


def scring_time(
    n_nodes: int, d_bytes: float, model: CostModel, w: int = 64, pipeline: int = 1
) -> float:
    """Short-circuiting-ring time: ``d/N`` chain hops plus hub chord steps.

    With ``A = min(2·pipeline, N−1)`` arcs per chunk and longest arc
    ``L = ⌈(N−1)/A⌉``, the ``2(L−1)`` chain steps move one ``d/N`` chunk
    per link, and the two hub steps (chord delivery to the owner and its
    multicast mirror) concentrate ``A`` chunks on one node — serialized
    over the ``w`` wavelengths as ``(d/N)·⌈A/w⌉``.
    """
    check_positive_int("n_nodes", n_nodes)
    check_positive_int("w", w)
    if n_nodes == 1:
        return 0.0
    arcs = scring_arc_count(n_nodes, pipeline)
    longest = math.ceil((n_nodes - 1) / arcs)
    chunk = d_bytes / n_nodes
    hub = chunk * math.ceil(arcs / w)
    return 2 * (longest - 1) * model.step_time(chunk) + 2 * model.step_time(hub)


def hring_time(n_nodes: int, d_bytes: float, model: CostModel, m: int, w: int) -> float:
    """H-Ring All-reduce time.

    Step count is the Table 1 closed form (so the ``a`` overhead matches the
    paper exactly); payloads follow the standard hierarchical decomposition:
    two intra-group ring phases at ``d/m`` per step and one inter-group ring
    phase at ``d·m/N`` per step, plus a final intra-group broadcast at full
    ``d`` when ``⌈m/w⌉ = 1``.
    """
    check_positive_int("n_nodes", n_nodes)
    check_positive_int("m", m)
    check_positive_int("w", w)
    if n_nodes == 1:
        return 0.0
    if m > n_nodes:
        raise ValueError(f"group size m={m} exceeds n_nodes={n_nodes}")
    total_steps = hring_steps(n_nodes, m, w)
    n_groups = math.ceil(n_nodes / m)
    serialization = math.ceil(m / w)
    intra_steps_per_phase = (m - 1) * (1 if serialization == 1 else 2)
    inter_steps = max(0, 2 * (n_groups - 1))
    # Whatever steps the closed form counts beyond intra+inter are broadcast
    # -style steps carrying the full gradient.
    bcast_steps = max(0, total_steps - 2 * intra_steps_per_phase - inter_steps)
    payload_time = (
        2 * intra_steps_per_phase * model.payload_time(d_bytes / m)
        + inter_steps * model.payload_time(d_bytes * m / n_nodes)
        + bcast_steps * model.payload_time(d_bytes)
    )
    return payload_time + total_steps * model.step_overhead


@dataclass(frozen=True)
class AnalyticStepClass:
    """One homogeneous class of steps in an algorithm's closed form.

    The analytic decomposition of ``algorithm_time``: each class is
    ``count`` steps each moving ``payload_bytes`` per wavelength, so the
    algorithm's total is ``Σ count · step_time(payload_bytes)``. Used by
    the analytic backend to report a per-step timeline while the closed
    form stays authoritative for the total.

    Attributes:
        stage: Human-readable stage label (``"reduce"``, ``"exchange"``,
            ``"intra"``, ``"inter"``, ``"broadcast"``).
        count: Steps in the class.
        payload_bytes: Per-step payload on the critical path (bytes).
    """

    stage: str
    count: int
    payload_bytes: float


def analytic_profile(
    name: str,
    n_nodes: int,
    d_bytes: float,
    *,
    wrht_m: int | None = None,
    hring_m: int = 5,
    w: int = 64,
    scring_pipeline: int = 1,
) -> tuple[AnalyticStepClass, ...]:
    """Step-class decomposition matching :func:`algorithm_time`.

    Returns the homogeneous step classes whose
    ``Σ count · step_time(payload)`` equals the corresponding closed form
    (same defaulting rules for ``wrht_m``). Empty for ``n_nodes == 1``.
    """
    check_positive_int("n_nodes", n_nodes)
    if n_nodes == 1:
        return ()
    if name == "Ring":
        return (
            AnalyticStepClass("reduce", ring_steps(n_nodes), d_bytes / n_nodes),
        )
    if name == "BT":
        return (AnalyticStepClass("reduce", bt_steps(n_nodes), d_bytes),)
    if name == "RD":
        return (AnalyticStepClass("exchange", rd_steps(n_nodes), d_bytes),)
    if name == "Swing":
        floor_log = n_nodes.bit_length() - 1
        fold = n_nodes != 1 << floor_log
        classes = []
        if fold:
            classes.append(AnalyticStepClass("reduce", 1, d_bytes))
        for s in range(1, floor_log + 1):
            classes.append(AnalyticStepClass("reduce", 1, d_bytes / (1 << s)))
        for s in range(floor_log, 0, -1):
            classes.append(AnalyticStepClass("broadcast", 1, d_bytes / (1 << s)))
        if fold:
            classes.append(AnalyticStepClass("broadcast", 1, d_bytes))
        return tuple(classes)
    if name == "SCRing":
        check_positive_int("w", w)
        arcs = scring_arc_count(n_nodes, scring_pipeline)
        longest = math.ceil((n_nodes - 1) / arcs)
        chunk = d_bytes / n_nodes
        hub = chunk * math.ceil(arcs / w)
        classes = []
        if longest > 1:
            classes.append(AnalyticStepClass("reduce", longest - 1, chunk))
        classes.append(AnalyticStepClass("reduce", 1, hub))
        classes.append(AnalyticStepClass("broadcast", 1, hub))
        if longest > 1:
            classes.append(AnalyticStepClass("broadcast", longest - 1, chunk))
        return tuple(classes)
    if name == "WRHT":
        from repro.core.wavelengths import optimal_group_size

        m = wrht_m if wrht_m is not None else min(optimal_group_size(w), n_nodes)
        return (AnalyticStepClass("reduce", wrht_steps(n_nodes, m, w), d_bytes),)
    if name == "H-Ring":
        m = hring_m
        check_positive_int("m", m)
        check_positive_int("w", w)
        if m > n_nodes:
            raise ValueError(f"group size m={m} exceeds n_nodes={n_nodes}")
        total_steps = hring_steps(n_nodes, m, w)
        n_groups = math.ceil(n_nodes / m)
        serialization = math.ceil(m / w)
        intra_steps_per_phase = (m - 1) * (1 if serialization == 1 else 2)
        inter_steps = max(0, 2 * (n_groups - 1))
        bcast_steps = max(0, total_steps - 2 * intra_steps_per_phase - inter_steps)
        classes = []
        if intra_steps_per_phase:
            classes.append(
                AnalyticStepClass("intra", 2 * intra_steps_per_phase, d_bytes / m)
            )
        if inter_steps:
            classes.append(
                AnalyticStepClass("inter", inter_steps, d_bytes * m / n_nodes)
            )
        if bcast_steps:
            classes.append(AnalyticStepClass("broadcast", bcast_steps, d_bytes))
        return tuple(classes)
    raise ValueError(f"unknown algorithm {name!r}")


def reconfig_exposed_time(
    classes: tuple[AnalyticStepClass, ...],
    model: CostModel,
    tune_s: float,
    overlap: bool = True,
) -> float:
    """Exposed MRR tuning over an analytic step-class decomposition.

    The closed-form counterpart of the optical backend's per-claim pass
    (:mod:`repro.optical.reconfig`): the first step pays the full retune
    ``tune_s``; every later step's tuning races the previous step's
    transmission, exposing ``max(0, tune_s − prev_payload_time)`` — the
    ``max(transmission, exposed-tuning)`` recurrence, collapsed per class
    into a boundary term plus ``(count−1)`` identical intra-class terms.
    Without ``overlap`` every step pays ``tune_s`` serially.

    The closed form has no concrete wavelength assignments, so it prices
    the base per-MRR retune only (no per-wavelength-distance term and no
    claim holding) — a conservative upper bound on the simulated backend's
    claim-aware exposure.
    """
    if tune_s < 0:
        raise ValueError(f"tune_s must be >= 0, got {tune_s!r}")
    if tune_s == 0 or not classes:
        return 0.0
    total = 0.0
    prev_payload: float | None = None
    for cls in classes:
        payload = model.payload_time(cls.payload_bytes)
        if prev_payload is None:
            total += tune_s  # nothing to overlap before the first step
        elif overlap:
            total += max(0.0, tune_s - prev_payload)
        else:
            total += tune_s
        if cls.count > 1:
            intra = max(0.0, tune_s - payload) if overlap else tune_s
            total += (cls.count - 1) * intra
        prev_payload = payload
    return total


#: Display names :func:`algorithm_time` has a closed form for: the
#: algorithms the analytic backend and the planning service accept.
#: DBTree is registered but has none.
CLOSED_FORM_ALGORITHMS = ("Ring", "H-Ring", "BT", "RD", "WRHT", "Swing", "SCRing")


def algorithm_time(
    name: str,
    n_nodes: int,
    d_bytes: float,
    model: CostModel,
    *,
    wrht_m: int | None = None,
    hring_m: int = 5,
    w: int = 64,
    scring_pipeline: int = 1,
    tune_s: float = 0.0,
    overlap_tuning: bool = True,
) -> float:
    """Dispatch helper used by the experiment runner.

    Args:
        name: One of :data:`CLOSED_FORM_ALGORITHMS`.
        n_nodes: N.
        d_bytes: Gradient bytes per node.
        model: Cost parameters.
        wrht_m: WRHT group size (defaults to Lemma 1's ``min(2w+1, N)``).
        hring_m: H-Ring intra-group size.
        w: Wavelengths available.
        scring_pipeline: SCRing arc-count knob (``A = min(2·pipeline, N−1)``).
        tune_s: Per-MRR wavelength tuning time; when positive, the exposed
            tuning of :func:`reconfig_exposed_time` is added to the closed
            form. 0 (the default) leaves every total bit-identical.
        overlap_tuning: Overlap each step's tuning with the previous
            step's transmission (the recurrence above) instead of paying
            it serially.
    """
    if name == "Ring":
        total = ring_time(n_nodes, d_bytes, model)
    elif name == "BT":
        total = bt_time(n_nodes, d_bytes, model)
    elif name == "RD":
        total = rd_time(n_nodes, d_bytes, model)
    elif name == "Swing":
        total = swing_time(n_nodes, d_bytes, model)
    elif name == "SCRing":
        total = scring_time(n_nodes, d_bytes, model, w, scring_pipeline)
    elif name == "H-Ring":
        total = hring_time(n_nodes, d_bytes, model, hring_m, w)
    elif name == "WRHT":
        from repro.core.wavelengths import optimal_group_size

        m = wrht_m if wrht_m is not None else min(optimal_group_size(w), n_nodes)
        total = wrht_time(n_nodes, d_bytes, model, m, w)
    else:
        raise ValueError(f"unknown algorithm {name!r}")
    if tune_s > 0 and n_nodes > 1:
        classes = analytic_profile(
            name, n_nodes, d_bytes,
            wrht_m=wrht_m, hring_m=hring_m, w=w, scring_pipeline=scring_pipeline,
        )
        total += reconfig_exposed_time(classes, model, tune_s, overlap_tuning)
    return total
