"""Reconfiguration-latency model and tuning/transmission overlap planning.

The paper (and this repo's seed executor) treats MRR circuit setup as free:
only the fixed 25 µs per-round ``mrr_reconfig_delay`` is priced, and a
wavelength retune costs nothing. SWOT-style measurements show the opposite
at small payloads — thermal MRR tuning dominates. This module adds the
missing physics and the planning pass that claws most of it back:

1. :class:`ReconfigModel` — per-MRR tuning time ``t_tune`` plus an optional
   per-wavelength-distance term, built on
   :func:`repro.optical.phy.mrr_tuning_time`. Disabled (all-zero) by
   default so every existing timing stays bit-identical.

2. :func:`apply_reconfig` — a pass over a lowered plan that classifies each
   round's MRR/wavelength claims against the *previous* round:

   - **held**: the same endpoint already drives the same channel — no
     retune (this is what makes a repeated step pattern free, and what the
     hold/one-shot plan exploits);
   - **blocked**: the channel is active elsewhere in the previous round —
     wavelength exclusivity forbids tuning onto it until that round's
     circuits tear down, so its tuning is fully exposed;
   - **free**: a claim disjoint from everything the previous round drives —
     its tuning can overlap the previous round's transmission, exposing
     only ``max(0, tune − prev_payload)``.

   Per round the exposed tuning is ``max(blocked, max(0, free − prev_
   payload))`` with overlap (``max(blocked, free)`` without), charged
   before the round's MRR reconfiguration delay. The pass annotates the
   plan's :class:`~repro.backend.plancache.CachedRound` summaries in place
   (``tune_s``), splitting a profile entry when its first occurrence faces
   a different boundary than its self-repeats.

3. :func:`choose_plan` — the reconfigure-vs-hold estimator: lower the
   schedule normally (wavelengths reused every step, tuning paid) and with
   an alternating wavelength partition (adjacent steps channel-disjoint, so
   all tuning overlaps, at the cost of half the wavelength budget per
   step), then pick whichever static total is smaller. The decision is
   recorded in plan meta and, when enabled, ``repro.obs`` metrics.

The static annotation, the analytic recurrence
(:func:`repro.core.timing.reconfig_exposed_time`) and the live DES
coordinator (:mod:`repro.optical.livesim`) price the same model; PLAN008
(:mod:`repro.check.plan_rules`) re-derives the classification from the
plan's recorded claims and rejects any plan that transmits on a resource
still being tuned.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.backend.base import LoweredPlan, LoweredStep
from repro.backend.errors import BackendError
from repro.backend.plancache import CachedRound
from repro.optical.phy import mrr_tuning_time

#: Claim tuple: (node, direction value, fiber, wavelength) — one tunable
#: MRR endpoint driving one WDM channel.
Claim = tuple[int, str, int, int]


@dataclass(frozen=True)
class ReconfigModel:
    """MRR wavelength-tuning cost model.

    Attributes:
        t_tune: Fixed thermal settling time per MRR retune (seconds).
        tune_per_channel: Extra seconds per unit of spectral distance from
            the parked resonance (wavelength index 0).
    """

    t_tune: float = 0.0
    tune_per_channel: float = 0.0

    def __post_init__(self) -> None:
        if self.t_tune < 0 or self.tune_per_channel < 0:
            raise ValueError("tuning times must be >= 0")

    @property
    def enabled(self) -> bool:
        """Whether any tuning cost is nonzero."""
        return self.t_tune > 0 or self.tune_per_channel > 0

    def claim_tune_s(self, wavelength: int) -> float:
        """Tuning seconds for one MRR claim on ``wavelength``."""
        return mrr_tuning_time(wavelength, self.t_tune, self.tune_per_channel)


def round_claims(circuits) -> tuple[Claim, ...]:
    """The MRR endpoint claims of one round's circuits, sorted.

    Each circuit tunes two MRRs — the add filter at its source and the drop
    filter at its destination — onto its channel. The claim carries the
    node so that *holding* is per-endpoint: the same node re-driving the
    same channel next round needs no retune, while a different node taking
    over the channel does.
    """
    claims = set()
    for c in circuits:
        direction = c.route.direction.value
        claims.add((c.transfer.src, direction, c.fiber, c.wavelength))
        claims.add((c.transfer.dst, direction, c.fiber, c.wavelength))
    return tuple(sorted(claims))


def split_tuning(
    model: ReconfigModel,
    prev_claims: frozenset[Claim] | tuple[Claim, ...],
    claims: tuple[Claim, ...],
) -> tuple[float, float]:
    """Classify ``claims`` against the previous round; return the tuning
    exposure classes ``(blocked_s, free_s)``.

    Held claims (present verbatim in ``prev_claims``) cost nothing.
    ``blocked_s`` is the slowest retune among claims whose channel is
    active *elsewhere* in the previous round (cannot start until teardown);
    ``free_s`` the slowest among claims on channels the previous round
    never drives (may race its transmission).
    """
    prev = prev_claims if isinstance(prev_claims, frozenset) else frozenset(prev_claims)
    # Only membership is read, so the order the channels are collected in
    # cannot matter; nor can the claims' order (``max`` is exact).
    prev_channels = {claim[1:] for claim in prev_claims}
    tunes: dict[int, float] = {}  # each wavelength priced once per call
    blocked = 0.0
    free = 0.0
    for claim in claims:
        if claim in prev:
            continue  # held — the MRR is already locked on this channel
        tune = tunes.get(claim[3])
        if tune is None:
            tune = tunes[claim[3]] = model.claim_tune_s(claim[3])
        if claim[1:] in prev_channels:
            blocked = max(blocked, tune)
        else:
            free = max(free, tune)
    return blocked, free


def exposed_tuning(
    model: ReconfigModel,
    prev_claims,
    claims: tuple[Claim, ...],
    prev_payload_s: float,
    overlap: bool,
) -> float:
    """Exposed tuning seconds charged before a round.

    With overlap, free tuning races the previous round's transmission
    window (``prev_payload_s``); blocked tuning is always serial.
    """
    blocked, free = split_tuning(model, prev_claims, claims)
    if overlap:
        return max(blocked, max(0.0, free - prev_payload_s))
    return max(blocked, free)


def _annotate(
    rounds: tuple[CachedRound, ...],
    model: ReconfigModel,
    prev_claims,
    prev_payload_s: float,
    overlap: bool,
) -> tuple[tuple[CachedRound, ...], float, float]:
    """Annotate one step's rounds with exposed tuning, starting from the
    given boundary state. Returns ``(rounds, exposed_total, raw_total)``
    where raw is the no-overlap exposure of the same boundary chain."""
    out = []
    exposed_total = 0.0
    raw_total = 0.0
    for rnd in rounds:
        blocked, free = split_tuning(model, prev_claims, rnd.claims)
        raw = max(blocked, free)
        exposed = max(blocked, max(0.0, free - prev_payload_s)) if overlap else raw
        out.append(replace(rnd, tune_s=exposed))
        exposed_total += exposed
        raw_total += raw
        prev_claims = rnd.claims
        prev_payload_s = rnd.max_payload_s
    return tuple(out), exposed_total, raw_total


def apply_reconfig(
    plan: LoweredPlan, model: ReconfigModel, *, overlap: bool = True
) -> LoweredPlan:
    """Annotate ``plan`` with exposed MRR tuning times.

    Requires the plan's :class:`CachedRound` payloads to carry claims
    (lower through a network whose config enables the model, or with
    ``capture_claims=True``). A disabled model returns the plan unchanged.

    Each profile entry is priced twice: its *first* occurrence against the
    previous entry's final round, and its *self-repeat* boundary (round 0
    against the entry's own last round). When the two differ and the entry
    repeats, it is split into a count-1 head and a count−1 tail so the fold
    charges each boundary exactly once. Entries lose their ``replay`` mark
    (payloads become position-dependent) and the original profile length is
    recorded in ``meta["reconfig"]["n_profile_entries"]`` for PLAN000.
    """
    if not model.enabled:
        return plan
    for entry in plan.entries:
        for rnd in entry.payload:
            if rnd.n_circuits and not rnd.claims:
                raise ValueError(
                    "plan payloads carry no MRR claims; lower through a "
                    "network with the reconfiguration model enabled "
                    "(or capture_claims=True)"
                )
    entries: list[LoweredStep] = []
    prev_claims: tuple = ()
    prev_payload = 0.0
    exposed_total = 0.0
    raw_total = 0.0
    for entry in plan.entries:
        rounds = tuple(entry.payload)
        first, first_exposed, first_raw = _annotate(
            rounds, model, prev_claims, prev_payload, overlap
        )
        exposed_total += first_exposed
        raw_total += first_raw
        if entry.count > 1:
            last = rounds[-1]
            rep, rep_exposed, rep_raw = _annotate(
                rounds, model, last.claims, last.max_payload_s, overlap
            )
            exposed_total += rep_exposed * (entry.count - 1)
            raw_total += rep_raw * (entry.count - 1)
            if rep == first:
                entries.append(
                    replace(entry, payload=first, replay=False)
                )
            else:
                entries.append(
                    replace(entry, count=1, payload=first, replay=False)
                )
                entries.append(
                    replace(entry, count=entry.count - 1, payload=rep, replay=False)
                )
        else:
            entries.append(replace(entry, payload=first, replay=False))
        prev_claims = rounds[-1].claims
        prev_payload = rounds[-1].max_payload_s
    meta = dict(plan.meta)
    meta["reconfig"] = {
        "t_tune": model.t_tune,
        "tune_per_channel": model.tune_per_channel,
        "overlap": overlap,
        "n_profile_entries": len(plan.entries),
        "exposed_tune_s": exposed_total,
        "raw_tune_s": raw_total,
    }
    return replace(plan, entries=tuple(entries), meta=meta)


def plan_total_time(plan: LoweredPlan, mrr_reconfig_delay: float) -> float:
    """Static total of an optical plan — the exact fold the executor runs.

    Accumulates in the same order as
    :meth:`~repro.optical.network.OpticalRingNetwork.execute_plan`, so the
    estimate is bit-equal to executing the plan.
    """
    total = 0.0
    for entry in plan.entries:
        duration = 0.0
        for rnd in entry.payload:
            if rnd.tune_s:
                duration += rnd.tune_s
            duration += mrr_reconfig_delay + rnd.max_payload_s
        total += duration * entry.count
    return total


def choose_plan(
    network, schedule, bytes_per_elem: float = 4.0
) -> LoweredPlan:
    """Lower ``schedule`` both ways and keep the faster plan.

    The *reconfiguring* plan reuses the full wavelength budget every step
    and pays (partially overlapped) tuning at each boundary; the *hold*
    plan lowers with an alternating wavelength partition
    (``partition=True``) so adjacent steps claim disjoint channels and all
    tuning overlaps — at the price of half the budget per step, which can
    spill rounds. Totals are compared with the static fold
    (:func:`plan_total_time`, bit-equal to execution) and the decision is
    recorded in ``meta["reconfig"]["decision"]`` and, when the network has
    metrics enabled, under ``optical.reconfig.decision.*``.

    With the model disabled this is exactly ``network.lower``.
    """
    model = network.config.reconfig
    plan = network.lower(schedule, bytes_per_elem)
    if not model.enabled:
        return plan
    delay = network.config.mrr_reconfig_delay
    reconfigure_s = plan_total_time(plan, delay)
    hold_plan = None
    hold_s = None
    try:
        hold_plan = network.lower(schedule, bytes_per_elem, partition=True)
    except BackendError:
        pass  # partition infeasible (e.g. w=1) — reconfigure is the plan
    if hold_plan is not None:
        hold_s = plan_total_time(hold_plan, delay)
    if hold_s is not None and hold_s < reconfigure_s:
        chosen, label = hold_plan, "hold"
    else:
        chosen, label = plan, "reconfigure" if hold_s is not None else "hold-infeasible"
    meta = dict(chosen.meta)
    info = dict(meta.get("reconfig", {}))
    info["decision"] = {
        "chosen": label,
        "reconfigure_s": reconfigure_s,
        "hold_s": hold_s,
    }
    meta["reconfig"] = info
    if network.metrics.enabled:
        network.metrics.inc(f"optical.reconfig.decision.{label}")
        network.metrics.gauge("optical.reconfig.reconfigure_s", reconfigure_s)
        if hold_s is not None:
            network.metrics.gauge("optical.reconfig.hold_s", hold_s)
    return replace(chosen, meta=meta)
