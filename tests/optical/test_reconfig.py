"""Reconfiguration model, overlap planning and the reconfigure-vs-hold
estimator (repro.optical.reconfig).

Load-bearing invariants:

- A disabled model (``t_tune == 0``) is bit-identical to the seed executor
  — same totals, same plan payloads, same DES event counts.
- The live DES coordinator prices the same model as the static annotation
  pass, in both overlapped and serial modes.
- Overlap never violates PLAN001 wavelength exclusivity: a claim whose
  channel is still active in the previous round is always classified
  *blocked* (serial), never *free* (overlapped) — property-tested on
  synthetic claim sets and on real partitioned (hold) plans.
- PLAN008 catches a plan whose recorded tuning undercuts the exposure its
  own claims require.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.errors import BackendError
from repro.backend.optical import OpticalBackend
from repro.backend.plancache import PlanCache
from repro.check.context import optical_context
from repro.check.engine import verify_plan
from repro.check.findings import errors
from repro.collectives.registry import build_schedule
from repro.faults.models import DeadWavelength, FaultEvent, FaultSet
from repro.optical.config import OpticalSystemConfig
from repro.optical.livesim import LiveOpticalSimulation
from repro.optical.network import OpticalRingNetwork
from repro.optical.reconfig import (
    ReconfigModel,
    apply_reconfig,
    choose_plan,
    exposed_tuning,
    plan_total_time,
    split_tuning,
)

T_TUNE = 10e-6


def _net(n, w, t_tune=0.0, **kw):
    cfg = OpticalSystemConfig(n_nodes=n, n_wavelengths=w, t_tune=t_tune)
    return OpticalRingNetwork(cfg, **kw)


class TestDisabledBitIdentity:
    """t_tune=0 must change nothing — not totals, not plans, not events."""

    def test_model_disabled_by_default(self):
        assert not ReconfigModel().enabled
        assert not OpticalSystemConfig(n_nodes=4).reconfig.enabled

    def test_negative_tuning_rejected(self):
        with pytest.raises(ValueError):
            ReconfigModel(t_tune=-1e-6)

    def test_apply_reconfig_disabled_is_identity(self):
        net = _net(8, 8)
        plan = net.lower(build_schedule("swing", 8, 4096))
        assert apply_reconfig(plan, ReconfigModel()) is plan

    @pytest.mark.parametrize("algo", ["swing", "rd", "ring"])
    def test_plans_and_totals_identical(self, algo):
        sched = build_schedule(algo, 8, 4096)
        base = _net(8, 8)
        # overlap is a no-op while the model is disabled; claims capture
        # must not leak into the priced payloads either.
        for kw in ({"overlap": False}, {"capture_claims": True}):
            other = _net(8, 8, **kw)
            t0 = base.execute_plan(base.lower(sched)).total_time
            t1 = other.execute_plan(other.lower(sched)).total_time
            assert t0 == t1
        plan = base.lower(sched)
        assert "reconfig" not in plan.meta
        assert all(rnd.tune_s == 0.0 for e in plan.entries for rnd in e.payload)

    def test_livesim_disabled_identical_events(self):
        sched = build_schedule("swing", 8, 4096)
        cfg = OpticalSystemConfig(n_nodes=8, n_wavelengths=8)
        on = LiveOpticalSimulation(cfg, overlap=True).run(sched)
        off = LiveOpticalSimulation(cfg, overlap=False).run(sched)
        assert on.total_time == off.total_time
        assert on.n_events == off.n_events

    def test_faulted_livesim_disabled_identical(self):
        sched = build_schedule("ring", 8, 1024)
        cfg = OpticalSystemConfig(n_nodes=8, n_wavelengths=4)
        healthy = LiveOpticalSimulation(cfg).run(sched)
        events = (FaultEvent(healthy.total_time / 2, DeadWavelength(0)),)
        a = LiveOpticalSimulation(cfg, fault_events=events, overlap=True).run(sched)
        b = LiveOpticalSimulation(cfg, fault_events=events, overlap=False).run(sched)
        assert a.total_time == b.total_time
        assert a.n_events == b.n_events
        assert a.n_faults == b.n_faults == 1


class TestLiveMatchesStatic:
    """The DES coordinator and the static fold price the same model."""

    @pytest.mark.parametrize("algo", ["swing", "rd", "ring"])
    @pytest.mark.parametrize("overlap", [True, False])
    def test_total_time_agrees(self, algo, overlap):
        cfg = OpticalSystemConfig(n_nodes=8, n_wavelengths=4, t_tune=T_TUNE)
        sched = build_schedule(algo, 8, 4096)
        net = OpticalRingNetwork(cfg, overlap=overlap)
        static = net.execute_plan(net.lower(sched)).total_time
        live = LiveOpticalSimulation(cfg, overlap=overlap).run(sched).total_time
        assert live == pytest.approx(static, rel=1e-9)

    @pytest.mark.parametrize("algo", ["swing", "rd", "ring"])
    def test_overlap_never_loses(self, algo):
        cfg = OpticalSystemConfig(n_nodes=8, n_wavelengths=4, t_tune=T_TUNE)
        sched = build_schedule(algo, 8, 4096)
        on = LiveOpticalSimulation(cfg, overlap=True).run(sched).total_time
        off = LiveOpticalSimulation(cfg, overlap=False).run(sched).total_time
        assert on <= off

    def test_faulted_run_charges_serial_tuning(self):
        # Mid-flight faults force the serial (lookahead-free) path; the
        # tuned run must still complete and cost at least the untuned one.
        sched = build_schedule("ring", 8, 1024)
        base_cfg = OpticalSystemConfig(n_nodes=8, n_wavelengths=4)
        tuned_cfg = OpticalSystemConfig(n_nodes=8, n_wavelengths=4, t_tune=T_TUNE)
        healthy = LiveOpticalSimulation(base_cfg).run(sched)
        events = (FaultEvent(healthy.total_time / 2, DeadWavelength(0)),)
        base = LiveOpticalSimulation(base_cfg, fault_events=events).run(sched)
        tuned = LiveOpticalSimulation(tuned_cfg, fault_events=events).run(sched)
        assert tuned.total_time >= base.total_time
        assert tuned.n_faults == base.n_faults == 1
        assert tuned.n_retries == base.n_retries

    def test_plan_total_time_matches_executor(self):
        net = _net(8, 4, t_tune=T_TUNE)
        plan = net.lower(build_schedule("swing", 8, 4096))
        assert plan_total_time(plan, net.config.mrr_reconfig_delay) == (
            net.execute_plan(plan).total_time
        )


_claims = st.lists(
    st.tuples(
        st.integers(0, 5),
        st.sampled_from(["cw", "ccw"]),
        st.integers(0, 1),
        st.integers(0, 7),
    ),
    max_size=12,
).map(lambda c: tuple(sorted(set(c))))


class TestExclusivityProperties:
    """Overlap must never race a channel the previous round still drives."""

    @settings(max_examples=200, deadline=None)
    @given(prev=_claims, cur=_claims)
    def test_shared_channels_always_blocked(self, prev, cur):
        model = ReconfigModel(t_tune=T_TUNE)
        blocked, free = split_tuning(model, prev, cur)
        prev_set = frozenset(prev)
        prev_channels = {(d, f, lam) for (_, d, f, lam) in prev}
        collides = any(
            c not in prev_set and (c[1], c[2], c[3]) in prev_channels
            for c in cur
        )
        if collides:
            # At least one retune waits for teardown — serial exposure.
            assert blocked >= model.t_tune
        # Overlap may hide free tuning but never blocked tuning.
        for payload in (0.0, 1e-6, 1.0):
            exposed = exposed_tuning(model, prev, cur, payload, overlap=True)
            assert exposed >= blocked
            assert exposed <= exposed_tuning(model, prev, cur, payload, overlap=False)

    @settings(max_examples=100, deadline=None)
    @given(prev=_claims, cur=_claims, p1=st.floats(0, 1e-3), p2=st.floats(0, 1e-3))
    def test_overlap_monotone_in_prev_payload(self, prev, cur, p1, p2):
        model = ReconfigModel(t_tune=T_TUNE, tune_per_channel=1e-7)
        lo, hi = sorted((p1, p2))
        assert exposed_tuning(model, prev, cur, hi, overlap=True) <= (
            exposed_tuning(model, prev, cur, lo, overlap=True)
        )

    def test_held_claims_cost_nothing(self):
        model = ReconfigModel(t_tune=T_TUNE)
        claims = ((0, "cw", 0, 3), (1, "cw", 0, 3))
        assert split_tuning(model, claims, claims) == (0.0, 0.0)
        assert exposed_tuning(model, claims, claims, 0.0, overlap=False) == 0.0

    @pytest.mark.parametrize("algo", ["swing", "rd", "ring"])
    def test_partition_plans_have_no_blocked_boundaries(self, algo):
        # The hold plan's whole point: adjacent steps are channel-disjoint,
        # so every retune is free (overlappable) — never blocked.
        net = _net(8, 32, t_tune=T_TUNE)
        sched = build_schedule(algo, 8, 4096)
        plan = net.lower(sched, partition=True)
        assert plan.meta["reconfig"]["partition"] is True
        model = net.config.reconfig
        prev = ()
        for entry in plan.entries:
            for _ in range(entry.count):
                for rnd in entry.payload:
                    blocked, _free = split_tuning(model, prev, rnd.claims)
                    assert blocked == 0.0
                    prev = rnd.claims

    @pytest.mark.parametrize("algo", ["swing", "rd"])
    def test_partition_plans_verify_clean(self, algo):
        net = _net(8, 32, t_tune=T_TUNE)
        sched = build_schedule(algo, 8, 4096)
        plan = net.lower(sched, partition=True)
        context = optical_context(net, sched, plan)
        assert not errors(verify_plan(context=context))


def _split_tuning_reference(model, prev_claims, claims):
    """``split_tuning`` as it was: sorts the previous claims on every call
    and prices every claim's wavelength again."""
    prev = frozenset(prev_claims)
    prev_channels = frozenset((d, f, lam) for (_, d, f, lam) in sorted(prev))
    blocked = 0.0
    free = 0.0
    for claim in claims:
        if claim in prev:
            continue
        tune = model.claim_tune_s(claim[3])
        if (claim[1], claim[2], claim[3]) in prev_channels:
            blocked = max(blocked, tune)
        else:
            free = max(free, tune)
    return blocked, free


class TestSplitTuningReference:
    """``split_tuning`` reads the claims in their given order and prices
    each wavelength once per call; the exposure classes must match the
    sorting reference bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        prev=_claims, cur=_claims, shuffle=st.randoms(use_true_random=False),
        as_set=st.booleans(), per_channel=st.sampled_from([0.0, 1e-7, 3e-9]),
    )
    def test_matches_reference(self, prev, cur, shuffle, as_set, per_channel):
        model = ReconfigModel(t_tune=T_TUNE, tune_per_channel=per_channel)
        prev, cur = list(prev), list(cur)
        shuffle.shuffle(prev)
        shuffle.shuffle(cur)
        prev_arg = frozenset(prev) if as_set else tuple(prev)
        assert split_tuning(model, prev_arg, tuple(cur)) == (
            _split_tuning_reference(model, prev_arg, tuple(cur))
        )

    def test_empty_claims(self):
        model = ReconfigModel(t_tune=T_TUNE)
        claims = ((0, "cw", 0, 3), (1, "ccw", 1, 0))
        for prev in ((), frozenset()):
            assert split_tuning(model, prev, claims) == (
                _split_tuning_reference(model, prev, claims)
            )
            assert split_tuning(model, claims, prev) == (0.0, 0.0)


class TestPlan008:
    def _tuned_plan(self):
        net = _net(8, 8, t_tune=T_TUNE)
        sched = build_schedule("swing", 8, 4096)
        return net, sched, net.lower(sched)

    def test_honest_plan_passes(self):
        net, sched, plan = self._tuned_plan()
        context = optical_context(net, sched, plan)
        assert not errors(verify_plan(context=context))

    def test_undercharged_tuning_rejected(self):
        net, sched, plan = self._tuned_plan()
        # Zero out the tuning of the first round that actually charges
        # any — the claims still demand it, so PLAN008 must fire.
        entries = list(plan.entries)
        for i, entry in enumerate(entries):
            rounds = list(entry.payload)
            j = next(
                (k for k, rnd in enumerate(rounds) if rnd.tune_s > 0), None
            )
            if j is None:
                continue
            rounds[j] = dataclasses.replace(rounds[j], tune_s=0.0)
            entries[i] = dataclasses.replace(entry, payload=tuple(rounds))
            break
        else:
            pytest.fail("expected at least one round with exposed tuning")
        doctored = dataclasses.replace(plan, entries=tuple(entries))
        context = optical_context(net, sched, doctored)
        errs = errors(verify_plan(context=context))
        assert any(e.rule_id == "PLAN008" for e in errs), errs


class TestChoosePlan:
    def test_large_payload_prefers_hold(self):
        # rd at 1M elems: tuning at every boundary outweighs the halved
        # wavelength budget — the alternating partition wins.
        net = _net(8, 32, t_tune=25e-6)
        plan = choose_plan(net, build_schedule("rd", 8, 1_000_000))
        decision = plan.meta["reconfig"]["decision"]
        assert decision["chosen"] == "hold"
        assert decision["hold_s"] < decision["reconfigure_s"]
        assert plan.meta["reconfig"]["partition"] is True

    def test_small_payload_prefers_reconfigure(self):
        net = _net(8, 32, t_tune=25e-6)
        plan = choose_plan(net, build_schedule("swing", 8, 4096))
        decision = plan.meta["reconfig"]["decision"]
        assert decision["chosen"] == "reconfigure"
        assert decision["reconfigure_s"] <= decision["hold_s"]

    def test_single_wavelength_hold_infeasible(self):
        net = _net(4, 1, t_tune=25e-6)
        plan = choose_plan(net, build_schedule("ring", 4, 1024))
        decision = plan.meta["reconfig"]["decision"]
        assert decision["chosen"] == "hold-infeasible"
        assert decision["hold_s"] is None
        with pytest.raises(BackendError):
            net.lower(build_schedule("ring", 4, 1024), partition=True)

    def test_decision_total_matches_execution(self):
        net = _net(8, 32, t_tune=25e-6)
        sched = build_schedule("rd", 8, 1_000_000)
        plan = choose_plan(net, sched)
        decision = plan.meta["reconfig"]["decision"]
        chosen_s = min(
            s for s in (decision["reconfigure_s"], decision["hold_s"])
            if s is not None
        )
        assert net.execute_plan(plan).total_time == chosen_s

    def test_disabled_model_is_plain_lower(self):
        net = _net(8, 8)
        plan = choose_plan(net, build_schedule("swing", 8, 4096))
        assert "reconfig" not in plan.meta

    def test_backend_lower_records_decision(self):
        cfg = OpticalSystemConfig(n_nodes=8, n_wavelengths=32, t_tune=25e-6)
        plan = OpticalBackend(cfg).lower(build_schedule("swing", 8, 4096))
        assert plan.meta["reconfig"]["decision"]["chosen"] in (
            "hold", "reconfigure", "hold-infeasible"
        )


class TestRepairKeepsOverlapMode:
    """A repaired network prices tuning in its base network's overlap mode."""

    @pytest.mark.parametrize("algo", ["swing", "rd"])
    def test_serial_repair_equals_serial_from_scratch(self, algo):
        faults = FaultSet.of(DeadWavelength(1))
        sched = build_schedule(algo, 8, 4096)
        base = _net(
            8, 8, t_tune=25e-6, overlap=False, keep_solutions=True,
            plan_cache=PlanCache(),
        )
        base.lower(sched)
        plan, degraded = base.repair_plan(sched, faults)
        assert plan.meta["reconfig"]["overlap"] is False
        scratch = OpticalRingNetwork(
            dataclasses.replace(base.config, faults=faults),
            overlap=False, plan_cache=PlanCache(),
        )
        assert (
            degraded.execute_plan(plan).total_time
            == scratch.execute_plan(scratch.lower(sched)).total_time
        )


class TestCaptureClaims:
    def test_claims_enable_late_annotation(self):
        # A tuning-free network can still capture claims so the pass can
        # be applied after the fact (what the planning tools do).
        net = _net(8, 8, capture_claims=True)
        sched = build_schedule("swing", 8, 4096)
        plan = net.lower(sched)
        assert all(
            rnd.claims for e in plan.entries for rnd in e.payload if rnd.n_circuits
        )
        annotated = apply_reconfig(plan, ReconfigModel(t_tune=T_TUNE))
        delay = net.config.mrr_reconfig_delay
        assert plan_total_time(annotated, delay) > plan_total_time(plan, delay)
        meta = annotated.meta["reconfig"]
        assert meta["n_profile_entries"] == len(plan.entries)
        assert 0.0 < meta["exposed_tune_s"] <= meta["raw_tune_s"]

    def test_claimless_plan_rejected(self):
        net = _net(8, 8)
        plan = net.lower(build_schedule("swing", 8, 4096))
        with pytest.raises(ValueError, match="no MRR claims"):
            apply_reconfig(plan, ReconfigModel(t_tune=T_TUNE))

    def test_round_claims_cover_both_endpoints(self):
        net = _net(8, 8, t_tune=T_TUNE)
        plan = net.lower(build_schedule("ring", 8, 1024))
        rnd = plan.entries[0].payload[0]
        nodes = {c[0] for c in rnd.claims}
        assert len(rnd.claims) >= 2 * 1  # src + dst MRR per circuit
        assert len(nodes) > 1
        assert rnd.claims == tuple(sorted(rnd.claims))
