#!/usr/bin/env bash
# Repo check gate: lint + static plan verification + the tier-1 test suite.
#
# Usage: scripts/check.sh [--fast] [extra pytest args...]
#
# Stages:
#   1. ruff (when available — CI images that lack it skip with a notice)
#   2. repro.check lint  (the REP, CONC and DET AST rules over src)
#   3. repro.check plan verifier over the figure golden plans
#   --fast stops here (lint + verifier only — the seconds-scale
#   pre-commit loop; see docs/TESTING.md). The full gate continues with:
#   4. collectives smoke (every registered algorithm built materialized and
#      not, verified numerically at two payloads and priced where a closed
#      form exists)
#   5. reconfiguration smoke (one overlapped cell per backend under a
#      25 us MRR tuning model: optical plans PLAN-clean with the
#      reconfigure-vs-hold decision logged, analytic overlap beating
#      serial, electrical untouched)
#   6. fault-injection smoke (seeded degraded scenarios per backend,
#      verified by repro.check; live fault runs checked for determinism;
#      incremental repair cross-checked against from-scratch recoloring
#      via --paranoid-repair; a Swing N=32/w=8 stuck-MRR repair must
#      cascade and verify PLAN-clean)
#   7. planning-service smoke (daemon on a temp socket; every backend's
#      served answer asserted bit-identical to the in-process path, again
#      under a serial MRR tuning model, plus a faulted request through
#      the repair seam)
#   8. end-to-end benchmark harness: its own tests, then a traced smoke
#      run (catches a renamed entry point or span target before the
#      benchmark run does)
#   9. tier-1 tests (which also auto-verify every lowered plan via the
#      repro.check pytest plugin)
set -euo pipefail

cd "$(dirname "$0")/.."

FAST=0
if [[ "${1:-}" == "--fast" ]]; then
    FAST=1
    shift
fi

export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff check =="
    ruff check src tests
    echo "== ruff format (diff only) =="
    ruff format --check src tests
else
    echo "== ruff not installed; skipping lint stage =="
fi

echo "== repro.check lint =="
python -m repro.check.lint src

echo "== repro.check golden plans (optical) =="
python -m repro.check check --backend optical

if [[ "$FAST" == "1" ]]; then
    echo "== --fast: skipping fault smoke and tier-1 tests =="
    exit 0
fi

echo "== collectives smoke (every registered algorithm, all N classes) =="
python - <<'PY'
from repro.backend.analytic import AnalyticBackend
from repro.collectives import build_schedule, verify_allreduce
from repro.collectives.registry import available_algorithms
from repro.core.timing import CostModel

# Build, numerically verify, and (where a closed form exists) lower every
# registered algorithm at a power of two, a non-power-of-two, the paper's
# mid-size N, and N=129 just above the 128 materialization cutoff. Each
# (algorithm, N) is built materialized, unmaterialized (the default path at
# N=129) and at a second payload, which instantiates the same memoized
# structure again; that build is verified numerically too. DBTree has no
# closed-form model by design, so it is verified numerically but not
# priced analytically.
backend = AnalyticBackend(CostModel(line_rate=40e9 / 8, step_overhead=25e-6), w=8)
for algo in available_algorithms():
    for n in (8, 15, 64, 129):
        kwargs = {"n_wavelengths": 8} if algo == "wrht" else {}
        if algo == "hring":
            kwargs["m"] = min(5, n)
        elems = max(n, 32)
        exact = build_schedule(algo, n, elems, materialize=True, **kwargs)
        lean = build_schedule(
            algo, n, elems, materialize=None if n > 128 else False, **kwargs
        )
        if n <= 128:
            verify_allreduce(exact)
            verify_allreduce(
                build_schedule(algo, n, 3 * elems + 1, materialize=True, **kwargs)
            )
        for schedule in (exact, lean):
            assert schedule.n_steps == exact.n_steps, (
                algo, n, schedule.n_steps, exact.n_steps
            )
            if algo != "dbtree":
                result = backend.run(schedule, bytes_per_elem=4.0)
                assert result.n_steps == schedule.n_steps, (
                    algo, n, result.n_steps, schedule.n_steps
                )
    print(f"  {algo}: verified at N=8/15/64 (two payloads); N=129 built both ways")
PY

echo "== reconfiguration smoke (tuning model + overlap, per backend) =="
python - <<'PY'
from repro.backend.analytic import AnalyticBackend
from repro.backend.electrical import ElectricalBackend
from repro.backend.optical import OpticalBackend
from repro.check.context import optical_context
from repro.check.engine import verify_plan
from repro.check.findings import errors
from repro.collectives import build_schedule
from repro.core.timing import CostModel
from repro.electrical.config import ElectricalSystemConfig
from repro.optical.config import OpticalSystemConfig
from repro.optical.reconfig import ReconfigModel

T_TUNE = 25e-6
model = CostModel(line_rate=40e9 / 8, step_overhead=25e-6)

# Optical: lower one overlapped cell through the reconfigure-vs-hold
# estimator and verify the chosen plan against PLAN000-PLAN008.
cfg = OpticalSystemConfig(n_nodes=8, n_wavelengths=32, t_tune=T_TUNE)
for algo, elems in (("swing", 4096), ("rd", 1_000_000)):
    schedule = build_schedule(algo, 8, elems)
    backend = OpticalBackend(cfg)
    plan = backend.lower(schedule)
    decision = plan.meta["reconfig"]["decision"]
    context = optical_context(backend, schedule, plan)
    errs = errors(verify_plan(context=context))
    assert not errs, (algo, errs)
    print(
        f"  optical {algo}/{elems}: decision={decision['chosen']} "
        f"(reconfigure={decision['reconfigure_s']:.3e}s "
        f"hold={decision['hold_s']}) PLAN-clean"
    )

# Analytic: the overlap recurrence must never lose to serial tuning.
schedule = build_schedule("swing", 8, 1_000_000, materialize=False)
times = {}
for overlap in (True, False):
    backend = AnalyticBackend(
        model, w=32, reconfig=ReconfigModel(t_tune=T_TUNE), overlap=overlap
    )
    times[overlap] = backend.run(schedule).total_time
assert times[True] < times[False], times
print(f"  analytic swing: overlap {times[True]:.3e}s < serial {times[False]:.3e}s")

# Electrical: packet switching pays no reconfiguration tax.
schedule = build_schedule("swing", 8, 4096)
base = ElectricalBackend(ElectricalSystemConfig(n_nodes=8)).run(schedule)
taxed = ElectricalBackend(
    ElectricalSystemConfig(n_nodes=8), reconfig=ReconfigModel(t_tune=T_TUNE)
).run(schedule)
assert base.total_time == taxed.total_time
print(f"  electrical swing: zero tuning tax ({base.total_time:.3e}s)")
PY

echo "== fault-injection smoke =="
python -m repro.faults --paranoid-repair

echo "== planning-service smoke =="
python -m repro.service smoke

echo "== e2e benchmark harness (tests + traced smoke run) =="
python -m pytest -q benchmarks/e2e
python3 benchmarks/e2e/run.py --smoke --trace

echo "== tier-1 tests =="
python -m pytest -x -q "$@"
