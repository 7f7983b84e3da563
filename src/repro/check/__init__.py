"""Static analysis for the reproduction: plan verifier + AST lint.

Two subsystems share this package:

- the **plan verifier** (:mod:`repro.check.engine`,
  :mod:`repro.check.plan_rules`) proves properties of a lowered plan
  without executing it — wavelength exclusivity, port budgets, dataflow
  conservation, closed-form step counts, phy feasibility;
- the **lint pass** (:mod:`repro.check.lint`) walks the repo's own source
  with :mod:`ast`, one file at a time, for reproduction-specific hazards
  (REP), async-safety hazards (CONC) and determinism hazards (DET).

Entry points::

    from repro.check import verify_plan, optical_context
    findings = verify_plan(context=optical_context(backend, schedule))

    $ python -m repro.check.lint src
    $ wrht-repro check --backend optical --fig fig5

This ``__init__`` stays import-light on purpose: :mod:`repro.collectives.base`
and :mod:`repro.optical.circuit` import the dependency-free
:mod:`repro.check.intervals` engine at module level, so eagerly importing
the rule modules here (which import ``collectives``/``optical`` back) would
cycle. Heavy names are provided lazily via PEP 562 ``__getattr__``.
"""

from __future__ import annotations

from repro.check.findings import (
    Finding,
    Severity,
    errors,
    has_errors,
    render_findings,
)
from repro.check.intervals import Claim, Conflict, find_conflicts

__all__ = [
    "CheckContext",
    "Claim",
    "Conflict",
    "Finding",
    "PlanVerificationError",
    "Rule",
    "Severity",
    "all_rules",
    "errors",
    "find_conflicts",
    "get_rule",
    "has_errors",
    "optical_context",
    "register_rule",
    "render_findings",
    "run_rules",
    "verify_plan",
]

_LAZY = {
    "CheckContext": "repro.check.context",
    "optical_context": "repro.check.context",
    "PlanVerificationError": "repro.check.engine",
    "Rule": "repro.check.engine",
    "all_rules": "repro.check.engine",
    "get_rule": "repro.check.engine",
    "register_rule": "repro.check.engine",
    "run_rules": "repro.check.engine",
    "verify_plan": "repro.check.engine",
}


def __getattr__(name: str):
    """Lazily resolve the engine/context names (PEP 562).

    Importing them eagerly would cycle through ``repro.collectives.base``,
    which itself imports :mod:`repro.check.intervals`.
    """
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value
