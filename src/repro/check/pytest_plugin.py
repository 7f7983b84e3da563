"""Pytest plugin: statically verify every plan the test suite lowers.

Loaded from ``tests/conftest.py`` (``pytest_plugins``). It wraps the three
``lower()`` seams — the optical ring network, the electrical network, and
the analytic backend — so that *every* lowered plan produced anywhere in
the suite is run through the structural plan rules (PLAN000 structure,
PLAN004 step-count conformance, PLAN005 feasibility) with the source
schedule attached. A plan that fails raises
:class:`~repro.check.engine.PlanVerificationError` inside the test that
lowered it, turning every existing lowering test into a verification test
for free.

Only structural rules run here: the circuit-level rules would re-run RWA
(perturbing ``random_fit`` RNG streams and doubling suite cost), and the
dataflow rule assumes complete All-reduce schedules while many fixtures
lower deliberately partial synthetic ones. The full catalog runs in the
dedicated ``tests/check`` suite and the ``wrht-repro check`` CLI.

Opt out for a run with ``pytest --no-plan-verify``.
"""

from __future__ import annotations

import pytest

#: Rules safe to run on every lowered plan, including synthetic fixtures.
STRUCTURAL_RULES = ("PLAN000", "PLAN004", "PLAN005")

_COUNTS = {"verified": 0}
_ORIGINALS: list[tuple[type, object]] = []


def _verified_lower(cls) -> None:
    original = cls.lower
    _ORIGINALS.append((cls, original))

    def lower(self, schedule, *args, **kwargs):
        from repro.check.engine import verify_plan

        plan = original(self, schedule, *args, **kwargs)
        verify_plan(
            plan,
            schedule,
            rule_ids=STRUCTURAL_RULES,
            raise_on_error=True,
        )
        _COUNTS["verified"] += 1
        return plan

    lower.__doc__ = original.__doc__
    lower.__wrapped__ = original
    cls.lower = lower


def pytest_addoption(parser: pytest.Parser) -> None:
    """Register ``--no-plan-verify``."""
    parser.addoption(
        "--no-plan-verify",
        action="store_true",
        default=False,
        help="skip static verification of lowered plans",
    )


def pytest_configure(config: pytest.Config) -> None:
    """Install the verifying wrappers around the ``lower()`` seams."""
    if config.getoption("--no-plan-verify"):
        return
    from repro.backend.analytic import AnalyticBackend
    from repro.electrical.network import ElectricalNetwork
    from repro.optical.network import OpticalRingNetwork

    for cls in (OpticalRingNetwork, ElectricalNetwork, AnalyticBackend):
        _verified_lower(cls)


def pytest_unconfigure(config: pytest.Config) -> None:
    """Restore the original ``lower()`` implementations."""
    while _ORIGINALS:
        cls, original = _ORIGINALS.pop()
        cls.lower = original


def pytest_terminal_summary(terminalreporter, exitstatus, config) -> None:
    """Report how many lowered plans were statically verified."""
    if _COUNTS["verified"]:
        terminalreporter.write_line(
            f"repro.check: statically verified {_COUNTS['verified']} "
            "lowered plan(s)"
        )
