"""Benchmark-regression gate: compare fresh measurements to baselines.

``scripts/bench_gate.py`` re-measures the pinned cells of every gated
bench and :func:`compare` decides pass/fail against the committed
``BENCH_*.json``. Each gated ``benchmarks/bench_*.py`` declares a
:class:`BenchSchema` next to the code that writes its JSON; one
:class:`Section` per row list says how rows are keyed and labelled and
how each field is compared, matched to what the number *is*:

- **Deterministic simulated values** (availability, degraded seconds,
  survivor and transfer counts) are pure functions of the inputs, so they
  are compared exactly or at a tight relative tolerance
  (:data:`DEFAULT_SIM_REL_TOL`); any drift means the model changed.
- **Wall-clock numbers** (RWA and repair speedups, service req/s) are
  host-noisy, so they only have to stay above ``perf_floor`` × baseline
  (:data:`DEFAULT_PERF_FLOOR`: only a 4× regression fails), plus any
  absolute floor.

Rows match on their key in both directions: a measured row absent from
the baseline fails each baseline-relative field (``missing-baseline``) —
silently ungated metrics are how trajectories rot — and a baseline row
that a fully re-measured section no longer produces fails once
(``missing-current``).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

DEFAULT_SIM_REL_TOL = 1e-6
DEFAULT_PERF_FLOOR = 0.25


@dataclass(frozen=True)
class GateViolation:
    """One failed comparison.

    Attributes:
        metric: Dotted metric label (``"faults.cut-fiber.optical.availability"``).
        kind: ``"rel"`` (deterministic drift), ``"floor"`` (perf floor
            breached), ``"exact"`` (integer mismatch),
            ``"missing-baseline"`` or ``"missing-current"``.
        current: Freshly measured value (``None`` for missing metrics).
        baseline: Committed value (``None`` when absent from the baseline).
        allowed: Human-readable bound that was violated.
    """

    metric: str
    kind: str
    current: float | None
    baseline: float | None
    allowed: str

    def render(self) -> str:
        """One-line human-readable form."""
        return (
            f"[{self.kind}] {self.metric}: current={self.current!r} "
            f"baseline={self.baseline!r} (allowed: {self.allowed})"
        )


@dataclass
class GateReport:
    """Outcome of one gate run: every comparison made, every violation."""

    checked: list[str] = field(default_factory=list)
    violations: list[GateViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no comparison failed."""
        return not self.violations

    def merge(self, other: "GateReport") -> "GateReport":
        """Fold ``other``'s comparisons into this report (returns self)."""
        self.checked.extend(other.checked)
        self.violations.extend(other.violations)
        return self

    def to_dict(self) -> dict:
        """JSON-ready diff record (uploaded as a CI artifact on failure)."""
        return {
            "ok": self.ok,
            "n_checked": len(self.checked),
            "checked": list(self.checked),
            "violations": [
                {
                    "metric": v.metric,
                    "kind": v.kind,
                    "current": v.current,
                    "baseline": v.baseline,
                    "allowed": v.allowed,
                }
                for v in self.violations
            ],
        }

    def render(self) -> str:
        """Multi-line summary (violations first)."""
        lines = [v.render() for v in self.violations]
        lines.append(
            f"bench gate: {len(self.checked)} comparison(s), "
            f"{len(self.violations)} violation(s)"
        )
        return "\n".join(lines)


def _check_rel(
    report: GateReport, metric: str, current: float, baseline: object, rel_tol: float
) -> None:
    """Two-sided relative comparison for deterministic values."""
    report.checked.append(metric)
    if baseline is None:
        report.violations.append(
            GateViolation(metric, "missing-baseline", current, None, "baseline present")
        )
        return
    baseline = float(baseline)
    scale = max(abs(current), abs(baseline))
    if scale == 0.0:
        return
    if abs(current - baseline) > rel_tol * scale:
        report.violations.append(
            GateViolation(
                metric, "rel", current, baseline, f"rel delta <= {rel_tol:g}"
            )
        )


def _check_exact(
    report: GateReport, metric: str, current: float, baseline: object
) -> None:
    """Exact comparison for structural integers."""
    report.checked.append(metric)
    if baseline is None:
        report.violations.append(
            GateViolation(metric, "missing-baseline", current, None, "baseline present")
        )
    elif current != baseline:
        report.violations.append(
            GateViolation(metric, "exact", current, baseline, "exact match")
        )


def _check_floor(
    report: GateReport, metric: str, current: float, baseline: object, floor: float
) -> None:
    """Perf floor: ``current >= baseline * floor``."""
    report.checked.append(metric)
    if baseline is None:
        report.violations.append(
            GateViolation(metric, "missing-baseline", current, None, "baseline present")
        )
        return
    baseline = float(baseline)
    bound = baseline * floor
    if current < bound:
        ratio = current / baseline if baseline else float("inf")
        report.violations.append(
            GateViolation(
                metric, "floor", current, baseline,
                f">= {bound:.3g} ({floor:g} x baseline); "
                f"measured {ratio:.3g} x baseline",
            )
        )


@dataclass(frozen=True)
class Section:
    """How one row list of a ``BENCH_*.json`` is gated.

    Per measured row the checks run in field order: ``zero`` (must be 0,
    baseline row or not), ``exact``, ``rel`` (within ``rel_tol``),
    ``floor`` (at least ``perf_floor`` × baseline), then ``absolute``
    ``(metric suffix, field, minimum)`` floors that ignore the baseline. A
    ``None`` in a ``rel`` field marks a quantity with no feasible plan
    (reconfig's ``hold_s``): with a baseline row, None-ness must match.
    Each ``invariants`` entry ``(metric, allowed, predicate)`` must hold
    over the measured rows whatever the baseline says, so regenerating
    the baseline cannot hide a broken mechanism; it fails as a ``floor``
    violation (0 qualifying rows where 1 is required).

    Attributes:
        name: The row list's key in the JSON (``"curves"``).
        key: Row-key fields; measured and baseline rows match on them.
        label: Metric-label format over a row (``"rwa.{case}.n{n}"``).
        complete: The gate's measure re-runs every baseline row, so a
            baseline row without a measured row is ``missing-current``.
    """

    name: str
    key: tuple[str, ...]
    label: str
    zero: tuple[str, ...] = ()
    exact: tuple[str, ...] = ()
    rel: tuple[str, ...] = ()
    floor: tuple[str, ...] = ()
    absolute: tuple[tuple[str, str, float], ...] = ()
    invariants: tuple[tuple[str, str, Callable[[list[dict]], bool]], ...] = ()
    complete: bool = True
    rel_tol: float = DEFAULT_SIM_REL_TOL
    perf_floor: float = DEFAULT_PERF_FLOOR

    def key_of(self, row: dict) -> tuple:
        """The row's key tuple."""
        return tuple(row[k] for k in self.key)


@dataclass(frozen=True)
class BenchSchema:
    """One gated ``BENCH_*.json``: its name, its measure, its sections.

    ``measure()`` returns fresh rows in the file's shape: section name ->
    row list.
    """

    file: str
    measure: Callable[[], dict[str, list[dict]]]
    sections: tuple[Section, ...]

    @property
    def wall_clock(self) -> bool:
        """True when any section gates a host-timed perf floor."""
        return any(section.floor for section in self.sections)


def _compare_row(
    report: GateReport, section: Section, row: dict, base: dict | None
) -> None:
    """Gate one measured row against its baseline row (``None``: absent)."""
    label = section.label.format(**row)
    committed = base or {}
    for name in section.zero:
        _check_exact(report, f"{label}.{name}", row[name], 0)
    for name in section.exact:
        _check_exact(report, f"{label}.{name}", row[name], committed.get(name))
    for name in section.rel:
        metric, value, was = f"{label}.{name}", row[name], committed.get(name)
        if base is None or (value is not None and was is not None):
            _check_rel(report, metric, value, was, section.rel_tol)
            continue
        report.checked.append(metric)
        if value is not None or was is not None:
            report.violations.append(
                GateViolation(
                    metric, "exact", value, was,
                    f"{name.removesuffix('_s')} feasibility (None-ness) must match",
                )
            )
    for name in section.floor:
        _check_floor(
            report, f"{label}.{name}", row[name], committed.get(name),
            section.perf_floor,
        )
    for suffix, name, minimum in section.absolute:
        _check_floor(report, f"{label}.{suffix}", row[name], minimum, 1.0)


def compare(bench: BenchSchema, current: dict, baseline: dict | None) -> GateReport:
    """Gate freshly measured ``current`` sections against a baseline dict.

    ``current`` and ``baseline`` have the ``BENCH_*.json`` shape (section
    name -> row list); a ``None`` baseline gates as an empty one.
    """
    report = GateReport()
    baseline = baseline or {}
    for section in bench.sections:
        rows = current.get(section.name, [])
        base_rows = {
            section.key_of(row): row for row in baseline.get(section.name, [])
        }
        for row in rows:
            _compare_row(report, section, row, base_rows.get(section.key_of(row)))
        if section.complete:
            measured = {section.key_of(row) for row in rows}
            for key, base in base_rows.items():
                if key not in measured:
                    metric = section.label.format(**base)
                    report.checked.append(metric)
                    report.violations.append(
                        GateViolation(metric, "missing-current", None, None,
                                      "row re-measured")
                    )
        for metric, allowed, holds in section.invariants:
            report.checked.append(metric)
            if not holds(rows):
                report.violations.append(GateViolation(metric, "floor", 0, 1, allowed))
    return report


def splice(bench: BenchSchema, current: dict, baseline: dict | None) -> dict:
    """``baseline`` with freshly measured ``current`` rows spliced in.

    Per section, rows match on the key: a measured row replaces its
    baseline row in place, unmeasured rows (e.g. the N=1024 RWA cells the
    gate never re-runs) keep their committed values, and new rows append.
    Sections and keys the schema does not gate are left untouched.
    """
    merged = dict(baseline or {})
    for section in bench.sections:
        fresh = {section.key_of(row): row for row in current[section.name]}
        rows = [
            fresh.pop(section.key_of(row), row)
            for row in merged.get(section.name, [])
        ]
        merged[section.name] = rows + list(fresh.values())
    return merged
