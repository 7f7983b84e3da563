"""Observability layer: metrics, profiling spans, run manifests, bench gate.

``repro.obs`` is dependency-free (stdlib only) and safe to import from any
layer — the sim engine, the RWA kernel and the backends all accept an
optional :class:`MetricsRegistry` and default to the disabled
:data:`NULL_METRICS`, whose cost is one branch per emission (the
:class:`~repro.sim.trace.Tracer` contract).

Submodules:

- :mod:`repro.obs.metrics` — the registry, snapshots, bucket edges.
- :mod:`repro.obs.manifest` — JSON run manifests (config/fault hashes,
  git SHA, metrics) for reproducibility audits and CI artifacts.
- :mod:`repro.obs.benchgate` — the schema-driven baseline comparison
  behind ``scripts/bench_gate.py``. Import it from the submodule: it is
  not re-exported here, so runtime imports of ``repro.obs`` do not load it.
- :mod:`repro.obs.cli` — ``wrht-repro obs`` / ``python -m repro.obs``:
  run one figure cell with metrics on, render the per-step
  timing/utilization table, optionally write a manifest.
"""

from repro.obs.manifest import (
    SCHEMA,
    build_run_manifest,
    fingerprint,
    git_sha,
    write_run_manifest,
)
from repro.obs.metrics import (
    COUNT_EDGES,
    DURATION_EDGES,
    NULL_METRICS,
    MetricsRegistry,
    MetricsSnapshot,
)

__all__ = [
    "COUNT_EDGES",
    "DURATION_EDGES",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NULL_METRICS",
    "SCHEMA",
    "build_run_manifest",
    "fingerprint",
    "git_sha",
    "write_run_manifest",
]
