"""Cross-run plan cache shared by every lowering backend.

Backends already price each distinct step *pattern* once per ``lower()``
call. A paper-figure sweep, however, lowers thousands of schedules across
(N, w, d) combinations, and identical patterns under identical
configurations re-price from scratch on every call. This module provides a
bounded LRU cache shared across backend instances and ``lower()`` calls.
Keys are backend-composed tuples of

``(pattern_key, config fingerprint, bytes_per_elem, ...)``

— the full set of inputs that determine a pattern's priced plan — and the
value is whatever priced summary the backend stores (the optical backends
store a :class:`CachedRound` tuple; the electrical backend a fluid-timing
summary; the analytic backend a closed-form decomposition). The pattern
key is :meth:`~repro.collectives.base.CommStep.pattern_key`: the step's
(src, dst, n_elems, op) rows as int64 bytes in lexicographic order, so two
keys are equal exactly when the steps move the same transfer multiset, and
a bytes object caches its hash, so lookups and LRU moves never re-hash a
large step. Replay is bit-identical by construction: cached entries hold
the exact floats the cold path produced, and backends fold them in the
identical order.

Correctness guards:

- ``random_fit`` optical executors bypass the cache entirely (their RNG
  stream must advance exactly as an uncached run would);
- frozen config dataclasses are part of every key, so any change to
  ``failed_wavelengths``, the PHY parameters or the rates is automatically
  a different entry — no manual invalidation is ever needed (an explicit
  :meth:`PlanCache.clear` exists for benchmarks);
- per-``lower()`` hit/miss/eviction tallies are exposed on the lowered
  plan and its :class:`~repro.backend.base.ExecutionResult`; lifetime
  tallies live on :attr:`PlanCache.stats`.

The cache itself is per-process state. Parallel sweep workers each warm
their own copy (fork inherits the parent's warmed cache for free on
Linux); :mod:`repro.service.store` layers a sharded, versioned on-disk
store underneath (:class:`~repro.service.store.PersistentPlanCache`) when
warm plans should survive the process and be shared across workers —
:func:`set_default_plan_cache` swaps it in process-wide.

This module started life as ``repro.optical.plancache`` (PR 1); it moved
here when the cache went behind the unified ``lower()`` seam so that every
backend benefits (the old module remained as a deprecated alias until its
removal in PR 7).

Delta-salted keys
-----------------

Incremental repair (:mod:`repro.optical.repair`) produces plans that are
valid for a degraded config but were *derived* from a base solution, and a
repaired coloring need not equal the from-scratch coloring for the same
final fault set. Such entries are keyed with :func:`delta_salted_key` —
``(base key, delta)`` instead of the final config — so the two can never
alias: a from-scratch lowering of the degraded config keys on its own
frozen config, a repair keys on where it came from plus what changed.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable


@dataclass
class PlanCacheCounters:
    """Hit/miss/eviction tallies (lifetime on a cache, per-run on results).

    Attributes:
        hits: Lookups served from the cache.
        misses: Lookups that had to price the step from scratch.
        evictions: Entries dropped to respect ``maxsize``.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view (used by result serialization)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


@dataclass(frozen=True)
class CachedRound:
    """Priced summary of one RWA round of an optical step pattern.

    Enough to rebuild the step's timing and replay its ``optical.round``
    trace events without re-running RWA.

    Attributes:
        n_circuits: Circuits established in the round.
        max_payload_s: The round's slowest payload serialization (seconds).
        peak_wavelength: Highest wavelength index used in the round, plus 1.
        payload_bytes: Total payload bytes the round moves.
        claims: MRR endpoint claims ``(node, direction, fiber, wavelength)``
            of the round's circuits, sorted — captured only when the
            network's reconfiguration model is enabled (empty otherwise, so
            legacy summaries and on-disk cache entries compare equal).
        tune_s: Exposed (non-overlapped) MRR tuning seconds charged before
            this round. Written by the reconfiguration pass
            (:func:`repro.optical.reconfig.apply_reconfig`); 0.0 keeps the
            pre-reconfig timings bit-identical.
    """

    n_circuits: int
    max_payload_s: float
    peak_wavelength: int
    payload_bytes: float
    claims: tuple = ()
    tune_s: float = 0.0


class PlanCache:
    """A bounded LRU mapping plan keys to priced summaries.

    ``maxsize=0`` disables the cache (every lookup misses, nothing is
    stored) — used by benchmarks to measure cold-path performance.
    """

    def __init__(self, maxsize: int = 4096) -> None:
        if maxsize < 0:
            raise ValueError(f"maxsize must be >= 0, got {maxsize}")
        self.maxsize = maxsize
        self.stats = PlanCacheCounters()
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()

    @property
    def enabled(self) -> bool:
        """Whether lookups can ever hit (``maxsize > 0``)."""
        return self.maxsize > 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Any | None:
        """The cached value for ``key`` (refreshing its LRU position)."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry

    def put(self, key: Hashable, value: Any) -> int:
        """Store ``value`` under ``key``; returns how many entries were
        evicted to make room (0 or 1, or nothing stored when disabled)."""
        if not self.enabled:
            return 0
        self._entries[key] = value
        self._entries.move_to_end(key)
        evicted = 0
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            evicted += 1
        self.stats.evictions += evicted
        return evicted

    def resize(self, maxsize: int) -> None:
        """Change capacity; shrinking evicts oldest entries immediately.

        ``resize(0)`` disables and empties the cache (benchmarks use this
        to measure the cold path through unmodified backend code).
        """
        if maxsize < 0:
            raise ValueError(f"maxsize must be >= 0, got {maxsize}")
        self.maxsize = maxsize
        while len(self._entries) > maxsize:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters keep their lifetime values)."""
        self._entries.clear()


def delta_salted_key(base_key: Hashable, delta: Hashable) -> tuple:
    """Key base for plans *derived* from another plan by a delta.

    Repaired lowerings are a function of (what they repaired, what
    changed), not of the final config alone — two different repair
    lineages reaching the same fault set may legitimately cache different
    plans. The ``"delta"`` sentinel keeps the derived namespace disjoint
    from every config-keyed entry.
    """
    return ("delta", base_key, delta)


_DEFAULT_CACHE = PlanCache()


def default_plan_cache() -> PlanCache:
    """The process-wide cache backends share unless given their own."""
    return _DEFAULT_CACHE


def set_default_plan_cache(cache: PlanCache) -> PlanCache:
    """Replace the process-wide default cache; returns the previous one.

    Backends capture the default at construction time, so install a
    replacement (e.g. a :class:`~repro.service.store.PersistentPlanCache`)
    *before* building the backends that should lower through it.
    """
    global _DEFAULT_CACHE
    if not isinstance(cache, PlanCache):
        raise TypeError(f"expected a PlanCache, got {type(cache).__name__}")
    previous = _DEFAULT_CACHE
    _DEFAULT_CACHE = cache
    return previous
