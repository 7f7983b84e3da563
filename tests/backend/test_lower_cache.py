"""Plan-cache behavior through the ``lower()`` seam (every backend).

The PR-1 cross-run cache used to live inside the optical executor; it now
sits behind ``Backend.lower``. These tests pin the contract there:
counters on the lowered plan (and execution result), bit-identical warm
replay, LRU eviction, and no stale reuse when the configuration changes.
"""

import dataclasses

import pytest

from repro.backend import (
    AnalyticBackend,
    OpticalBackend,
    PlanCache,
)
from repro.collectives.registry import build_schedule
from repro.core.timing import CostModel
from repro.optical.config import OpticalSystemConfig


def _optical(cache, **cfg):
    config = OpticalSystemConfig(n_nodes=16, n_wavelengths=4, **cfg)
    return OpticalBackend(config, plan_cache=cache)


def _ring(n=16, elems=1600):
    return build_schedule("ring", n, elems, materialize=False)


class TestOpticalCounters:
    def test_cold_then_warm(self):
        cache = PlanCache(maxsize=64)
        be = _optical(cache)
        sched = _ring()
        cold = be.run(sched)
        assert cold.cache.misses > 0
        assert cold.cache.hits == 0
        warm = be.run(sched)
        assert warm.cache.hits == cold.cache.misses
        assert warm.cache.misses == 0
        # Lifetime tallies accumulate on the cache itself.
        assert cache.stats.hits == warm.cache.hits
        assert cache.stats.misses == cold.cache.misses

    def test_warm_replay_bit_identical(self):
        cache = PlanCache(maxsize=64)
        be = _optical(cache)
        for algo, kwargs in [("ring", {}), ("wrht", {"n_wavelengths": 4})]:
            sched = build_schedule(algo, 16, 1600, materialize=False, **kwargs)
            cold = be.run(sched)
            warm = be.run(sched)
            assert warm.total_time == cold.total_time
            assert warm.timeline == cold.timeline

    def test_eviction_counted(self):
        cache = PlanCache(maxsize=1)
        be = _optical(cache)
        # H-Ring lowers several distinct patterns; capacity 1 must evict.
        result = be.run(build_schedule("hring", 16, 1600, m=4, materialize=False))
        assert result.cache.evictions > 0
        assert len(cache) == 1

    def test_shared_cache_across_instances(self):
        cache = PlanCache(maxsize=64)
        cold = _optical(cache).run(_ring())
        warm = _optical(cache).run(_ring())
        assert warm.cache.hits == cold.cache.misses
        assert warm.total_time == cold.total_time


class TestAnalyticCounters:
    MODEL = CostModel(line_rate=5e9, step_overhead=25e-6)

    def test_cold_then_warm_bit_identical(self):
        cache = PlanCache(maxsize=64)
        be = AnalyticBackend(self.MODEL, w=4, plan_cache=cache)
        sched = _ring()
        cold = be.run(sched)
        assert (cold.cache.hits, cold.cache.misses) == (0, 1)
        warm = be.run(sched)
        assert (warm.cache.hits, warm.cache.misses) == (1, 0)
        assert warm.total_time == cold.total_time
        assert warm.timeline == cold.timeline

    def test_eviction_counted(self):
        cache = PlanCache(maxsize=1)
        be = AnalyticBackend(self.MODEL, w=4, plan_cache=cache)
        be.run(_ring(elems=1600))
        result = be.run(_ring(elems=3200))  # different size → second entry
        assert result.cache.evictions == 1


class TestNoStaleReuse:
    def test_optical_config_change_misses(self):
        cache = PlanCache(maxsize=64)
        base = _optical(cache)
        cold = base.run(_ring())
        # Same topology, one dark wavelength: keys embed the frozen config,
        # so nothing from the healthy run may be reused.
        degraded = _optical(cache, failed_wavelengths=frozenset({0}))
        result = degraded.run(_ring())
        assert result.cache.hits == 0
        assert result.cache.misses > 0
        # Re-pricing really happened: the ring now avoids wavelength 0.
        assert cold.peak_wavelength == 1
        assert result.peak_wavelength == 2

    def test_optical_phy_change_misses(self):
        cache = PlanCache(maxsize=64)
        _optical(cache).run(_ring())
        slower = _optical(cache, mrr_reconfig_delay=50e-6)
        result = slower.run(_ring())
        assert result.cache.hits == 0

    def test_analytic_model_change_misses(self):
        cache = PlanCache(maxsize=64)
        AnalyticBackend(self.model(), w=4, plan_cache=cache).run(_ring())
        other = AnalyticBackend(
            dataclasses.replace(self.model(), step_overhead=50e-6),
            w=4,
            plan_cache=cache,
        )
        result = other.run(_ring())
        assert (result.cache.hits, result.cache.misses) == (0, 1)

    def test_cache_not_shared_across_backend_kinds(self):
        cache = PlanCache(maxsize=64)
        _optical(cache).run(_ring())
        result = AnalyticBackend(self.model(), w=4, plan_cache=cache).run(_ring())
        assert result.cache.hits == 0

    @staticmethod
    def model():
        return CostModel(line_rate=5e9, step_overhead=25e-6)


class TestDisabledCache:
    def test_maxsize_zero_never_stores(self):
        cache = PlanCache(maxsize=0)
        be = _optical(cache)
        a = be.run(_ring())
        b = be.run(_ring())
        assert a.cache.hits == b.cache.hits == 0
        assert len(cache) == 0
        assert a.total_time == b.total_time


class TestKeyIsOrderFree:
    """A step reuses another schedule's plan when it moves the same
    (src, dst, size, op) multiset in a different order: SCRing's chain
    step at N=64 is Ring's reduce-scatter step, listed chunk-major. An
    order-sensitive key would turn each hit below into a miss."""

    @staticmethod
    def _backend(kind, cache):
        from repro.backend import registry
        from repro.electrical.config import ElectricalSystemConfig

        if kind == "electrical":
            config = ElectricalSystemConfig(n_nodes=64)
            return registry.create("electrical", config=config, plan_cache=cache)
        w, t_tune = {"optical-w64": (64, 0.0), "optical-w8-tune": (8, 25e-6)}[kind]
        config = OpticalSystemConfig(n_nodes=64, n_wavelengths=w, t_tune=t_tune)
        return registry.create("optical", config=config, plan_cache=cache)

    @pytest.mark.parametrize("kind", ["optical-w64", "optical-w8-tune", "electrical"])
    def test_scring_hits_ring_plan(self, kind):
        elems = 25_000_000
        cache = PlanCache(maxsize=4096)
        backend = self._backend(kind, cache)
        backend.run(build_schedule("ring", 64, elems), bytes_per_elem=4.0)
        scring = build_schedule("scring", 64, elems, pipeline=1)
        shared = backend.run(scring, bytes_per_elem=4.0)
        alone = self._backend(kind, PlanCache(maxsize=4096)).run(
            build_schedule("scring", 64, elems, pipeline=1), bytes_per_elem=4.0
        )
        assert shared.cache.hits >= 1
        assert alone.cache.hits == 0
        assert shared.total_time == alone.total_time
