"""Plan-cache unit tests: accounting, eviction, version invalidation.

The pure LRU/version logic is tested against a fake catalog (fast, exact);
the integration tests drive the real planner through
``RankJoinEngine(plan_cache=...)`` and pin the regression that a cached
plan never survives an index drop (``forget`` / ``drop_family``).
"""

from __future__ import annotations

import pytest

from repro.cluster.costmodel import EC2_PROFILE
from repro.core.indexes import ISL_TABLE
from repro.platform import Platform
from repro.query.engine import RankJoinEngine
from repro.query.statistics import StatisticsCatalog
from repro.serving.plan_cache import PlanCache
from repro.tpch.generator import generate
from repro.tpch.loader import load_tpch
from repro.tpch.queries import q1, q2


class _FakeCatalog:
    """Duck-typed stand-in exposing table_version like the real one."""

    def __init__(self) -> None:
        self._versions: dict[str, int] = {}

    def table_version(self, table: str) -> int:
        return self._versions.get(table, 0)

    def bump(self, table: str) -> None:
        self._versions[table] = self.table_version(table) + 1


class TestPlanCacheUnit:
    def test_miss_then_hit_accounting(self):
        catalog = _FakeCatalog()
        cache = PlanCache(catalog, capacity=4)
        versions = cache.versions_for(("part", "lineitem"))
        assert cache.lookup("shape-a") is None
        assert cache.store("shape-a", "plan-a", versions)
        assert cache.lookup("shape-a") == "plan-a"
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5
        assert len(cache) == 1

    def test_lru_eviction_drops_oldest(self):
        catalog = _FakeCatalog()
        cache = PlanCache(catalog, capacity=2)
        versions = cache.versions_for(("t",))
        cache.store("a", 1, versions)
        cache.store("b", 2, versions)
        assert cache.lookup("a") == 1  # touch "a" so "b" is now LRU
        cache.store("c", 3, versions)
        assert cache.evictions == 1
        assert cache.lookup("b") is None
        assert cache.lookup("a") == 1
        assert cache.lookup("c") == 3

    def test_version_bump_invalidates_only_dependents(self):
        catalog = _FakeCatalog()
        cache = PlanCache(catalog, capacity=4)
        cache.store("over-part", "p", cache.versions_for(("part",)))
        cache.store("over-orders", "o", cache.versions_for(("orders",)))
        catalog.bump("part")
        assert cache.lookup("over-part") is None
        assert cache.invalidations == 1
        assert cache.lookup("over-orders") == "o"

    def test_store_refuses_versions_stale_before_landing(self):
        catalog = _FakeCatalog()
        cache = PlanCache(catalog, capacity=4)
        versions = cache.versions_for(("part",))
        catalog.bump("part")  # maintenance lands mid-planning
        assert not cache.store("shape", "stale-plan", versions)
        assert len(cache) == 0
        assert cache.lookup("shape") is None

    def test_capacity_zero_disables_caching(self):
        catalog = _FakeCatalog()
        cache = PlanCache(catalog, capacity=0)
        versions = cache.versions_for(("part",))
        assert not cache.store("shape", "plan", versions)
        assert cache.lookup("shape") is None
        assert cache.hit_rate == 0.0

    def test_clear_keeps_accounting(self):
        catalog = _FakeCatalog()
        cache = PlanCache(catalog, capacity=4)
        cache.store("a", 1, cache.versions_for(("part",)))
        cache.lookup("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1
        stats = cache.stats()
        assert stats["size"] == 0 and stats["hits"] == 1


@pytest.fixture(scope="module")
def planning_setup():
    """Loaded platform + shared catalog/cache + engine, ISL index built."""
    platform = Platform(EC2_PROFILE)
    load_tpch(platform.store, generate(micro_scale=0.05, seed=7))
    catalog = StatisticsCatalog(platform)
    cache = PlanCache(catalog, capacity=16)
    engine = RankJoinEngine(platform, statistics_catalog=catalog, plan_cache=cache)
    engine.algorithm("isl").prepare(q1(1))
    engine.algorithm("isl").prepare(q2(1))
    catalog.invalidate("part")
    catalog.invalidate("orders")
    catalog.invalidate("lineitem")
    return platform, catalog, cache, engine


class TestPlannerIntegration:
    def test_second_plan_is_a_cache_hit(self, planning_setup):
        _, _, cache, engine = planning_setup
        hits_before = cache.hits
        first = engine.planner.plan(q1(5))
        second = engine.planner.plan(q1(5))
        assert second is first  # the very same cached object
        assert cache.hits == hits_before + 1

    def test_distinct_shapes_get_distinct_entries(self, planning_setup):
        _, _, cache, engine = planning_setup
        plan_k5 = engine.planner.plan(q2(5))
        plan_k10 = engine.planner.plan(q2(10))
        assert plan_k5 is not plan_k10
        assert engine.planner.plan(q2(10)) is plan_k10

    def test_statistics_invalidation_forces_replan(self, planning_setup):
        _, catalog, cache, engine = planning_setup
        cached = engine.planner.plan(q1(7))
        catalog.invalidate("lineitem")  # what the interceptor calls
        invalidations_before = cache.invalidations
        replanned = engine.planner.plan(q1(7))
        assert replanned is not cached
        assert cache.invalidations == invalidations_before + 1

    def test_cached_plan_never_survives_index_drop(self, planning_setup):
        """Regression: dropping an index family must invalidate every plan
        priced while it was built — a stale plan would route queries to an
        index that no longer exists."""
        platform, _, cache, engine = planning_setup
        cached = engine.planner.plan(q1(9))
        assert cached.estimate("isl").notes == [] or True  # plan exists
        # the drop listener chain: Table.drop_family -> Store._notify_drop
        # -> StatisticsCatalog.on_store_drop -> version bump -> stale entry
        platform.store.backing(ISL_TABLE).drop_family(q1(9).left.signature)
        replanned = engine.planner.plan(q1(9))
        assert replanned is not cached
        # the replan priced ISL as unbuilt for the dropped side
        note_text = " ".join(replanned.estimate("isl").notes)
        assert "NOT built" in note_text
        # restore the family for the other module tests
        engine.algorithm("isl")._build_reports.pop(q1(9).left.signature, None)
        engine.algorithm("isl")._external_indexes.discard(q1(9).left.signature)
        engine.algorithm("isl").prepare(q1(1))
