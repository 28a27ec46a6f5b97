"""Prepared planner inputs live exactly as long as their statistics.

A :class:`~repro.query.planner.QueryPlanner` keeps the k-independent part
of its work (score profiles, join vectors, memoised bucket-pair joins)
between plans, valid while the catalog still hands out the statistics
object it was built from.  Landed maintenance replaces that object; the
next plan must then be the plan a brand-new planner makes — field for
field — and nothing may keep the replaced statistics alive, nor the
tables the planner filled per scoring function beside them.
"""

from __future__ import annotations

import gc
import threading
import weakref

from repro.common.functions import WeightedSumFunction
from repro.core.bfhm.algorithm import BFHMRankJoin
from repro.core.isl import ISLRankJoin
from repro.maintenance.interceptor import MaintainedRelation
from repro.query import statistics
from repro.query.planner import QueryPlanner
from repro.query.spec import RankJoinQuery
from repro.serving.server import QueryServer
from repro.tpch.loader import lineitem_by_order_binding
from repro.tpch.queries import q2
from repro.tpch.updates import generate_refresh_sets
from tests.integration.test_golden_plans import _pinned


def _refresh_lineitem(setup, relation) -> None:
    """One TPC-H refresh set's lineitem inserts and deletes."""
    refresh = generate_refresh_sets(setup.data, count=1)[0]
    relation.insert_batch(
        [(item["rowkey"], item) for item in refresh.insert_lineitems]
    )
    assert relation.delete_batch(list(refresh.delete_lineitems)) > 0


def test_plan_after_maintenance_equals_a_new_planners(fresh_setup):
    platform, engine = fresh_setup.platform, fresh_setup.engine
    query = q2(20)
    isl, bfhm = ISLRankJoin(platform), BFHMRankJoin(platform)
    for algorithm in (isl, bfhm):
        algorithm.prepare(query)
        engine.register(algorithm.name.lower(), algorithm)
    lineitem = MaintainedRelation(
        platform, lineitem_by_order_binding(),
        maintain_isl=True, bfhm_manager=bfhm.update_manager,
        statistics_catalog=engine.statistics,
    )

    first = _pinned(engine.plan(query))
    replaced = weakref.ref(engine.statistics.stats_for(query.right))
    kept = engine.statistics.stats_for(query.left)
    # every matcher is over lineitem, and holds the plan's function tables
    matchers = [weakref.ref(matcher) for matcher in engine.planner._matchers.values()]
    assert matchers
    assert all(matcher()._tables for matcher in matchers)

    _refresh_lineitem(fresh_setup, lineitem)

    second = _pinned(engine.plan(query))
    assert second == _pinned(QueryPlanner(engine).plan(query))
    assert second != first  # the refresh really moved the estimates
    assert engine.statistics.stats_for(query.left) is kept
    gc.collect()
    assert replaced() is None, "something still holds the replaced statistics"
    assert all(matcher() is None for matcher in matchers), (
        "something still holds a replaced matcher and its function tables"
    )


def test_replaced_state_is_released_before_the_next_gather(fresh_setup, monkeypatch):
    """The gather that follows an invalidation already runs without the
    replaced statistics: the planner drops the prepared side, every
    matcher over it and its stale cached plans first, instead of holding
    them (a few MB per relation pair) beside the statistics being
    gathered."""
    engine = fresh_setup.engine
    query = q2(20)
    engine.plan(query)
    replaced = weakref.ref(engine.statistics.stats_for(query.right))
    matchers = [weakref.ref(matcher) for matcher in engine.planner._matchers.values()]
    assert matchers

    alive_at_gather = []
    gather = statistics.gather_statistics

    def observed_gather(*args, **kwargs):
        gc.collect()
        alive_at_gather.append(
            (replaced() is not None, sum(ref() is not None for ref in matchers))
        )
        return gather(*args, **kwargs)

    monkeypatch.setattr(statistics, "gather_statistics", observed_gather)
    engine.invalidate_statistics(query.right.table)
    engine.plan(query)
    assert alive_at_gather == [(False, 0)]


def test_equal_weights_share_one_table(fresh_setup):
    """Function tables are keyed by value: two weighted sums with equal
    weights — distinct objects, different k — fill and read one table
    per matcher, another weight gets its own."""
    engine = fresh_setup.engine
    twice = [WeightedSumFunction([2.0, 1.0]), WeightedSumFunction([2, 1])]
    for k, function in zip((10, 30), twice):
        engine.plan(RankJoinQuery(inputs=q2(k).inputs, function=function, k=k))
    tables = [
        key for matcher in engine.planner._matchers.values()
        for key in matcher._tables
    ]
    assert tables and len(tables) == len(set(tables))
    assert {key[1] for key in tables} == {twice[0].value_key}
    engine.plan(RankJoinQuery(
        inputs=q2(10).inputs, function=WeightedSumFunction([3.0, 1.0]), k=10
    ))
    assert sum(
        len(matcher._tables) for matcher in engine.planner._matchers.values()
    ) == 2 * len(tables)


def test_worker_engines_sharing_one_catalog_each_replace_their_own(fresh_setup):
    platform = fresh_setup.platform
    with QueryServer(platform) as server:
        # one engine per thread, as caller threads build them
        engines = []
        for _ in range(2):
            thread = threading.Thread(
                target=lambda: engines.append(server.engine())
            )
            thread.start()
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert engines[0] is not engines[1]
        assert engines[0].statistics is engines[1].statistics
        lineitem = MaintainedRelation(
            platform, lineitem_by_order_binding(),
            statistics_catalog=server.statistics,
        )
        # different k per worker: each prices its own plan (the shared
        # plan cache would hand the second worker the first one's)
        queries = [q2(10), q2(30)]

        first = [
            _pinned(engine.plan(query))
            for engine, query in zip(engines, queries)
        ]
        replaced = weakref.ref(server.statistics.stats_for(queries[0].right))
        for engine in engines:
            (side,) = [
                side for side in engine.planner._sides.values()
                if side.stats is replaced()
            ]
        del side

        _refresh_lineitem(fresh_setup, lineitem)

        for engine, query, before in zip(engines, queries, first):
            again = _pinned(engine.plan(query))
            assert again == _pinned(QueryPlanner(engine).plan(query))
            assert again != before
        gc.collect()
        assert replaced() is None, "a worker still holds the replaced statistics"


def test_shared_plan_cache_drops_stale_plans_on_store(fresh_setup):
    """A stale entry of the shared plan cache keeps its plan, and through
    it the statistics it was priced against.  The next plan stored drops
    it, although its own key is never looked up again."""
    with QueryServer(fresh_setup.platform) as server:
        engine = server.engine()
        engine.plan(q2(10))
        replaced = weakref.ref(server.statistics.stats_for(q2(10).right))
        server.statistics.invalidate(q2(10).right.table)
        engine.plan(q2(30))
        assert len(server.plan_cache) == 1
        gc.collect()
        assert replaced() is None, "a stale cached plan still holds the replaced statistics"
