"""Bounded staleness at the serving layer.

:meth:`QueryServer.attach_maintenance` wires an async pipeline into
admission control: ``stale_ok`` serves through lag (and EXPLAIN surfaces
it), ``wait`` drains read-your-writes, ``bounded`` drains inputs to
within ``max_lag``, ``shed`` rejects, and ``max_backlog`` pushes back on
new queries when the worker cannot keep up.  The plan cache revalidates
against the pipeline's applied-sequence watermarks.
"""

from __future__ import annotations

import pytest

from repro.errors import ServerOverloadedError, StalenessBoundExceededError
from repro.maintenance.consistency import MutationFailedError
from repro.query.explain import render_plan
from repro.serving.server import QueryServer
from repro.tpch.queries import q2

from tests.maintenance.rig import make_rig, submit_refresh

QUERY = q2(5)


@pytest.fixture()
def served_rig():
    rig = make_rig(pipeline_kwargs={"batch_size": 2})
    server = QueryServer(rig.platform)
    try:
        yield rig, server
    finally:
        server.close()


def _backlog(rig) -> int:
    submit_refresh(rig, rig.refreshes(1)[0])
    return rig.pipeline.lag()


class TestPolicies:
    def test_unknown_policy_rejected(self, served_rig):
        rig, server = served_rig
        with pytest.raises(ValueError):
            server.attach_maintenance(rig.pipeline, policy="eventually")

    def test_stale_ok_serves_through_lag_and_explains_it(self, served_rig):
        rig, server = served_rig
        server.attach_maintenance(rig.pipeline, policy="stale_ok")
        lag = _backlog(rig)
        plan = server.explain(QUERY)
        assert plan.staleness  # at least one lagging input reported
        assert sum(plan.staleness.values()) <= lag
        assert "staleness: table" in render_plan(plan)
        served = server.execute(QUERY, algorithm="isl")
        assert served.ok
        assert rig.pipeline.lag() == lag  # nothing drained

    def test_wait_policy_is_read_your_writes(self, served_rig):
        rig, server = served_rig
        server.attach_maintenance(rig.pipeline, policy="wait")
        _backlog(rig)
        target = rig.pipeline.log.last_sequence
        served = server.execute(QUERY, algorithm="isl")
        assert served.ok
        assert rig.pipeline.applied_sequence >= target
        assert server.stats()["drains_triggered"] == 1
        # a second query with nothing pending triggers no drain
        server.execute(QUERY, algorithm="isl")
        assert server.stats()["drains_triggered"] == 1

    def test_bounded_policy_drains_to_within_the_bound(self, served_rig):
        rig, server = served_rig
        server.attach_maintenance(rig.pipeline, policy="bounded", max_lag=1)
        _backlog(rig)
        served = server.execute(QUERY, algorithm="isl")
        assert served.ok
        for binding in QUERY.inputs:
            assert rig.pipeline.lag(binding.table) <= 1

    def test_shed_policy_rejects_then_recovers(self, served_rig):
        rig, server = served_rig
        server.attach_maintenance(rig.pipeline, policy="shed", max_lag=0)
        _backlog(rig)
        with pytest.raises(StalenessBoundExceededError):
            server.execute(QUERY, algorithm="isl")
        assert server.stats()["staleness_rejects"] == 1
        rig.pipeline.drain_all()
        assert server.execute(QUERY, algorithm="isl").ok

    def test_backpressure_sheds_new_queries(self, served_rig):
        rig, server = served_rig
        server.attach_maintenance(rig.pipeline, policy="stale_ok", max_backlog=2)
        lag = _backlog(rig)
        assert lag > 2
        with pytest.raises(ServerOverloadedError):
            server.execute(QUERY, algorithm="isl")
        assert server.stats()["backpressure_shed"] == 1
        rig.pipeline.drain_all()
        assert server.execute(QUERY, algorithm="isl").ok


class TestPlanCacheWatermarks:
    def test_drain_invalidates_cached_plans_via_watermark(self, served_rig):
        """A drain moves the applied-sequence watermark even when nothing
        bumps the statistics versions, and cached plans must notice."""
        rig, server = served_rig
        server.attach_maintenance(rig.pipeline, policy="stale_ok")
        server.explain(QUERY)
        before = server.plan_cache.stats()
        server.explain(QUERY)
        assert server.plan_cache.stats()["hits"] == before["hits"] + 1

        _backlog(rig)
        rig.pipeline.drain_all()  # watermark moved; versions untouched
        server.explain(QUERY)
        assert (
            server.plan_cache.stats()["invalidations"]
            == before["invalidations"] + 1
        )


class TestMaintenanceVisibility:
    def test_stats_surface_pipeline_counters(self, served_rig):
        rig, server = served_rig
        server.attach_maintenance(rig.pipeline)
        _backlog(rig)
        maintenance = server.stats()["maintenance"]
        assert maintenance["backlog"] == rig.pipeline.lag()
        assert maintenance["dead_letters"] == 0
        rig.pipeline.drain_all()
        assert server.stats()["maintenance"]["backlog"] == 0

    def test_maintenance_failures_counted_not_swallowed(self, served_rig):
        rig, server = served_rig
        server.attach_maintenance(rig.pipeline)
        with pytest.raises(MutationFailedError):
            with server.maintenance("orders"):
                raise MutationFailedError("stuck store")
        assert server.stats()["maintenance_failures"] == 1
