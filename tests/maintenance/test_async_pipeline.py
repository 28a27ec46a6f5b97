"""Asynchronous maintenance pipeline: enqueue, drain, watermarks, DLQ.

The tier-1 contract of :class:`~repro.maintenance.worker.
MaintenancePipeline`: a fully drained pipeline leaves exactly the state a
synchronous interceptor would; watermarks and staleness reports track the
log precisely; poisoned records dead-letter without blocking the rest;
retries back off on the simulated clock.  (Crash sweeps live in the
``chaos``-marked suite.)
"""

from __future__ import annotations

import pytest

from repro.errors import MaintenanceError, WALError, WorkerCrashError
from repro.maintenance.consistency import RetryPolicy
from repro.maintenance.faults import (
    CrashInjector,
    DrainPoint,
    FaultPlan,
    SlowDrainInjector,
    StoreFaultInjector,
)
from repro.maintenance.worker import BackgroundDrainer
from repro.relational.binding import load_relation
from repro.relational.naive import naive_rank_join
from repro.tpch.queries import q2

from tests.maintenance.rig import (
    apply_refresh_sync,
    assert_same_state,
    make_rig,
    submit_refresh,
)


class TestEnqueueDrain:
    def test_drained_pipeline_matches_synchronous_twin(self):
        async_rig = make_rig(pipeline_kwargs={"batch_size": 3})
        sync_rig = make_rig()
        for refresh_a, refresh_b in zip(
            async_rig.refreshes(2), sync_rig.refreshes(2)
        ):
            submit_refresh(async_rig, refresh_a)
            apply_refresh_sync(sync_rig, refresh_b)
        assert async_rig.pipeline.lag() > 0
        async_rig.pipeline.drain_all()
        assert async_rig.pipeline.lag() == 0
        assert_same_state(async_rig, sync_rig, "after drain")

    def test_queries_see_full_recall_after_drain(self):
        rig = make_rig(pipeline_kwargs={})
        for refresh in rig.refreshes(2):
            submit_refresh(rig, refresh)
        rig.pipeline.drain_all()
        query = q2(15)
        left = load_relation(rig.platform.store, query.left)
        right = load_relation(rig.platform.store, query.right)
        truth = naive_rank_join([left, right], query.function, 15)
        for algorithm in ("ijlmr", "isl", "bfhm"):
            result = rig.setup.engine.execute(query, algorithm=algorithm)
            assert result.recall_against(truth) == 1.0, algorithm

    def test_insert_then_delete_of_same_row_converges(self):
        """Log order is apply order: a row inserted and then deleted
        through the pipeline must vanish from base and indexes."""
        rig = make_rig(pipeline_kwargs={})
        refresh = rig.refreshes(1)[0]
        order = refresh.insert_orders[0]
        rig.pipeline.submit_insert("orders", order["orderkey"], order)
        rig.pipeline.submit_delete("orders", order["orderkey"])
        rig.pipeline.drain_all()
        assert rig.platform.store.backing("orders").read_row(
            order["orderkey"]
        ).empty

    def test_empty_submissions_are_not_logged(self):
        rig = make_rig(pipeline_kwargs={})
        assert rig.pipeline.submit_insert_batch("orders", []) == 0
        assert rig.pipeline.submit_delete_batch("orders", []) == 0
        assert rig.pipeline.lag() == 0
        assert rig.pipeline.drain_batch() == 0

    def test_unknown_table_rejected_at_submit(self):
        rig = make_rig(pipeline_kwargs={})
        with pytest.raises(MaintenanceError):
            rig.pipeline.submit_delete("nope", "r1")


class TestWatermarks:
    def test_sequences_and_watermarks_track_the_log(self):
        rig = make_rig(pipeline_kwargs={"batch_size": 2})
        refresh = rig.refreshes(1)[0]
        sequences = submit_refresh(rig, refresh)
        assert sequences == [1, 2, 3, 4]
        assert rig.pipeline.applied_sequence == 0
        assert rig.pipeline.lag() == 4

        assert rig.pipeline.drain_batch() == 2
        assert rig.pipeline.applied_sequence == 2
        assert rig.pipeline.lag() == 2

        rig.pipeline.drain_all()
        assert rig.pipeline.applied_sequence == 4
        for table in ("orders", "lineitem"):
            staleness = rig.pipeline.staleness(table)
            assert staleness.fresh
            assert staleness.pending == 0

    def test_staleness_reports_per_table_lag(self):
        rig = make_rig(pipeline_kwargs={})
        refresh = rig.refreshes(1)[0]
        rig.pipeline.submit_delete_batch("orders", refresh.delete_orders)
        orders = rig.pipeline.staleness("orders")
        lineitem = rig.pipeline.staleness("lineitem")
        assert orders.pending == 1 and not orders.fresh
        assert lineitem.pending == 0 and lineitem.fresh

    def test_drain_until_is_read_your_writes(self):
        rig = make_rig(pipeline_kwargs={"batch_size": 1})
        refresh = rig.refreshes(1)[0]
        sequences = submit_refresh(rig, refresh)
        rig.pipeline.drain_until(sequences[1])
        assert rig.pipeline.applied_sequence >= sequences[1]
        assert rig.pipeline.lag() > 0  # later submissions still pending

    def test_drain_until_beyond_log_raises(self):
        rig = make_rig(pipeline_kwargs={})
        with pytest.raises(WALError):
            rig.pipeline.drain_until(5)

    def test_backlog_bytes_returns_to_zero(self):
        rig = make_rig(pipeline_kwargs={})
        submit_refresh(rig, rig.refreshes(1)[0])
        assert rig.pipeline.backlog_bytes() > 0
        rig.pipeline.drain_all()
        assert rig.pipeline.backlog_bytes() == 0


class TestRetriesAndBackoff:
    def test_transient_faults_retried_to_same_state(self):
        faults = FaultPlan([StoreFaultInjector(failures_per_mutation=2)])
        flaky = make_rig(
            pipeline_kwargs={
                "faults": faults,
                "retry_policy": RetryPolicy(
                    max_attempts=6, initial_backoff_s=0.05
                ),
            }
        )
        clean = make_rig()
        submit_refresh(flaky, flaky.refreshes(1)[0])
        apply_refresh_sync(clean, clean.refreshes(1)[0])
        flaky.pipeline.drain_all()
        assert faults.injectors[0].injected > 0
        assert_same_state(flaky, clean, "under transient store faults")

    def test_backoff_is_charged_to_simulated_time(self):
        policy = RetryPolicy(max_attempts=4, initial_backoff_s=0.5)
        rig = make_rig(
            pipeline_kwargs={
                "faults": FaultPlan(
                    [StoreFaultInjector(failures_per_mutation=2)]
                ),
                "retry_policy": policy,
            }
        )
        submit_refresh(rig, rig.refreshes(1)[0])
        before = rig.platform.metrics.sim_time_s
        rig.pipeline.drain_all()
        charged = rig.platform.metrics.sim_time_s - before
        # every mutation waited out at least the first two backoff steps
        assert charged >= policy.backoff_s(0) + policy.backoff_s(1)

    def test_slow_drain_throttles_batches(self):
        rig = make_rig(
            pipeline_kwargs={
                "batch_size": 8,
                "faults": FaultPlan([SlowDrainInjector(1)]),
            }
        )
        submit_refresh(rig, rig.refreshes(1)[0])
        assert rig.pipeline.drain_batch() == 1
        assert rig.pipeline.lag() == 3


class TestDeadLetters:
    def _poisoned_rig(self, **pipeline_extra):
        faults = FaultPlan([StoreFaultInjector(poison_mutations=1)])
        rig = make_rig(
            pipeline_kwargs={
                "faults": faults,
                "retry_policy": RetryPolicy(max_attempts=2),
                **pipeline_extra,
            }
        )
        return rig, faults

    def test_poisoned_record_dead_letters_without_blocking(self):
        rig, _ = self._poisoned_rig()
        refresh = rig.refreshes(1)[0]
        submit_refresh(rig, refresh)
        rig.pipeline.drain_all()
        stats = rig.pipeline.stats()
        assert stats["dead_letters"] == 1
        assert stats["mutation_failures"] == 1
        # the checkpoint moved past the poisoned entry: the rest applied
        assert stats["applied_sequence"] == stats["last_sequence"]
        assert rig.pipeline.lag() == 0

    def test_dead_letters_can_be_retried_after_recovery(self):
        rig, faults = self._poisoned_rig()
        refresh = rig.refreshes(1)[0]
        submit_refresh(rig, refresh)
        rig.pipeline.drain_all()
        assert len(rig.pipeline.dead_letters) == 1
        # the store "recovers": stop injecting and re-apply the DLQ
        faults.injectors.clear()
        assert rig.pipeline.retry_dead_letters() == 1
        assert rig.pipeline.dead_letters == []

        clean = make_rig()
        apply_refresh_sync(clean, clean.refreshes(1)[0])
        assert_same_state(rig, clean, "after DLQ retry")

    def test_halt_on_dead_letter_stops_the_pipeline(self):
        rig, _ = self._poisoned_rig(halt_on_dead_letter=True)
        submit_refresh(rig, rig.refreshes(1)[0])
        from repro.maintenance.consistency import MutationFailedError

        with pytest.raises(MutationFailedError):
            rig.pipeline.drain_all()
        with pytest.raises(MaintenanceError):
            rig.pipeline.drain_batch()
        rig.pipeline.recover()
        rig.pipeline.drain_all()  # poisoned entry stays dead-lettered
        assert rig.pipeline.lag() == 0


class TestCrashSmoke:
    """One representative crash/recover cycle stays in tier-1; the full
    drain-point × occurrence sweep is in the chaos suite."""

    def test_crash_after_apply_recovers_to_clean_state(self):
        crashed = make_rig(
            pipeline_kwargs={
                "batch_size": 2,
                "faults": FaultPlan(
                    [CrashInjector(DrainPoint.AFTER_APPLY, occurrence=1)]
                ),
            }
        )
        clean = make_rig()
        submit_refresh(crashed, crashed.refreshes(1)[0])
        apply_refresh_sync(clean, clean.refreshes(1)[0])

        with pytest.raises(WorkerCrashError):
            crashed.pipeline.drain_all()
        assert crashed.pipeline.crashed
        with pytest.raises(MaintenanceError):
            crashed.pipeline.drain_batch()

        replayable = crashed.pipeline.recover()
        assert replayable > 0
        crashed.pipeline.drain_all()
        assert crashed.pipeline.lag() == 0
        assert crashed.pipeline.stats()["recoveries"] == 1
        assert_same_state(crashed, clean, "after crash recovery")

    def test_recover_without_crash_is_harmless(self):
        rig = make_rig(pipeline_kwargs={})
        submit_refresh(rig, rig.refreshes(1)[0])
        before = rig.pipeline.lag()
        assert rig.pipeline.recover() == before
        assert rig.pipeline.lag() == before
        rig.pipeline.drain_all()
        assert rig.pipeline.lag() == 0


class TestBackgroundDrainer:
    def test_drainer_empties_the_backlog(self):
        rig = make_rig(pipeline_kwargs={"batch_size": 2})
        drainer = BackgroundDrainer(rig.pipeline, interval_s=0.001).start()
        try:
            submit_refresh(rig, rig.refreshes(1)[0])
        finally:
            drainer.stop(drain=True)
        assert rig.pipeline.lag() == 0
        clean = make_rig()
        apply_refresh_sync(clean, clean.refreshes(1)[0])
        assert_same_state(rig, clean, "after background drain")
