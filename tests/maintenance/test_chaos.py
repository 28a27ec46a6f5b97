"""Chaos suite: crash the maintenance worker at every drain point.

The §6 recovery claim, proven by sweep: wherever the worker dies —
batch start, after delete resolution, after the mutations applied, after
the checkpoint — replaying the WAL from the last durable checkpoint with
original timestamps converges to the never-crashed run's exact state,
and every algorithm's query results are pinned to the clean twin's.

Marked ``chaos`` and excluded from tier-1 (run via ``make chaos``): the
sweep builds a fresh platform per scenario.
"""

from __future__ import annotations

import pytest

from repro.errors import WorkerCrashError
from repro.maintenance.consistency import RetryPolicy
from repro.maintenance.faults import (
    CrashInjector,
    DrainPoint,
    FaultPlan,
    SlowDrainInjector,
    StoreFaultInjector,
)
from repro.relational.binding import load_relation
from repro.relational.naive import naive_rank_join
from repro.tpch.queries import q2

from tests.maintenance.rig import (
    apply_refresh_sync,
    assert_same_state,
    make_rig,
    submit_refresh,
)

pytestmark = pytest.mark.chaos

K = 10
ALGORITHMS = ("ijlmr", "isl", "bfhm")


def _result_pin(rig):
    """Frozen query outcome: the tuple set every algorithm returns."""
    query = q2(K)
    pins = {}
    for algorithm in ALGORITHMS:
        result = rig.setup.engine.execute(query, algorithm=algorithm)
        pins[algorithm] = [(t.keys, t.score) for t in result.tuples]
    return pins


@pytest.fixture(scope="module")
def clean_twin():
    """One never-crashed run: final state + pinned query results."""
    rig = make_rig()
    for refresh in rig.refreshes(2):
        apply_refresh_sync(rig, refresh)
    return rig, _result_pin(rig)


@pytest.mark.parametrize("occurrence", [1, 2])
@pytest.mark.parametrize("point", DrainPoint.ALL)
def test_crash_anywhere_recovers_exactly(point, occurrence, clean_twin):
    clean_rig, clean_pins = clean_twin
    rig = make_rig(
        pipeline_kwargs={
            "batch_size": 2,
            "faults": FaultPlan([CrashInjector(point, occurrence=occurrence)]),
        }
    )
    for refresh in rig.refreshes(2):
        submit_refresh(rig, refresh)

    with pytest.raises(WorkerCrashError) as crash:
        rig.pipeline.drain_all()
    assert crash.value.point == point
    assert rig.pipeline.crashed

    rig.pipeline.recover()
    rig.pipeline.drain_all()
    assert rig.pipeline.lag() == 0
    assert not rig.pipeline.crashed

    assert_same_state(rig, clean_rig, f"crash@{point}#{occurrence}")
    assert _result_pin(rig) == clean_pins


def test_repeated_crashes_still_converge(clean_twin):
    """A worker that dies on every single batch (crash, recover, crash
    again at the next batch) still drains to the clean state."""
    clean_rig, clean_pins = clean_twin
    rig = make_rig(pipeline_kwargs={"batch_size": 1})
    for refresh in rig.refreshes(2):
        submit_refresh(rig, refresh)

    crashes = 0
    while rig.pipeline.lag() > 0:
        # occurrence=2: each round checkpoints one record before dying,
        # so the run converges even though every drain attempt crashes
        rig.pipeline.faults = FaultPlan(
            [CrashInjector(DrainPoint.AFTER_APPLY, occurrence=2)]
        )
        try:
            rig.pipeline.drain_all()
        except WorkerCrashError:
            crashes += 1
            rig.pipeline.recover()
        rig.pipeline.faults = None
    assert crashes >= 2
    assert_same_state(rig, clean_rig, "after repeated crashes")
    assert _result_pin(rig) == clean_pins


def test_crash_with_store_faults_and_throttle(clean_twin):
    """The full storm: transient store failures, a throttled worker, and
    a crash mid-drain — recovery still pins the clean results."""
    clean_rig, clean_pins = clean_twin
    faults = FaultPlan(
        [
            StoreFaultInjector(failures_per_mutation=1),
            SlowDrainInjector(2),
            CrashInjector(DrainPoint.AFTER_CHECKPOINT, occurrence=2),
        ]
    )
    rig = make_rig(
        pipeline_kwargs={
            "batch_size": 4,
            "faults": faults,
            "retry_policy": RetryPolicy(max_attempts=6, initial_backoff_s=0.01),
        }
    )
    for refresh in rig.refreshes(2):
        submit_refresh(rig, refresh)

    with pytest.raises(WorkerCrashError):
        rig.pipeline.drain_all()
    rig.pipeline.recover()
    rig.pipeline.drain_all()

    assert rig.pipeline.lag() == 0
    assert rig.pipeline.stats()["dead_letters"] == 0
    assert_same_state(rig, clean_rig, "under the combined storm")
    assert _result_pin(rig) == clean_pins


def test_slow_drain_grows_staleness_under_ingest():
    """A lagging worker accumulates exactly the backlog the staleness
    contract reports — and catches up once the throttle lifts."""
    rig = make_rig(
        pipeline_kwargs={"batch_size": 8, "faults": FaultPlan([SlowDrainInjector(1)])}
    )
    refreshes = rig.refreshes(2)
    lags = []
    for refresh in refreshes:
        submit_refresh(rig, refresh)
        rig.pipeline.drain_batch()  # throttled to one record
        lags.append(rig.pipeline.lag())
    assert lags[-1] > lags[0]  # ingest outruns the throttled drain
    assert rig.pipeline.lag() == sum(
        rig.pipeline.staleness(t).pending for t in rig.pipeline.tables
    )
    rig.pipeline.faults = None
    rig.pipeline.drain_all()
    assert rig.pipeline.lag() == 0


def test_delete_resolution_survives_crash_between_base_and_index():
    """The poster-child §6 hazard: crash after the delete resolved (and
    the base tombstones landed) but before the checkpoint.  Replay must
    use the *persisted* resolution — re-resolving would find nothing and
    strand index entries."""
    clean = make_rig()
    rig = make_rig(
        pipeline_kwargs={
            "batch_size": 1,
            "faults": FaultPlan(
                [CrashInjector(DrainPoint.AFTER_APPLY, occurrence=1)]
            ),
        }
    )
    refresh = rig.refreshes(1)[0]
    rig.pipeline.submit_delete_batch("orders", refresh.delete_orders)
    clean.relations["orders"].delete_batch(
        clean.refreshes(1)[0].delete_orders
    )

    with pytest.raises(WorkerCrashError):
        rig.pipeline.drain_all()
    record = rig.pipeline.log.entries_after(0)[0].payload
    assert record.resolved is not None  # resolution persisted pre-crash

    rig.pipeline.recover()
    rig.pipeline.drain_all()
    assert_same_state(rig, clean, "delete replay from persisted resolution")


def test_chaos_counters_describe_the_run():
    rig = make_rig(
        pipeline_kwargs={
            "faults": FaultPlan(
                [CrashInjector(DrainPoint.BATCH_START, occurrence=1)]
            ),
        }
    )
    submit_refresh(rig, rig.refreshes(1)[0])
    with pytest.raises(WorkerCrashError):
        rig.pipeline.drain_all()
    stats = rig.pipeline.stats()
    assert stats["crashed"] is True
    assert stats["records_applied"] == 0  # died before any work
    rig.pipeline.recover()
    rig.pipeline.drain_all()
    stats = rig.pipeline.stats()
    assert stats["recoveries"] == 1
    assert stats["records_applied"] == stats["records_submitted"]
