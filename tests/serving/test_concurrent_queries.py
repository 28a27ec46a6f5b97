"""Concurrent serving produces results bit-identical to serialized runs.

Two platforms are built through the exact same code path (same data, same
index-build order), so their simulated state is identical.  One is served
concurrently through :class:`QueryServer`; the other executes the same
workload serialized on a plain engine, resetting the meters before each
query (which makes the per-query delta equal the scoped totals the server
reports).  Every query must match on top-k tuples AND on the full
simulated-cost snapshot — concurrency must not move a single Fig. 7/8
number.

MapReduce-running algorithms (Hive, IJLMR) consume shared simulator state
(the round-robin HDFS placement cursor, the timestamp counter), so the
server executes them FIFO in submission order on its exclusive thread —
the mixed-workload test pins that this keeps them bit-identical too.
"""

from __future__ import annotations

import threading

import pytest

from repro.cluster.costmodel import EC2_PROFILE
from repro.core.bfhm.updates import WriteBackPolicy
from repro.errors import (
    BudgetExceededError,
    DeadlineExceededError,
    ServerClosedError,
    ServerOverloadedError,
)
from repro.maintenance.interceptor import MaintainedRelation
from repro.platform import Platform
from repro.query.engine import RankJoinEngine
from repro.serving import QueryServer
from repro.tpch.generator import generate
from repro.tpch.loader import load_tpch, part_binding
from repro.tpch.queries import Q1_SQL, Q2_SQL, q1, q2

SCALE = 0.05
SEED = 7
CLIENT_THREADS = 4

THREE_WAY_SQL = (
    "SELECT * FROM part P, lineitem L1, lineitem L2 "
    "WHERE P.partkey = L1.partkey AND L1.partkey = L2.partkey "
    "ORDER BY P.retailprice + L1.extendedprice + L2.discount "
    "STOP AFTER {k}"
)

#: store-read-only items: safe to serve in any concurrent interleaving
READONLY_WORKLOAD = [
    (Q1_SQL.format(k=k), algorithm)
    for k in (1, 5, 10)
    for algorithm in ("isl", "bfhm")
] + [
    (Q2_SQL.format(k=k), algorithm)
    for k in (1, 5, 10)
    for algorithm in ("isl", "bfhm")
] + [
    (THREE_WAY_SQL.format(k=5), "hrjn"),
    (THREE_WAY_SQL.format(k=10), "hrjn"),
]

#: mixed items: MapReduce (exclusive FIFO) queries interleaved with
#: read-only ones, submitted in order from one client
MIXED_WORKLOAD = [
    (Q1_SQL.format(k=5), "isl"),
    (Q1_SQL.format(k=5), "ijlmr"),
    (Q2_SQL.format(k=5), "bfhm"),
    (Q1_SQL.format(k=3), "hive"),
    (Q2_SQL.format(k=10), "auto"),
    (THREE_WAY_SQL.format(k=5), "hrjn"),
    (Q2_SQL.format(k=5), "ijlmr"),
    (Q1_SQL.format(k=10), "auto"),
]


def _build_loaded_engine() -> RankJoinEngine:
    """One platform + engine with the q1/q2 index families built.

    Both the served and the serialized platform go through this exact
    function so every piece of simulated state (region splits, placement
    cursor, timestamps) evolves identically.
    """
    platform = Platform(EC2_PROFILE)
    load_tpch(platform.store, generate(micro_scale=SCALE, seed=SEED))
    engine = RankJoinEngine(
        platform, bfhm={"write_back": WriteBackPolicy.OFFLINE}
    )
    for name in ("ijlmr", "isl", "bfhm"):
        engine.algorithm(name).prepare(q1(1))
        engine.algorithm(name).prepare(q2(1))
    return engine


def _serialized(engine: RankJoinEngine, workload):
    """Run ``workload`` one query at a time, metering each in isolation."""
    results = []
    for sql, algorithm in workload:
        engine.platform.metrics.reset()
        results.append(engine.sql(sql, algorithm=algorithm))
    return results


def _assert_same(served, expected) -> None:
    assert served.error is None, served.error
    result = served.result
    assert result.algorithm == expected.algorithm
    assert result.tuples == expected.tuples
    assert result.metrics == expected.metrics, (
        f"simulated metrics diverged for {served.sql!r} "
        f"({served.algorithm}): {result.metrics} != {expected.metrics}"
    )


@pytest.fixture(scope="module")
def serving_pair():
    """(QueryServer over platform A, plain engine over identical platform B)."""
    baseline = _build_loaded_engine()
    served_engine = _build_loaded_engine()
    server = QueryServer(served_engine.platform, workers=4)
    yield server, baseline
    server.close()


class TestConcurrentEqualsSerialized:
    def test_threaded_readonly_workload_is_bit_identical(self, serving_pair):
        """N client threads, interleaved submissions: every query's top-k
        and simulated metrics equal the serialized run's."""
        server, baseline = serving_pair
        expected = _serialized(baseline, READONLY_WORKLOAD)
        slots = [None] * len(READONLY_WORKLOAD)
        failures = []

        def client(offset: int) -> None:
            try:
                for index in range(offset, len(READONLY_WORKLOAD), CLIENT_THREADS):
                    sql, algorithm = READONLY_WORKLOAD[index]
                    slots[index] = server.execute(sql, algorithm)
            except Exception as exc:  # pragma: no cover - surfaced below
                failures.append(exc)

        threads = [
            threading.Thread(target=client, args=(offset,))
            for offset in range(CLIENT_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures, failures
        for served, expect in zip(slots, expected):
            _assert_same(served, expect)
        stats = server.stats()
        assert stats["failed"] == 0
        assert stats["reader_served"] >= len(READONLY_WORKLOAD)

    def test_mixed_mapreduce_workload_is_bit_identical(self, serving_pair):
        """MapReduce queries run FIFO on the exclusive thread; interleaved
        with concurrent read-only queries they still reproduce the
        serialized run bit for bit."""
        server, baseline = serving_pair
        expected = _serialized(baseline, MIXED_WORKLOAD)
        futures = [
            server.submit(sql, algorithm) for sql, algorithm in MIXED_WORKLOAD
        ]
        for future, expect in zip(futures, expected):
            _assert_same(future.result(), expect)
        stats = server.stats()
        assert stats["exclusive_served"] > 0
        assert stats["failed"] == 0

    def test_plan_cache_serves_repeated_auto_shapes(self, serving_pair):
        server, _ = serving_pair
        hits_before = server.plan_cache.hits
        for _ in range(5):
            served = server.execute(Q1_SQL.format(k=5))
            assert served.error is None
        assert server.plan_cache.hits >= hits_before + 4


class TestMaintenanceConcurrency:
    def test_queries_stay_correct_under_concurrent_mutations(self):
        """Read-only queries race insert_batch/delete_batch maintenance;
        the write-preferring lock means every query sees a consistent
        snapshot, and low-scoring mutations never change the top-k."""
        baseline = _build_loaded_engine()
        served_engine = _build_loaded_engine()
        server = QueryServer(served_engine.platform, workers=4)
        try:
            expected = baseline.sql(Q1_SQL.format(k=5), algorithm="isl")
            maintained = MaintainedRelation(
                server.platform,
                part_binding(),
                maintain_isl=True,
                statistics_catalog=server.statistics,
            )
            rows = [
                (f"maintpart{i}", {"partkey": f"MP{i}", "retailprice": 1e-06})
                for i in range(8)
            ]
            stop = threading.Event()
            failures: list = []

            def churn() -> None:
                try:
                    for _ in range(3):
                        with server.maintenance("part"):
                            maintained.insert_batch(rows)
                        with server.maintenance("part"):
                            maintained.delete_batch([key for key, _ in rows])
                finally:
                    stop.set()

            def query_loop() -> None:
                try:
                    while not stop.is_set():
                        served = server.execute(
                            Q1_SQL.format(k=5), algorithm="isl"
                        )
                        assert served.result.tuples == expected.tuples
                except Exception as exc:  # pragma: no cover - surfaced below
                    failures.append(exc)

            workers = [threading.Thread(target=query_loop) for _ in range(3)]
            maint = threading.Thread(target=churn)
            for thread in workers:
                thread.start()
            maint.start()
            maint.join()
            for thread in workers:
                thread.join()
            assert not failures, failures
            # the interceptor + maintenance() hooks bumped the versions the
            # plan cache validates against
            assert server.statistics.table_version("part") > 0
            final = server.execute(Q1_SQL.format(k=5), algorithm="isl")
            assert final.result.tuples == expected.tuples
        finally:
            server.close()


class TestAdmissionControl:
    @pytest.fixture()
    def small_server(self):
        engine = _build_loaded_engine()
        server = QueryServer(engine.platform, workers=1, max_pending=2)
        yield server
        server.close()

    def test_overload_sheds_with_pending_counts(self, small_server):
        server = small_server
        with server.maintenance():  # stall the pools behind the write lock
            first = server.submit(Q1_SQL.format(k=5), "isl")
            second = server.submit(Q2_SQL.format(k=5), "isl")
            with pytest.raises(ServerOverloadedError) as excinfo:
                server.submit(Q1_SQL.format(k=1), "isl")
            assert excinfo.value.pending == 2
            assert excinfo.value.limit == 2
        assert first.result().error is None
        assert second.result().error is None
        assert server.stats()["shed"] == 1

    def test_deadline_counts_lock_wait_as_queue_time(self, small_server):
        server = small_server
        with server.maintenance():
            future = server.submit(
                Q1_SQL.format(k=5), "isl", deadline_s=0.02
            )
            threading.Event().wait(0.08)  # hold the write lock past it
        served = future.result()
        assert isinstance(served.error, DeadlineExceededError)
        assert served.waited_s > 0.02
        assert server.stats()["deadline_rejects"] == 1

    def test_budget_rejects_at_submit_time(self, small_server):
        server = small_server
        with pytest.raises(BudgetExceededError) as excinfo:
            server.submit(Q1_SQL.format(k=5), "isl", budget=0.0)
        assert excinfo.value.objective == "time"
        assert server.stats()["budget_rejects"] == 1
        # a generous budget admits the same query
        served = server.execute(Q1_SQL.format(k=5), "isl", budget=1e12)
        assert served.error is None

    def test_closed_server_rejects_submissions(self):
        engine = _build_loaded_engine()
        server = QueryServer(engine.platform, workers=1)
        server.close()
        with pytest.raises(ServerClosedError):
            server.submit(Q1_SQL.format(k=1), "isl")
