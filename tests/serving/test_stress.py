"""Stress smoke tests for the serving layer (excluded from tier-1).

Run with ``python -m pytest -m stress tests/serving/test_stress.py``.
These are the heavier cousins of ``test_thread_safety.py`` /
``test_concurrent_queries.py``: more threads, more iterations, longer
churn windows.  They exist to shake out rare interleavings in CI's
stress job, so they assert only invariants (no exceptions,
conservation of cells, bounded caches, bit-identical top-k) — not
timing.
"""

from __future__ import annotations

import threading

import pytest

from repro.cluster.costmodel import EC2_PROFILE
from repro.core.bfhm.blobcache import DecodedBlobCache
from repro.core.bfhm.bucket import encode_blob
from repro.core.bfhm.updates import WriteBackPolicy
from repro.maintenance.interceptor import MaintainedRelation
from repro.platform import Platform
from repro.query.engine import RankJoinEngine
from repro.serving import QueryServer
from repro.sketches.hybrid import HybridBloomFilter
from repro.store.client import Put, Scan
from repro.tpch.generator import generate
from repro.tpch.loader import load_tpch, part_binding
from repro.tpch.queries import Q1_SQL, Q2_SQL, q1, q2

pytestmark = pytest.mark.stress


def _loaded_engine(scale: float = 0.05, seed: int = 7) -> RankJoinEngine:
    platform = Platform(EC2_PROFILE)
    load_tpch(platform.store, generate(micro_scale=scale, seed=seed))
    engine = RankJoinEngine(
        platform, bfhm={"write_back": WriteBackPolicy.OFFLINE}
    )
    for name in ("isl", "bfhm"):
        engine.algorithm(name).prepare(q1(1))
        engine.algorithm(name).prepare(q2(1))
    return engine


class TestStoreStress:
    def test_many_writers_flushes_and_scanners(self):
        platform = Platform(EC2_PROFILE)
        htable = platform.store.create_table("stress", {"d"})
        writer_count, rows_per_thread = 8, 400
        failures: list = []

        def writer(worker: int) -> None:
            try:
                for index in range(rows_per_thread):
                    put = Put(f"w{worker:02d}r{index:06d}")
                    put.add("d", "q", b"y" * 48)
                    htable.put(put)
                    if index % 97 == 0:
                        htable.flush()
            except Exception as exc:  # pragma: no cover
                failures.append(exc)

        def scanner() -> None:
            try:
                for _ in range(60):
                    for row in htable.scan(Scan(families={"d"})):
                        assert row.row
            except Exception as exc:  # pragma: no cover
                failures.append(exc)

        threads = [
            threading.Thread(target=writer, args=(worker,))
            for worker in range(writer_count)
        ] + [threading.Thread(target=scanner) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures, failures
        total = sum(1 for _ in htable.scan(Scan(families={"d"})))
        assert total == writer_count * rows_per_thread


class TestBlobCacheStress:
    def test_large_hammer_keeps_invariants(self):
        payloads = []
        for index in range(96):
            bucket_filter = HybridBloomFilter(512)
            for item in range(index % 17 + 1):
                bucket_filter.insert(f"s-{index}-{item}")
            payloads.append(encode_blob(bucket_filter.to_blob()))
        cache = DecodedBlobCache(capacity=24)
        failures: list = []

        def hammer(seed: int) -> None:
            try:
                for op in range(1200):
                    decoded = cache.decode(
                        payloads[(seed * 131 + op * 17) % len(payloads)]
                    )
                    assert decoded.item_count > 0
            except Exception as exc:  # pragma: no cover
                failures.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(seed,)) for seed in range(12)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures, failures
        assert len(cache) <= 24


class TestServerStress:
    def test_many_clients_with_maintenance_churn(self):
        baseline = _loaded_engine()
        engine = _loaded_engine()
        server = QueryServer(engine.platform, max_pending=256)
        try:
            workload = [
                (Q1_SQL.format(k=5), "isl"),
                (Q2_SQL.format(k=5), "isl"),
                (Q1_SQL.format(k=10), "bfhm"),
                (Q2_SQL.format(k=10), "auto"),
            ]
            expected = {}
            for sql, algorithm in workload:
                baseline.platform.metrics.reset()
                expected[(sql, algorithm)] = baseline.sql(
                    sql, algorithm=algorithm
                ).tuples
            maintained = MaintainedRelation(
                server.platform,
                part_binding(),
                maintain_isl=True,
                statistics_catalog=server.statistics,
            )
            rows = [
                (f"stresspart{i}", {"partkey": f"SP{i}", "retailprice": 1e-06})
                for i in range(16)
            ]
            stop = threading.Event()
            failures: list = []

            def churn() -> None:
                try:
                    for _ in range(6):
                        with server.maintenance("part"):
                            maintained.insert_batch(rows)
                        with server.maintenance("part"):
                            maintained.delete_batch([key for key, _ in rows])
                except Exception as exc:  # pragma: no cover
                    failures.append(exc)
                finally:
                    stop.set()

            def client(seed: int) -> None:
                try:
                    count = 0
                    while not stop.is_set() or count < 4:
                        sql, algorithm = workload[(seed + count) % len(workload)]
                        served = server.execute(sql, algorithm)
                        assert served.error is None, served.error
                        assert served.result.tuples == expected[(sql, algorithm)]
                        count += 1
                        if count >= 40:
                            break
                except Exception as exc:  # pragma: no cover
                    failures.append(exc)

            clients = [
                threading.Thread(target=client, args=(seed,))
                for seed in range(8)
            ]
            maint = threading.Thread(target=churn)
            for thread in clients:
                thread.start()
            maint.start()
            maint.join()
            for thread in clients:
                thread.join()
            assert not failures, failures
            stats = server.stats()
            assert stats["failed"] == 0
            assert stats["completed"] >= 8 * 4
        finally:
            server.close()
