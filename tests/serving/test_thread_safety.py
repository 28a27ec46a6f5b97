"""Regression tests for latent thread-unsafety fixed for the serving layer.

Each test here documents a race that existed before the serving work:

* ``DecodedBlobCache`` mutated its LRU ``OrderedDict`` (move_to_end /
  popitem) without a lock — concurrent decodes tore the dict;
* ``StatisticsCatalog`` could cache a statistics gather that raced a
  maintenance invalidation, leaving permanently stale row counts;
* the store's memtable/region write path appended to lists concurrently
  iterated by scanners.

The hammers are deterministic-enough to fail (often, not always) on the
unfixed code and never on the fixed code; the stress markers in
``test_stress.py`` run the same shapes much harder.
"""

from __future__ import annotations

import threading

import pytest

import repro.query.statistics as statistics_module
from repro.cluster.costmodel import EC2_PROFILE
from repro.core.bfhm.blobcache import DecodedBlobCache
from repro.core.bfhm.bucket import encode_blob
from repro.platform import Platform
from repro.query.statistics import StatisticsCatalog
from repro.sketches.hybrid import HybridBloomFilter
from repro.store.client import Put, Scan
from repro.tpch.generator import generate
from repro.tpch.loader import load_tpch, part_binding

NUM_BLOBS = 48
CACHE_CAPACITY = 16
THREADS = 8
OPS_PER_THREAD = 150


def _blob_payloads(count: int) -> "list[bytes]":
    payloads = []
    for index in range(count):
        bucket_filter = HybridBloomFilter(512)
        for item in range(index + 1):
            bucket_filter.insert(f"value-{index}-{item}")
        payloads.append(encode_blob(bucket_filter.to_blob()))
    return payloads


class TestBlobCacheConcurrency:
    def test_concurrent_decodes_keep_lru_invariants(self):
        """Pre-fix, concurrent move_to_end/popitem corrupted the dict (lost
        entries, KeyError, size overshoot).  Post-fix: no exceptions, size
        bounded by capacity, every decode accounted as a hit or a miss."""
        payloads = _blob_payloads(NUM_BLOBS)
        cache = DecodedBlobCache(capacity=CACHE_CAPACITY)
        failures: list = []

        def hammer(seed: int) -> None:
            try:
                for op in range(OPS_PER_THREAD):
                    raw = payloads[(seed * 31 + op * 7) % NUM_BLOBS]
                    decoded = cache.decode(raw)
                    assert decoded.item_count > 0
            except Exception as exc:  # pragma: no cover - surfaced below
                failures.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(seed,))
            for seed in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures, failures
        assert len(cache) <= CACHE_CAPACITY
        # racing threads may decode the same payload twice (by design: the
        # decode runs outside the lock), so hits+misses >= total ops and
        # misses stays small relative to the op count
        assert cache.hits + cache.misses >= THREADS * OPS_PER_THREAD

    def test_decode_returns_equal_filters_for_same_payload(self):
        payloads = _blob_payloads(4)
        cache = DecodedBlobCache(capacity=4)
        first = cache.decode(payloads[2])
        second = cache.decode(payloads[2])
        assert first is not second  # callers mutate their copies
        assert first.counters == second.counters
        assert first.item_count == second.item_count


class TestStatisticsCatalogRaces:
    def test_stale_gather_is_served_but_never_cached(self, monkeypatch):
        """Pre-fix, a gather racing an invalidation landed in the cache and
        the catalog kept pricing from pre-mutation statistics forever."""
        platform = Platform(EC2_PROFILE)
        load_tpch(platform.store, generate(micro_scale=0.05, seed=7))
        catalog = StatisticsCatalog(platform)
        binding = part_binding()
        real_gather = statistics_module.gather_statistics

        def racing_gather(platform_, binding_, num_buckets):
            stats = real_gather(platform_, binding_, num_buckets)
            # maintenance lands while the gather is still in flight
            catalog.invalidate(binding_.table)
            return stats

        monkeypatch.setattr(
            statistics_module, "gather_statistics", racing_gather
        )
        stats = catalog.stats_for(binding)
        assert stats.row_count > 0  # the caller still gets usable stats
        monkeypatch.setattr(statistics_module, "gather_statistics", real_gather)
        fresh = catalog.stats_for(binding)
        assert catalog.gather_count == 2  # ...but nothing was cached
        assert fresh.row_count == stats.row_count
        assert catalog.stats_for(binding) is fresh  # the clean one is cached
        assert catalog.gather_count == 2

    def test_concurrent_stats_for_caches_exactly_one_entry(self):
        platform = Platform(EC2_PROFILE)
        load_tpch(platform.store, generate(micro_scale=0.05, seed=7))
        catalog = StatisticsCatalog(platform)
        binding = part_binding()
        results: list = []
        failures: list = []

        def gather() -> None:
            try:
                results.append(catalog.stats_for(binding))
            except Exception as exc:  # pragma: no cover - surfaced below
                failures.append(exc)

        threads = [threading.Thread(target=gather) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures, failures
        assert len({id(stats) for stats in results}) >= 1
        assert all(
            stats.row_count == results[0].row_count for stats in results
        )
        assert catalog.stats_for(binding) is catalog.stats_for(binding)
        assert catalog.invalidate(binding.table) == 1  # exactly one entry

    def test_drop_listener_bumps_base_table_version(self):
        platform = Platform(EC2_PROFILE)
        platform.store.create_table("part", {"d"})
        platform.store.create_table("idx", {"part__a__b"})
        catalog = StatisticsCatalog(platform)
        before = catalog.table_version("part")
        platform.store.backing("idx").drop_family("part__a__b")
        assert catalog.table_version("part") == before + 1


#: rows every store-concurrency table starts with; writers rewrite them
#: with fresh versions, so this visible row set never changes
BASE_KEYS = [f"r{i:06d}" for i in range(400)]
SCAN_LIMIT = 80


def _full_scan(htable, round_index: int) -> None:
    rows = [row.row for row in htable.scan(Scan(families={"d"}))]
    assert rows == sorted(set(rows))
    assert [row for row in rows if row.startswith("r")] == BASE_KEYS


def _limited_scan(htable, round_index: int) -> None:
    start = (round_index * 37) % (len(BASE_KEYS) - SCAN_LIMIT)
    observed = [
        row.row
        for row in htable.scan(
            Scan(start_row=BASE_KEYS[start], limit=SCAN_LIMIT, families={"d"})
        )
    ]
    assert observed == BASE_KEYS[start : start + SCAN_LIMIT]


def _scatter_scan(htable, round_index: int) -> None:
    rows = [row.row for row in htable.scan(Scan(stop_row="s", scatter=True))]
    assert rows == BASE_KEYS


class TestStoreWritePathConcurrency:
    @pytest.mark.parametrize(
        ("scan_once", "num_servers"),
        [(_full_scan, 1), (_limited_scan, 1), (_scatter_scan, 4)],
        ids=["full", "limited", "scatter"],
    )
    def test_writers_and_scanners_share_a_table(self, scan_once, num_servers):
        """Concurrent puts and flushes against full, limited and 4-server
        scatter scans over a table pre-split into 8 regions: pre-fix the
        memtable's list mutation tore open iterators and the
        publish-then-drain flush window lost cells.  Writers insert new
        rows and rewrite the base rows, so every scan must see each base
        row exactly once, in key order."""
        platform = Platform(EC2_PROFILE, num_servers=num_servers)
        htable = platform.store.create_table(
            "conc", {"d"}, split_keys=BASE_KEYS[50::50]
        )
        for key in BASE_KEYS:
            htable.put(Put(key).add("d", "q", b"s" * 32))
        htable.flush()
        rows_per_thread = 120
        writer_count = 4
        failures: list = []

        def writer(worker: int) -> None:
            try:
                for index in range(rows_per_thread):
                    put = Put(f"w{worker:02d}r{index:05d}")
                    put.add("d", "q", b"x" * 64)
                    htable.put(put)
                    base_key = BASE_KEYS[(index * writer_count + worker) % len(BASE_KEYS)]
                    htable.put(Put(base_key).add("d", "q", b"y" * 64))
                    if index % 40 == 39:
                        htable.flush()
            except Exception as exc:  # pragma: no cover - surfaced below
                failures.append(exc)

        def scanner() -> None:
            try:
                for round_index in range(25):
                    scan_once(htable, round_index)
            except Exception as exc:  # pragma: no cover - surfaced below
                failures.append(exc)

        threads = [
            threading.Thread(target=writer, args=(worker,))
            for worker in range(writer_count)
        ] + [threading.Thread(target=scanner) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures, failures
        total = sum(1 for _ in htable.scan(Scan(families={"d"})))
        assert total == len(BASE_KEYS) + writer_count * rows_per_thread

