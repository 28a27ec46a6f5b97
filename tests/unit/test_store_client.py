"""The store client: tables, puts/gets/deletes/scans, metering."""

from itertools import chain

import pytest

from repro.cluster.costmodel import EC2_PROFILE
from repro.common.serialization import encode_float
from repro.errors import (
    ColumnFamilyNotFoundError,
    InvalidMutationError,
    TableExistsError,
    TableNotFoundError,
)
from repro.store.client import Delete, Get, Put, Scan
from repro.platform import Platform
from repro.store.filters import ScoreBandFilter


class TestAdmin:
    def test_create_and_lookup(self, empty_platform):
        empty_platform.store.create_table("t", {"d"})
        assert empty_platform.store.has_table("t")
        assert empty_platform.store.table_names() == ["t"]

    def test_duplicate_create_rejected(self, empty_platform):
        empty_platform.store.create_table("t", {"d"})
        with pytest.raises(TableExistsError):
            empty_platform.store.create_table("t", {"d"})

    def test_missing_table_rejected(self, empty_platform):
        with pytest.raises(TableNotFoundError):
            empty_platform.store.table("ghost")

    def test_drop(self, empty_platform):
        empty_platform.store.create_table("t", {"d"})
        empty_platform.store.drop_table("t")
        assert not empty_platform.store.has_table("t")
        with pytest.raises(TableNotFoundError):
            empty_platform.store.drop_table("t")

    def test_presplit_regions(self, empty_platform):
        table = empty_platform.store.create_table("t", {"d"}, split_keys=["m"])
        assert len(table.table.regions) == 2


class TestMutations:
    def test_put_then_get(self, empty_platform):
        htable = empty_platform.store.create_table("t", {"d"})
        htable.put(Put("row1").add("d", "col", b"value"))
        assert htable.get(Get("row1")).value("d", "col") == b"value"

    def test_unknown_family_rejected(self, empty_platform):
        htable = empty_platform.store.create_table("t", {"d"})
        with pytest.raises(ColumnFamilyNotFoundError):
            htable.put(Put("row1").add("nope", "col", b"v"))

    def test_empty_put_rejected(self, empty_platform):
        htable = empty_platform.store.create_table("t", {"d"})
        with pytest.raises(InvalidMutationError):
            htable.put(Put("row1"))
        with pytest.raises(InvalidMutationError):
            htable.put(Put("").add("d", "c", b"v"))

    def test_column_delete(self, empty_platform):
        htable = empty_platform.store.create_table("t", {"d"})
        htable.put(Put("r").add("d", "a", b"1").add("d", "b", b"2"))
        htable.delete(Delete("r", family="d", qualifier="a"))
        row = htable.get(Get("r"))
        assert row.value("d", "a") is None
        assert row.value("d", "b") == b"2"

    def test_row_delete(self, empty_platform):
        htable = empty_platform.store.create_table("t", {"d"})
        htable.put(Put("r").add("d", "a", b"1").add("d", "b", b"2"))
        htable.delete(Delete("r"))
        assert htable.get(Get("r")).empty

    def test_delete_of_absent_row_is_noop(self, empty_platform):
        htable = empty_platform.store.create_table("t", {"d"})
        htable.delete(Delete("ghost"))
        assert htable.get(Get("ghost")).empty

    def test_drop_family_purges_data_everywhere(self, empty_platform):
        """Schema-level family drop removes the family's cells from the
        memtable, flushed segments, and the WAL, leaving other families
        intact (the cascade's temp-index cleanup relies on this)."""
        htable = empty_platform.store.create_table("t", {"a", "b"})
        htable.put(Put("r1").add("a", "c", b"1").add("b", "c", b"2"))
        htable.flush()  # family data reaches an SSTable
        htable.put(Put("r2").add("a", "c", b"3").add("b", "c", b"4"))

        backing = empty_platform.store.backing("t")
        backing.drop_family("a")
        assert backing.families == {"b"}
        for row in backing.all_rows():
            assert not [cell for cell in row if cell.family == "a"]
        assert htable.get(Get("r1")).value("b", "c") == b"2"
        assert htable.get(Get("r2")).value("b", "c") == b"4"
        for region in backing.regions:
            assert not [
                cell for cell in region.wal.replay() if cell.family == "a"
            ]
            # byte accounting must track the surviving entries exactly
            assert region.wal.byte_size == sum(
                cell.serialized_size() for cell in region.wal.replay()
            )

    def test_later_timestamp_wins_regardless_of_arrival(self, empty_platform):
        htable = empty_platform.store.create_table("t", {"d"})
        htable.put(Put("r", timestamp=10).add("d", "c", b"new"))
        htable.put(Put("r", timestamp=5).add("d", "c", b"stale-retry"))
        assert htable.get(Get("r")).value("d", "c") == b"new"


class TestMetering:
    def test_get_charges_rpc_and_reads(self, empty_platform):
        htable = empty_platform.store.create_table("t", {"d"})
        htable.put(Put("r").add("d", "c", b"value"))
        before = empty_platform.metrics.snapshot()
        htable.get(Get("r"))
        delta = empty_platform.metrics.snapshot() - before
        assert delta.kv_reads == 1
        assert delta.network_bytes > 0
        assert delta.sim_time_s > 0

    def test_put_charges_replicated_write(self, empty_platform):
        htable = empty_platform.store.create_table("t", {"d"})
        before = empty_platform.metrics.snapshot()
        htable.put(Put("r").add("d", "c", b"x" * 100))
        delta = empty_platform.metrics.snapshot() - before
        # payload + (replication - 1) WAL copies
        assert delta.network_bytes >= 100 * empty_platform.cost_model.hdfs_replication

    def test_multi_get_amortizes_rpcs(self, empty_platform):
        htable = empty_platform.store.create_table("t", {"d"})
        for i in range(10):
            htable.put(Put(f"r{i}").add("d", "c", b"v"))
        empty_platform.metrics.reset()
        htable.multi_get([Get(f"r{i}") for i in range(10)])
        batched = empty_platform.metrics.snapshot()
        empty_platform.metrics.reset()
        for i in range(10):
            htable.get(Get(f"r{i}"))
        individual = empty_platform.metrics.snapshot()
        assert batched.kv_reads == individual.kv_reads == 10
        assert batched.sim_time_s < individual.sim_time_s

    def test_whole_row_delete_charges_the_read_before_delete(self, empty_platform):
        """A whole-row Delete must discover the row's columns with a point
        read; that read used to go through the unmetered backing table,
        billing delete-heavy workloads nothing for it.  It is charged
        exactly like a Get of the same row."""
        htable = empty_platform.store.create_table("t", {"d"})
        htable.put(Put("r").add("d", "a", b"1").add("d", "b", b"2"))
        htable.put(Put("probe").add("d", "a", b"1").add("d", "b", b"2"))
        before = empty_platform.metrics.snapshot()
        htable.get(Get("probe"))
        get_delta = empty_platform.metrics.snapshot() - before

        before = empty_platform.metrics.snapshot()
        htable.delete(Delete("r"))
        delete_delta = empty_platform.metrics.snapshot() - before
        # the read-before-delete bills the same KV reads as the point get
        assert delete_delta.kv_reads == get_delta.kv_reads == 2
        # and the delete's bill covers the read plus the tombstone write
        assert delete_delta.network_bytes > get_delta.network_bytes
        assert delete_delta.sim_time_s > get_delta.sim_time_s

    def test_column_delete_stays_read_free(self, empty_platform):
        """Targeted column deletes know their cell already — no read."""
        htable = empty_platform.store.create_table("t", {"d"})
        htable.put(Put("r").add("d", "a", b"1"))
        before = empty_platform.metrics.snapshot()
        htable.delete(Delete("r", family="d", qualifier="a"))
        delta = empty_platform.metrics.snapshot() - before
        assert delta.kv_reads == 0

    def test_multi_get_charges_request_overhead_per_region(self, empty_platform):
        """One RPC per region touched means one request header per region —
        a single flat header contradicted the latency accounting (which
        already scaled with regions touched)."""
        from repro.store.client import REQUEST_OVERHEAD_BYTES

        htable = empty_platform.store.create_table("t", {"d"}, split_keys=["r5"])
        for i in range(10):
            htable.put(Put(f"r{i}").add("d", "c", b"v"))
        gets = [Get(f"r{i}") for i in range(10)]
        backing = empty_platform.store.backing("t")
        response = sum(backing.read_row(f"r{i}").serialized_size() for i in range(10))
        keys = sum(len(f"r{i}") for i in range(10))

        empty_platform.metrics.reset()
        htable.multi_get(gets)
        delta = empty_platform.metrics.snapshot()
        # the batch spans both regions: two request headers, not one
        assert delta.network_bytes == 2 * REQUEST_OVERHEAD_BYTES + keys + response


class TestScans:
    @pytest.fixture()
    def loaded(self, empty_platform):
        htable = empty_platform.store.create_table("t", {"d"}, split_keys=["r5"])
        for i in range(10):
            htable.put(
                Put(f"r{i}")
                .add("d", "c", b"v")
                .add("d", "score", encode_float(i / 10))
            )
        return htable

    def test_full_scan_sorted(self, loaded):
        rows = [r.row for r in loaded.scan(Scan())]
        assert rows == [f"r{i}" for i in range(10)]

    def test_range_scan(self, loaded):
        rows = [r.row for r in loaded.scan(Scan(start_row="r3", stop_row="r7"))]
        assert rows == ["r3", "r4", "r5", "r6"]

    def test_limit(self, loaded):
        rows = list(loaded.scan(Scan(limit=3)))
        assert len(rows) == 3

    def test_filter_reads_everything_ships_matches(self, loaded):
        platform = loaded.store.ctx
        loaded.store.ctx.metrics.reset()
        scan = Scan(filter=ScoreBandFilter("d", "score", 0.8))
        rows = list(loaded.scan(scan))
        assert [r.row for r in rows] == ["r8", "r9"]
        # dollar cost counts every cell scanned, not just the two shipped
        assert platform.metrics.kv_reads == 20

    def test_small_caching_means_more_rpcs_and_more_time(self, loaded):
        ctx = loaded.store.ctx
        ctx.metrics.reset()
        list(loaded.scan(Scan(caching=1)))
        small_batches = ctx.metrics.snapshot()
        ctx.metrics.reset()
        list(loaded.scan(Scan(caching=100)))
        big_batches = ctx.metrics.snapshot()
        assert small_batches.sim_time_s > big_batches.sim_time_s
        assert small_batches.kv_reads == big_batches.kv_reads


class TestScanBatches:
    """``scan_batches`` hands over the RPC batches ``scan`` flattens: the
    same rows, charged the same, whatever the scan's shape."""

    SCANS = {
        "full": Scan(),
        "small_batches": Scan(caching=3),
        "range": Scan(start_row="r02", stop_row="r17", caching=4),
        "limit_mid_batch": Scan(caching=4, limit=6),
        "limit_past_end": Scan(caching=7, limit=50),
        "one_family": Scan(families={"e"}, caching=2),
        "filter": Scan(filter=ScoreBandFilter("d", "score", 0.5), caching=3),
        "filter_and_limit": Scan(
            filter=ScoreBandFilter("d", "score", 0.3), caching=2, limit=5
        ),
        "band": Scan(filter=ScoreBandFilter("d", "score", 0.3, 0.6), caching=3),
        "scatter": Scan(caching=3, scatter=True),
    }

    @pytest.fixture(params=[1, 3], ids=["one_server", "three_servers"])
    def mixed(self, request):
        """Three regions, each with a flushed segment under a memtable of
        overwrites, new rows and tombstones."""
        platform = Platform(EC2_PROFILE, num_servers=request.param)
        htable = platform.store.create_table(
            "t", {"d", "e"}, split_keys=["r07", "r14"]
        )
        for i in range(0, 20, 2):
            htable.put(
                Put(f"r{i:02d}")
                .add("d", "score", encode_float(i / 20))
                .add("e", "tag", b"old")
            )
        htable.flush()
        for i in range(0, 20, 3):
            htable.put(Put(f"r{i:02d}").add("d", "score", encode_float(1 - i / 20)))
        for i in (4, 10, 16):
            htable.delete(Delete(f"r{i:02d}", "e", "tag"))
        htable.delete(Delete("r08"))
        return htable

    @pytest.mark.parametrize("name", sorted(SCANS))
    def test_batches_flatten_to_the_scan(self, mixed, name):
        scan = self.SCANS[name]
        metrics = mixed.store.ctx.metrics
        metrics.reset()
        rows = list(mixed.scan(scan))
        row_bill = metrics.snapshot()
        metrics.reset()
        batches = list(mixed.scan_batches(scan))
        assert list(chain.from_iterable(batches)) == rows
        assert metrics.snapshot() == row_bill
        assert all(len(batch) <= scan.caching for batch in batches)
        # and the rows are the unmetered view's, cut the way the scan says
        expected = [
            row for row in mixed.table.all_rows(scan.families)
            if (scan.start_row is None or row.row >= scan.start_row)
            and (scan.stop_row is None or row.row < scan.stop_row)
            and (scan.filter is None or scan.filter.matches(row))
        ]
        assert rows == expected[: scan.limit]
