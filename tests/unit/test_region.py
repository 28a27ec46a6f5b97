"""Regions: routing, flushes, compaction."""

import pytest

from repro.cluster.costmodel import EC2_PROFILE
from repro.cluster.simulation import SimCluster
from repro.errors import RegionError
from repro.store.cell import Cell
from repro.store.region import Region


@pytest.fixture()
def node():
    return SimCluster(EC2_PROFILE).workers[0]


def cell(row, ts=1, value=b"v", delete=False):
    return Cell(row, "d", "q", value, ts, delete)


class TestRanges:
    def test_contains(self, node):
        region = Region("b", "d", node)
        assert region.contains("b")
        assert region.contains("c")
        assert not region.contains("a")
        assert not region.contains("d")

    def test_unbounded(self, node):
        region = Region(None, None, node)
        assert region.contains("anything")

    def test_empty_range_rejected(self, node):
        with pytest.raises(RegionError):
            Region("z", "a", node)

    def test_out_of_range_write_rejected(self, node):
        region = Region("b", "d", node)
        with pytest.raises(RegionError):
            region.apply_batch([cell("z")])


class TestReadWrite:
    def test_read_your_writes(self, node):
        region = Region(None, None, node)
        region.apply_batch([cell("r1", value=b"hello")])
        assert region.read_row("r1").value("d", "q") == b"hello"

    def test_read_after_flush(self, node):
        region = Region(None, None, node)
        region.apply_batch([cell("r1", value=b"persisted")])
        region.flush()
        assert region.memtable.empty
        assert region.read_row("r1").value("d", "q") == b"persisted"

    def test_read_merges_memtable_and_sstables(self, node):
        region = Region(None, None, node)
        region.apply_batch([cell("r1", ts=1, value=b"old")])
        region.flush()
        region.apply_batch([cell("r1", ts=2, value=b"new")])
        assert region.read_row("r1").value("d", "q") == b"new"

    def test_delete_via_tombstone(self, node):
        region = Region(None, None, node)
        region.apply_batch([cell("r1", ts=1)])
        region.flush()
        region.apply_batch([cell("r1", ts=2, delete=True)])
        assert region.read_row("r1").empty

    def test_scan_respects_region_and_request_bounds(self, node):
        region = Region("r2", "r8", node)
        for i in range(2, 8):
            region.apply_batch([cell(f"r{i}")])
        rows = list(region.scan_rows("r0", "r5"))
        assert [r.row for r in rows] == ["r2", "r3", "r4"]

    def test_family_filter(self, node):
        region = Region(None, None, node)
        region.apply_batch([Cell("r1", "d", "q", b"v", 1)])
        rows = list(region.scan_rows(families={"other"}))
        assert rows == []


class TestLifecycle:
    def test_auto_flush_at_threshold(self, node):
        region = Region(None, None, node, flush_threshold=200)
        for i in range(20):
            region.apply_batch([cell(f"r{i}", value=b"x" * 20)])
        assert region.disk_size > 0

    def test_compaction_trigger_bounds_sstables(self, node):
        region = Region(None, None, node, flush_threshold=10**9,
                        compaction_trigger=3)
        for batch in range(6):
            region.apply_batch([cell(f"r{batch}")])
            region.flush()
        assert len(region.sstables) < 3

    def test_major_compaction_purges_deletes(self, node):
        region = Region(None, None, node)
        region.apply_batch([cell("r1", ts=1)])
        region.apply_batch([cell("r1", ts=2, delete=True)])
        region.flush()
        region.compact(major=True)
        assert region.raw_cell_count() == 0

    def test_a_batch_flushes_where_single_cells_would(self, node):
        """One batch leaves the segments, the memtable and the WAL exactly
        as applying its cells one at a time does."""
        cells = [
            cell(f"r{i % 7}", ts=i, value=b"x" * (i % 5) * 9)
            for i in range(60)
        ]
        one_by_one = Region(None, None, node, flush_threshold=150,
                            compaction_trigger=3)
        for each in cells:
            one_by_one.apply_batch([each])
        batched = Region(None, None, node, flush_threshold=150,
                         compaction_trigger=3)
        batched.apply_batch(cells)

        def state(region):
            return (
                [list(sstable.cells()) for sstable in region.sstables],
                list(region.memtable.cells()),
                [(r.sequence, r.payload) for r in region.wal.records()],
                region.wal.byte_size,
                region.memtable.byte_size,
            )

        assert state(batched) == state(one_by_one)
        assert one_by_one.sstables  # the threshold was crossed

    def test_an_out_of_range_batch_applies_nothing(self, node):
        region = Region("b", "m", node)
        with pytest.raises(RegionError):
            region.apply_batch([cell("c"), cell("z")])
        assert region.memtable.empty and len(region.wal) == 0
