"""Streaming read path: lazy merge scans, early termination, and
tombstone/version semantics under the streaming resolver."""

import random

import pytest

from repro.cluster.costmodel import EC2_PROFILE
from repro.cluster.simulation import SimCluster
from repro.store.cell import Cell, RowResult
from repro.store.client import Delete, Get, Put, Scan
from repro.store.memtable import MemTable
from repro.store.region import Region
from repro.store.sstable import SSTable
from tests.resolver_reference import resolve_versions


@pytest.fixture()
def node():
    return SimCluster(EC2_PROFILE).workers[0]


class CountingSSTable(SSTable):
    """SSTable that counts cells pulled through its lazy range iterator."""

    def __init__(self, sstable: SSTable) -> None:
        super().__init__(sstable.cells(), presorted=True)
        self.cells_pulled = 0

    def iter_range(self, start_row, stop_row):
        for cell in super().iter_range(start_row, stop_row):
            self.cells_pulled += 1
            yield cell


def _instrument(region: Region) -> "list[CountingSSTable]":
    region.sstables = [CountingSSTable(s) for s in region.sstables]
    return region.sstables


class TestLazyMerge:
    def test_limited_scan_touches_o_of_k_cells(self, empty_platform):
        """A Scan(limit=k) over N >> k rows pulls O(k * caching) cells from
        the SSTable iterators, not O(N)."""
        htable = empty_platform.store.create_table("t", {"d"})
        htable.put_batch(
            [Put(f"r{i:05d}").add("d", "q", b"x") for i in range(2000)]
        )
        htable.flush()
        counters = [
            counter
            for region in htable.table.regions
            for counter in _instrument(region)
        ]
        rows = list(htable.scan(Scan(limit=5, caching=10)))
        assert [r.row for r in rows] == [f"r{i:05d}" for i in range(5)]
        pulled = sum(counter.cells_pulled for counter in counters)
        # one 10-row RPC batch plus merge/group lookahead — nowhere near 2000
        assert pulled <= 40

    def test_full_scan_still_sees_everything(self, empty_platform):
        htable = empty_platform.store.create_table("t", {"d"})
        htable.put_batch([Put(f"r{i}").add("d", "q", b"x") for i in range(50)])
        htable.flush()
        assert len(htable.scan_all()) == 50

    def test_scan_merges_memtable_and_sstables_in_key_order(self, node):
        region = Region(None, None, node)
        region.apply_batch([Cell("rB", "d", "q", b"1", 1)])
        region.flush()
        region.apply_batch([Cell("rD", "d", "q", b"2", 2)])
        region.flush()
        region.apply_batch([Cell("rA", "d", "q", b"3", 3)])  # stays in the memtable
        region.apply_batch([Cell("rC", "d", "q", b"4", 4)])
        assert [r.row for r in region.scan_rows()] == ["rA", "rB", "rC", "rD"]

    def test_open_scan_is_stable_under_concurrent_writes(self, node):
        """An open scan is a snapshot: a mid-scan out-of-order write plus a
        reader forcing the memtable's lazy re-sort must not shift, skip, or
        duplicate rows under the live iterator."""
        region = Region(None, None, node)
        for i in range(10):
            region.apply_batch([Cell(f"r{i:02d}", "d", "q", b"x", i + 1)])
        scan = region.scan_rows()
        seen = [next(scan).row for _ in range(3)]
        region.apply_batch([Cell("r00", "d", "q", b"new", 100)])  # out of order
        list(region.memtable.cells())  # triggers the re-sort
        seen += [r.row for r in scan]
        assert seen == [f"r{i:02d}" for i in range(10)]

    def test_memtable_point_get_index(self):
        memtable = MemTable()
        memtable.extend([Cell("b", "d", "q", b"1", 1)])
        memtable.extend([Cell("a", "d", "q", b"2", 2)])
        list(memtable.cells())  # force the lazy sort
        memtable.extend([Cell("b", "d", "q2", b"3", 3)])
        assert len(memtable.cells_for_row("b")) == 2
        assert memtable.cells_for_row("missing") == []
        assert [c.row for c in memtable.iter_range("b", None)] == ["b", "b"]


class TestStreamingResolver:
    def test_delete_masks_same_batch_put(self, empty_platform):
        """A tombstone with the same timestamp as a put in the same memtable
        batch masks it, for scans and point gets alike."""
        htable = empty_platform.store.create_table("t", {"d"})
        htable.put(Put("r1", timestamp=5).add("d", "q", b"v"))
        htable.delete(Delete("r1", "d", "q", timestamp=5))
        assert htable.scan_all() == []
        assert htable.get(Get("r1")).empty

    def test_versions_split_across_memtable_and_two_sstables(self, node):
        """The newest version wins no matter which source holds it."""
        region = Region(None, None, node)
        region.apply_batch([Cell("r1", "d", "q", b"v1", 1)])
        region.apply_batch([Cell("r2", "d", "q", b"w3", 3)])
        region.flush()
        region.apply_batch([Cell("r1", "d", "q", b"v2", 2)])
        region.apply_batch([Cell("r2", "d", "q", b"w1", 1)])
        region.flush()
        assert len(region.sstables) == 2
        region.apply_batch([Cell("r1", "d", "q", b"v3", 3)])  # newest, in the memtable
        region.apply_batch([Cell("r2", "d", "q", b"w2", 2)])

        rows = list(region.scan_rows())
        assert [(r.row, r.value("d", "q")) for r in rows] == [
            ("r1", b"v3"),
            ("r2", b"w3"),  # newest lives in the *oldest* segment
        ]
        assert region.read_row("r1").value("d", "q") == b"v3"
        assert region.read_row("r2").value("d", "q") == b"w3"

    def test_tombstone_in_memtable_masks_sstable_versions(self, node):
        region = Region(None, None, node)
        region.apply_batch([Cell("r1", "d", "q", b"old", 1)])
        region.flush()
        region.apply_batch([Cell("r1", "d", "q", b"", 2, True)])
        assert list(region.scan_rows()) == []
        assert region.read_row("r1").empty

    @pytest.mark.parametrize("seed", range(6))
    def test_point_get_matches_the_reference_resolver(self, node, seed):
        """``read_row`` over one segment's cells or any mix of sources must
        equal ``resolve_versions`` over the row's raw cells (memtable
        first), tombstones, timestamp ties and family filters included."""
        rng = random.Random(seed)
        region = Region(None, None, node, compaction_trigger=100)
        rows = [f"r{i}" for i in range(8)]
        for index in range(1, 120):
            row = rng.choice(rows)
            family = rng.choice("ab")
            qualifier = rng.choice("xy")
            timestamp = rng.randint(1, 40)  # ties across sources, too
            if rng.random() < 0.25:
                cell = Cell(row, family, qualifier, b"", timestamp, True)
            else:
                cell = Cell(row, family, qualifier, b"v%d" % index, timestamp)
            region.apply_batch([cell])
            if rng.random() < 0.08:
                region.flush()

        def check():
            sources = [region.memtable.cells_for_row, *(
                sstable.cells_for_row for sstable in region.sstables
            )]
            for row in rows:
                raw = [cell for cells_of in sources for cell in cells_of(row)]
                for families in (None, {"a"}, {"b"}, {"a", "b"}, {"c"}):
                    wanted = [
                        cell for cell in raw
                        if families is None or cell.family in families
                    ]
                    assert region.read_row(row, families) == RowResult(
                        row, resolve_versions(wanted)
                    )

        assert not region.memtable.empty and len(region.sstables) > 1
        check()  # rows spread over the memtable and several segments
        region.flush()
        region.compact(major=False)
        check()  # every row's raw cells, tombstones kept, in one segment

    def test_point_get_streams_a_single_segment_row(self, node):
        region = Region(None, None, node)
        region.apply_batch([
            Cell("r1", "a", "x", b"old", 1),
            Cell("r1", "a", "x", b"", 2, True),
            Cell("r1", "a", "y", b"kept", 1),
            Cell("r1", "b", "x", b"other", 3),
            Cell("r2", "a", "x", b"gone", 1),
            Cell("r2", "a", "x", b"", 1, True),
        ])
        region.flush()
        assert region.read_row("r1") == RowResult(
            "r1", [Cell("r1", "a", "y", b"kept", 1), Cell("r1", "b", "x", b"other", 3)]
        )
        assert region.read_row("r1", {"b"}).cells == [Cell("r1", "b", "x", b"other", 3)]
        assert region.read_row("r2") == RowResult("r2", [])
        assert region.read_row("missing") == RowResult("missing", [])

    def test_limited_scan_over_tombstoned_rows(self, empty_platform):
        """limit counts *visible* rows; fully-deleted rows are skipped and
        never shipped as empty results."""
        htable = empty_platform.store.create_table("t", {"d"})
        htable.put_batch(
            [Put(f"r{i:02d}").add("d", "q", b"x") for i in range(20)]
        )
        for i in (1, 3):
            htable.delete(Delete(f"r{i:02d}"))
        htable.flush()
        rows = list(htable.scan(Scan(limit=5, caching=4)))
        assert [r.row for r in rows] == ["r00", "r02", "r04", "r05", "r06"]
        assert all(not r.empty for r in rows)


class TestCellSizeCache:
    def test_cached_size_matches_and_keeps_equality(self):
        a = Cell("row", "fam", "q", b"value", 7)
        b = Cell("row", "fam", "q", b"value", 7)
        expected = len(b"rowfamqvalue") + 9
        assert a.serialized_size() == expected
        assert a.serialized_size() == expected  # cached second call
        assert a == b and hash(a) == hash(b)  # cache is not part of identity
