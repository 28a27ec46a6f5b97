"""MemTable, SSTable, WAL, and compaction."""

from repro.store.cell import Cell
from repro.store.memtable import MemTable
from repro.store.sstable import SSTable, compact
from repro.store.wal import WriteAheadLog


def cell(row, ts=1, value=b"v", delete=False, qualifier="q"):
    return Cell(row, "d", qualifier, value, ts, delete)


class TestMemTable:
    def test_starts_empty(self):
        memtable = MemTable()
        assert memtable.empty
        assert memtable.byte_size == 0

    def test_add_and_iterate_sorted(self):
        memtable = MemTable()
        for added in (cell("b"), cell("a")):
            memtable.add(added)
        assert [c.row for c in memtable.cells()] == ["a", "b"]

    def test_cells_for_row(self):
        memtable = MemTable()
        for added in (cell("a"), cell("b"), cell("a", ts=2)):
            memtable.add(added)
        assert len(memtable.cells_for_row("a")) == 2

    def test_drain_clears(self):
        memtable = MemTable()
        memtable.add(cell("x"))
        drained = memtable.drain()
        assert len(drained) == 1
        assert memtable.empty
        assert memtable.byte_size == 0

    def test_byte_size_tracks_content(self):
        memtable = MemTable()
        memtable.add(cell("row", value=b"12345"))
        assert memtable.byte_size == cell("row", value=b"12345").serialized_size()


class TestSSTable:
    def test_sorted_and_searchable(self):
        sstable = SSTable([cell("c"), cell("a"), cell("b")])
        assert [c.row for c in sstable.cells()] == ["a", "b", "c"]
        assert [c.row for c in sstable.cells_for_row("b")] == ["b"]

    def test_range_query(self):
        sstable = SSTable([cell(f"r{i}") for i in range(10)])
        rows = [c.row for c in sstable.iter_range("r3", "r6")]
        assert rows == ["r3", "r4", "r5"]

    def test_open_ranges(self):
        sstable = SSTable([cell("a"), cell("b")])
        assert len(list(sstable.iter_range(None, None))) == 2
        assert [c.row for c in sstable.iter_range("b", None)] == ["b"]

    def test_empty(self):
        sstable = SSTable([])
        assert sstable.empty
        assert list(sstable.iter_range(None, None)) == []


class TestCompaction:
    def test_major_compaction_drops_tombstoned_data(self):
        first = SSTable([cell("a", ts=1, value=b"old")])
        second = SSTable([cell("a", ts=2, delete=True)])
        merged = compact([first, second], drop_deletes=True)
        assert len(merged) == 0

    def test_major_compaction_keeps_latest(self):
        first = SSTable([cell("a", ts=1, value=b"old")])
        second = SSTable([cell("a", ts=2, value=b"new")])
        merged = compact([first, second])
        assert [c.value for c in merged.cells()] == [b"new"]

    def test_minor_compaction_preserves_raw_cells(self):
        first = SSTable([cell("a", ts=1)])
        second = SSTable([cell("a", ts=2, delete=True)])
        merged = compact([first, second], drop_deletes=False)
        assert len(merged) == 2


class TestWAL:
    def test_append_and_replay(self):
        wal = WriteAheadLog()
        wal.append(cell("a"))
        wal.append(cell("b"))
        assert [c.row for c in wal.replay()] == ["a", "b"]

    def test_truncate_after_flush(self):
        wal = WriteAheadLog()
        wal.append(cell("a"))
        wal.mark_flushed()
        wal.append(cell("b"))
        reclaimed = wal.truncate_flushed()
        assert reclaimed > 0
        assert [c.row for c in wal.replay()] == ["b"]

    def test_byte_accounting(self):
        wal = WriteAheadLog()
        size = wal.append(cell("a", value=b"123"))
        assert wal.byte_size == size
        wal.mark_flushed()
        wal.truncate_flushed()
        assert wal.byte_size == 0
