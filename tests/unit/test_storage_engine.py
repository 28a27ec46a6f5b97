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
            memtable.extend([added])
        assert [c.row for c in memtable.cells()] == ["a", "b"]

    def test_cells_for_row(self):
        memtable = MemTable()
        for added in (cell("a"), cell("b"), cell("a", ts=2)):
            memtable.extend([added])
        assert len(memtable.cells_for_row("a")) == 2

    def test_drain_clears(self):
        memtable = MemTable()
        memtable.extend([cell("x")])
        drained = memtable.drain()
        assert len(drained) == 1
        assert memtable.empty
        assert memtable.byte_size == 0

    def test_byte_size_tracks_content(self):
        memtable = MemTable()
        memtable.extend([cell("row", value=b"12345")])
        assert memtable.byte_size == cell("row", value=b"12345").serialized_size()


    def test_order_survives_re_sorts_drains_and_family_drops(self):
        """The cached tail key that keeps an append to one sort key is
        re-derived whenever the list is rebound: appends after a re-sort,
        a drain or a family drop still leave the buffer in KeyValue order."""
        memtable = MemTable()
        added = []

        def add(row, family="d", ts=1):
            new = Cell(row, family, "q", b"v", ts)
            added.append(new)
            memtable.extend([new])

        def check():
            assert list(memtable.iter_range(None, None)) == sorted(
                added, key=Cell.sort_key
            )

        for row in ("c", "a", "z"):  # out of order, then re-sorted
            add(row)
        check()
        add("d")  # below the re-sorted tail "z"
        add("zz")
        check()
        add("zz", family="e")  # in order: the tail is now family "e"
        memtable.drop_family("e")
        added = [cell for cell in added if cell.family != "e"]
        add("n")  # below the surviving tail "zz"
        check()
        memtable.drain()
        added = []
        add("b")
        add("a")
        check()
        memtable.extend([Cell("c", "d", "q", b"v", 1), Cell("a", "d", "q", b"v", 2)])
        added += [Cell("c", "d", "q", b"v", 1), Cell("a", "d", "q", b"v", 2)]
        check()


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
        wal.extend([cell("a")])
        wal.extend([cell("b")])
        assert [c.row for c in wal.replay()] == ["a", "b"]

    def test_truncate_after_flush(self):
        wal = WriteAheadLog()
        wal.extend([cell("a")])
        wal.mark_flushed()
        wal.extend([cell("b")])
        reclaimed = wal.truncate_flushed()
        assert reclaimed > 0
        assert [c.row for c in wal.replay()] == ["b"]

    def test_byte_accounting(self):
        wal = WriteAheadLog()
        logged = cell("a", value=b"123")
        wal.extend([logged])
        assert wal.byte_size == logged.serialized_size()
        wal.mark_flushed()
        wal.truncate_flushed()
        assert wal.byte_size == 0
