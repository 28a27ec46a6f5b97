"""Regions: the horizontal shards of a table.

Each region owns a half-open row-key range ``[start_key, stop_key)``, a
memtable, a stack of immutable segments, and a WAL, and lives on one worker
node (giving MapReduce its data locality).  Flushes and minor/major
compactions model the HBase lifecycle.  A region's range is fixed when its
table is created: the split keys chosen then shard index tables across the
cluster the way §4.1.1 describes ("if the table is split up/sharded and
distributed across the NoSQL store nodes, index entries for the same join
values across all indexed tables are stored next to each other on the same
node").
"""

from __future__ import annotations

import heapq
import threading
from typing import TYPE_CHECKING, Iterator

from repro.errors import RegionError
from repro.store.cell import Cell, RowResult, iter_rows, resolve_versions
from repro.store.memtable import MemTable
from repro.store.sstable import SSTable, compact
from repro.store.wal import WriteAheadLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.simulation import Node

#: flush the memtable when it exceeds this many bytes
DEFAULT_FLUSH_THRESHOLD = 4 * 1024 * 1024
#: compact when this many segments accumulate
DEFAULT_COMPACTION_TRIGGER = 4


class Region:
    """One key-range shard of a table, hosted on a node."""

    def __init__(
        self,
        start_key: "str | None",
        stop_key: "str | None",
        node: "Node",
        flush_threshold: int = DEFAULT_FLUSH_THRESHOLD,
        compaction_trigger: int = DEFAULT_COMPACTION_TRIGGER,
    ) -> None:
        if start_key is not None and stop_key is not None and start_key >= stop_key:
            raise RegionError(f"empty region range [{start_key!r}, {stop_key!r})")
        self.start_key = start_key
        self.stop_key = stop_key
        self.node = node
        self.flush_threshold = flush_threshold
        self.compaction_trigger = compaction_trigger
        self.memtable = MemTable()
        self.sstables: list[SSTable] = []
        self.wal = WriteAheadLog()
        # serializes the mutation path (apply/flush/compact/drop_family);
        # readers are lock-free against rebound-snapshot structures
        self._lock = threading.RLock()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Region([{self.start_key!r}, {self.stop_key!r}) "
            f"on {self.node.hostname}, {self.disk_size} bytes)"
        )

    # -- key-range bookkeeping ---------------------------------------------

    def contains(self, row: str) -> bool:
        """True iff ``row`` belongs to this region's range."""
        if self.start_key is not None and row < self.start_key:
            return False
        if self.stop_key is not None and row >= self.stop_key:
            return False
        return True

    @property
    def disk_size(self) -> int:
        """Bytes in durable segments (what a mapper scan must read)."""
        return sum(sstable.byte_size for sstable in self.sstables)

    @property
    def total_size(self) -> int:
        return self.disk_size + self.memtable.byte_size

    # -- mutation path ------------------------------------------------------

    def apply(self, cell: Cell) -> None:
        """Apply one mutation (put or tombstone) with WAL + memtable."""
        if not self.contains(cell.row):
            raise RegionError(
                f"row {cell.row!r} outside region [{self.start_key!r}, "
                f"{self.stop_key!r})"
            )
        with self._lock:
            self.wal.append(cell)
            self.memtable.add(cell)
            if self.memtable.byte_size >= self.flush_threshold:
                self.flush()

    def flush(self) -> None:
        """Persist the memtable as a new immutable segment.

        The segment is *published* (sstable list rebound) before the
        memtable is drained: a concurrent reader sees the cells in the
        memtable, in both structures (duplicates resolve to the same
        visible versions), or in the segment — never in neither.
        """
        with self._lock:
            if self.memtable.empty:
                return
            self.wal.mark_flushed()
            segment = SSTable(self.memtable.sorted_cells(), presorted=True)
            self.sstables = [*self.sstables, segment]
            self.memtable.drain()
            self.wal.truncate_flushed()
            if len(self.sstables) >= self.compaction_trigger:
                self.compact(major=False)

    def compact(self, major: bool = True) -> None:
        """Merge all segments into one (major drops tombstoned data)."""
        with self._lock:
            if not self.sstables:
                return
            self.sstables = [compact(self.sstables, drop_deletes=major)]

    def drop_family(self, family: str) -> None:
        """Physically discard every cell of ``family`` (memtable, WAL, and
        segments) — the per-region half of a schema-level family drop."""
        with self._lock:
            self.memtable.drop_family(family)
            self.wal.drop_family(family)
            rebuilt = []
            for sstable in self.sstables:
                kept = [cell for cell in sstable.cells() if cell.family != family]
                if len(kept) == len(sstable):
                    rebuilt.append(sstable)
                elif kept:
                    rebuilt.append(SSTable(kept, presorted=True))
            self.sstables = rebuilt

    # -- read path ------------------------------------------------------------

    def _raw_cells_for_row(self, row: str) -> list[Cell]:
        cells = self.memtable.cells_for_row(row)
        for sstable in self.sstables:
            cells.extend(sstable.cells_for_row(row))
        return cells

    def read_row(self, row: str, families: "set[str] | None" = None) -> RowResult:
        """Visible cells of one row (point get)."""
        cells = self._raw_cells_for_row(row)
        if families is not None:
            cells = [c for c in cells if c.family in families]
        return RowResult(row, resolve_versions(cells))

    def merged_cells(
        self, start_row: "str | None" = None, stop_row: "str | None" = None
    ) -> Iterator[Cell]:
        """Raw cells of ``[start_row, stop_row)`` as a lazy k-way merge.

        Each source (memtable + every SSTable) is seeked to ``start_row`` by
        binary search and merged in KeyValue order; nothing past the last
        cell consumed is ever touched.  The memtable is listed first so that
        timestamp ties resolve in its favour, like the eager concat did.
        """
        lo = self._clamp_start(start_row)
        hi = self._clamp_stop(stop_row)
        sources: list[Iterator[Cell]] = []
        if not self.memtable.empty:
            sources.append(self.memtable.iter_range(lo, hi))
        sources.extend(
            sstable.iter_range(lo, hi)
            for sstable in self.sstables
            if not sstable.empty
        )
        if not sources:
            return iter(())
        if len(sources) == 1:
            # common post-flush case: one segment, no merge overhead
            return sources[0]
        return heapq.merge(*sources, key=Cell.sort_key)

    def scan_rows(
        self,
        start_row: "str | None" = None,
        stop_row: "str | None" = None,
        families: "set[str] | None" = None,
    ) -> Iterator[RowResult]:
        """Resolved rows in ``[start_row, stop_row)`` within this region.

        A generator: versions are resolved and rows grouped in one
        streaming pass over the merged sources, so consuming only k rows (a
        ``limit``-ed scan) costs O(k) cells, not O(region).
        """
        return iter_rows(self.merged_cells(start_row, stop_row), families)

    def raw_cell_count(self) -> int:
        """Raw stored cells (for dollar-cost accounting of full scans)."""
        return len(self.memtable) + sum(len(s) for s in self.sstables)

    def _clamp_start(self, start_row: "str | None") -> "str | None":
        if start_row is None:
            return self.start_key
        if self.start_key is None:
            return start_row
        return max(start_row, self.start_key)

    def _clamp_stop(self, stop_row: "str | None") -> "str | None":
        if stop_row is None:
            return self.stop_key
        if self.stop_key is None:
            return stop_row
        return min(stop_row, self.stop_key)
