"""In-memory write buffer of a region (HBase MemStore equivalent).

NoSQL stores achieve their high write throughput with "memory caches and
append-only storage semantics" (§1): writes land in a sorted in-memory
buffer which is flushed to an immutable sorted segment when full.

Two access paths are kept hot: a per-row index serves point gets without
sweeping the buffer (BFHM's reverse-mapping phase is point-get heavy), and
a lazily-sorted cell list serves scans, seekable via binary search so a
range scan never touches cells before its start row.

The buffer is thread-safe: structural transitions (append, lazy re-sort,
drain, family drop) run under an internal lock, and every transition
*rebinds* the cell list instead of mutating it in place, so a scanner that
captured the list before a transition keeps reading its stable snapshot.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from operator import attrgetter
from typing import Iterable, Iterator

from repro.store.cell import Cell

_ROW_OF_CELL = attrgetter("row")


class MemTable:
    """Sorted multi-version buffer of cells awaiting a flush."""

    def __init__(self) -> None:
        self._cells: list[Cell] = []
        self._by_row: dict[str, list[Cell]] = {}
        self._sorted = True
        #: sort key of the last cell while the list is in order (``None``
        #: when it is empty); re-derived whenever the list is rebound
        self._tail_key: "tuple[str, str, str, int] | None" = None
        self._lock = threading.RLock()
        self.byte_size = 0

    def __len__(self) -> int:
        return len(self._cells)

    @property
    def empty(self) -> bool:
        return not self._cells

    def extend(self, cells: "Iterable[Cell]") -> None:
        """Append cells in order (kept lazily sorted).

        While the list is still in KeyValue order each new cell's sort key
        is compared with the cached key of the tail, so an append builds
        one sort key, not two."""
        with self._lock:
            # appending to the snapshot list is safe: open range iterators
            # captured their upper bound, so they never see the new tail
            stored = self._cells
            by_row = self._by_row
            in_order = self._sorted
            tail = self._tail_key
            added = 0
            for cell in cells:
                if in_order:
                    key = cell.sort_key()
                    if tail is not None and key < tail:
                        in_order = False
                    else:
                        tail = key
                stored.append(cell)
                bucket = by_row.get(cell.row)
                if bucket is None:
                    by_row[cell.row] = [cell]
                else:
                    bucket.append(cell)
                added += cell.serialized_size()
            self._sorted = in_order
            self._tail_key = tail
            self.byte_size += added

    def _reset_tail(self) -> None:
        """Re-derive the cached tail key after the list was rebound."""
        self._tail_key = (
            self._cells[-1].sort_key() if self._sorted and self._cells else None
        )

    def drop_family(self, family: str) -> None:
        """Discard every cell of ``family`` (administrative schema drop).

        Rebinds the cell list (like :meth:`_ensure_sorted`) so open range
        iterators keep reading the pre-drop snapshot."""
        with self._lock:
            self._cells = [cell for cell in self._cells if cell.family != family]
            by_row: dict[str, list[Cell]] = {}
            for cell in self._cells:
                by_row.setdefault(cell.row, []).append(cell)
            self._by_row = by_row
            self.byte_size = sum(cell.serialized_size() for cell in self._cells)
            self._reset_tail()

    def _ensure_sorted(self) -> "list[Cell]":
        with self._lock:
            if not self._sorted:
                # rebind rather than sort in place: live range iterators hold
                # a reference to the old list, so a re-sort (or drain) can
                # never shift cells underneath an open scan
                self._cells = sorted(self._cells, key=Cell.sort_key)
                self._sorted = True
                self._reset_tail()
            return self._cells

    def cells(self) -> Iterator[Cell]:
        """All cells in KeyValue order (including tombstones)."""
        return iter(self._ensure_sorted())

    def sorted_cells(self) -> "list[Cell]":
        """Sorted snapshot of all cells (flush support: the region publishes
        this list as an SSTable *before* draining, so no read window exists
        in which cells are in neither structure)."""
        return list(self._ensure_sorted())

    def cells_for_row(self, row: str) -> list[Cell]:
        """All raw cells of one row (O(1) via the per-row index)."""
        with self._lock:
            return list(self._by_row.get(row, ()))

    def iter_range(
        self, start_row: "str | None", stop_row: "str | None"
    ) -> Iterator[Cell]:
        """Cells with ``start_row <= row < stop_row`` in KeyValue order.

        Seeks to both ends by binary search — a lazy source for merge
        scans.  The cell list and both bounds are captured up front, so the
        iterator is a stable snapshot even if cells are added (appended) or
        the buffer is re-sorted (rebound) or drained while the scan is open.
        """
        with self._lock:
            cells = self._ensure_sorted()
            hi = len(cells)
        lo = 0
        if start_row is not None:
            lo = bisect_left(cells, start_row, 0, hi, key=_ROW_OF_CELL)
        if stop_row is not None:
            hi = bisect_left(cells, stop_row, lo, hi, key=_ROW_OF_CELL)
        return map(cells.__getitem__, range(lo, hi))

    def drain(self) -> list[Cell]:
        """Return all cells sorted and clear the buffer (flush support)."""
        with self._lock:
            cells = self._ensure_sorted()
            self._cells = []
            self._by_row = {}
            self._sorted = True
            self._tail_key = None
            self.byte_size = 0
            return cells
