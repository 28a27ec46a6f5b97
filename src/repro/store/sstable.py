"""Immutable sorted segments (HBase HFile / Bigtable SSTable equivalents).

Flushes turn a memtable into an :class:`SSTable`; compactions heap-merge
several into one, dropping masked versions and tombstones.  Row-level
lookups use binary search over the sorted cell array, mimicking the
block-index access of real HFiles, and range reads are served as lazy
iterators so a merge scan can stop after a handful of cells.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator

from repro.store.cell import Cell, iter_visible


class SSTable:
    """An immutable, sorted run of cells.

    ``presorted=True`` skips the construction sort for cell runs already in
    KeyValue order (flush output, heap-merged compactions).
    """

    def __init__(self, cells: Iterable[Cell], *, presorted: bool = False) -> None:
        if presorted:
            self._cells = list(cells)
        else:
            self._cells = sorted(cells, key=Cell.sort_key)
        self._rows = [cell.row for cell in self._cells]
        self.byte_size = sum(cell.serialized_size() for cell in self._cells)

    def __len__(self) -> int:
        return len(self._cells)

    @property
    def empty(self) -> bool:
        return not self._cells

    @property
    def first_row(self) -> "str | None":
        return self._rows[0] if self._rows else None

    @property
    def last_row(self) -> "str | None":
        return self._rows[-1] if self._rows else None

    def cells(self) -> Iterator[Cell]:
        return iter(self._cells)

    def cells_for_row(self, row: str) -> list[Cell]:
        """Raw cells of one row via binary search."""
        lo = bisect_left(self._rows, row)
        hi = bisect_right(self._rows, row)
        return self._cells[lo:hi]

    def _range_bounds(
        self, start_row: "str | None", stop_row: "str | None"
    ) -> tuple[int, int]:
        lo = 0 if start_row is None else bisect_left(self._rows, start_row)
        hi = len(self._rows) if stop_row is None else bisect_left(self._rows, stop_row)
        return lo, hi

    def cells_in_range(
        self, start_row: "str | None", stop_row: "str | None"
    ) -> list[Cell]:
        """Raw cells with ``start_row <= row < stop_row``, materialized."""
        return list(self.iter_range(start_row, stop_row))

    def iter_range(
        self, start_row: "str | None", stop_row: "str | None"
    ) -> Iterator[Cell]:
        """Lazy variant of :meth:`cells_in_range`: seeks by binary search and
        yields one cell at a time, so an early-terminating merge scan touches
        O(cells consumed), not O(range)."""
        lo, hi = self._range_bounds(start_row, stop_row)
        return map(self._cells.__getitem__, range(lo, hi))


def compact(sstables: "list[SSTable]", drop_deletes: bool = True) -> SSTable:
    """Heap-merge segments into one, resolving versions in a single pass.

    Each input segment is already sorted, so a k-way ``heapq.merge`` yields
    the combined run in KeyValue order without re-sorting.  With
    ``drop_deletes`` (a major compaction) tombstones and the versions they
    mask disappear entirely via the streaming resolver; otherwise raw cells
    are just merged.
    """
    merged: Iterable[Cell] = heapq.merge(
        *(sstable.cells() for sstable in sstables), key=Cell.sort_key
    )
    if drop_deletes:
        merged = iter_visible(merged)
    return SSTable(merged, presorted=True)
