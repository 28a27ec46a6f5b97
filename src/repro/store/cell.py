"""Cells (key-value pairs) and materialized row views.

A :class:`Cell` is the quadruplet of §1 — ``{key, column name, column value,
timestamp}`` — with the column name split HBase-style into family and
qualifier, plus a tombstone flag for deletes.  Cells sort by
``(row, family, qualifier, -timestamp)`` so scans surface newest versions
first, exactly like HBase's KeyValue ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator


@dataclass(frozen=True, slots=True)
class Cell:
    """One key-value pair of the store."""

    row: str
    family: str
    qualifier: str
    value: bytes
    timestamp: int
    is_delete: bool = False
    # lazily-computed serialized_size; excluded from init/eq/hash/repr so
    # dataclasses.replace can never carry a stale size into a modified cell
    _size: int = field(default=-1, init=False, repr=False, compare=False)

    def sort_key(self) -> tuple[str, str, str, int]:
        """HBase KeyValue ordering: newest version of a column first."""
        return (self.row, self.family, self.qualifier, -self.timestamp)

    def serialized_size(self) -> int:
        """On-disk / on-wire size of the cell (cached after first call)."""
        size = self._size
        if size < 0:
            size = (
                len(self.row.encode("utf-8"))
                + len(self.family.encode("utf-8"))
                + len(self.qualifier.encode("utf-8"))
                + len(self.value)
                + 9  # 8-byte timestamp + 1-byte type
            )
            object.__setattr__(self, "_size", size)
        return size


def _visible_of_column(column_cells: "list[Cell]") -> "Cell | None":
    """Visible version of one column's raw cells, or ``None`` if deleted.

    A tombstone masks every version with timestamp <= its own, even one
    arriving in the same batch — so compute the horizon first.
    """
    delete_horizon = max(
        (cell.timestamp for cell in column_cells if cell.is_delete),
        default=-1,
    )
    chosen: Cell | None = None
    for cell in column_cells:
        if cell.is_delete or cell.timestamp <= delete_horizon:
            continue
        if chosen is None or cell.timestamp > chosen.timestamp:
            chosen = cell
    return chosen


def resolve_versions(cells: Iterable[Cell]) -> list[Cell]:
    """Collapse raw (possibly multi-version, possibly deleted) cells into the
    visible latest version per ``(row, family, qualifier)``.

    Tombstones mask every version of their column with a timestamp less than
    or equal to the tombstone's, matching HBase delete semantics.
    """
    by_column: dict[tuple[str, str, str], list[Cell]] = {}
    for cell in cells:
        by_column.setdefault((cell.row, cell.family, cell.qualifier), []).append(cell)

    visible: list[Cell] = []
    for column_cells in by_column.values():
        chosen = _visible_of_column(column_cells)
        if chosen is not None:
            visible.append(chosen)
    visible.sort(key=Cell.sort_key)
    return visible


def iter_rows(
    sorted_cells: Iterable[Cell], families: "set[str] | None" = None
) -> "Iterator[RowResult]":
    """Streaming :func:`resolve_versions` over KeyValue-ordered cells,
    grouped into per-row results in the same pass.

    The input must already be sorted by :meth:`Cell.sort_key` (e.g. the
    output of a k-way merge of memtable and SSTable iterators), so all raw
    versions of one ``(row, family, qualifier)`` column are contiguous.  The
    resolver then needs only one column group and one row in memory at a
    time and yields each row as soon as the next one opens — this is what
    lets a ``limit``-ed scan stop without materializing the region.

    Cells outside ``families`` are dropped before resolution (the family is
    part of the column key, so no group straddles the filter), and only
    rows with at least one visible cell are yielded, so a family-restricted
    scan never ships empty rows.  A column with one raw cell never forms a
    group: the cell is kept, unless it is a tombstone, as soon as the next
    one opens a different column.
    """
    first: "Cell | None" = None  # the open column's first (newest) raw cell
    group: "list[Cell] | None" = None  # all of them, once there are two
    visible: list[Cell] = []  # the open row's visible cells so far
    for cell in sorted_cells:
        if families is not None and cell.family not in families:
            continue
        if first is not None:
            if (
                cell.qualifier == first.qualifier
                and cell.row == first.row
                and cell.family == first.family
            ):
                if group is None:
                    group = [first, cell]
                else:
                    group.append(cell)
                continue
            if group is not None:
                chosen = _visible_of_column(group)
                if chosen is not None:
                    visible.append(chosen)
                group = None
            elif not first.is_delete:
                visible.append(first)
            if cell.row != first.row and visible:
                yield RowResult(first.row, visible)
                visible = []
        first = cell
    if first is None:
        return
    if group is not None:
        chosen = _visible_of_column(group)
        if chosen is not None:
            visible.append(chosen)
    elif not first.is_delete:
        visible.append(first)
    if visible:
        yield RowResult(first.row, visible)


def iter_visible(
    sorted_cells: Iterable[Cell], families: "set[str] | None" = None
) -> Iterator[Cell]:
    """The visible cells of :func:`iter_rows`, ungrouped (compaction)."""
    return chain.from_iterable(row.cells for row in iter_rows(sorted_cells, families))


@dataclass(slots=True)
class RowResult:
    """All visible cells of one row, as returned by gets and scans."""

    row: str
    cells: list[Cell] = field(default_factory=list)

    def __iter__(self) -> Iterator[Cell]:
        return iter(self.cells)

    def __len__(self) -> int:
        return len(self.cells)

    @property
    def empty(self) -> bool:
        return not self.cells

    def value(self, family: str, qualifier: str) -> "bytes | None":
        """Value of one column, or ``None`` if absent."""
        for cell in self.cells:
            if cell.family == family and cell.qualifier == qualifier:
                return cell.value
        return None

    def family_cells(self, family: str) -> list[Cell]:
        """Cells belonging to one column family."""
        return [cell for cell in self.cells if cell.family == family]

    def families(self) -> set[str]:
        return {cell.family for cell in self.cells}

    def serialized_size(self) -> int:
        return sum(cell.serialized_size() for cell in self.cells)
