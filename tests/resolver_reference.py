"""The eager version resolver that the store's streaming one is held to.

:func:`resolve_versions` groups raw cells by column in one dict, picks each
column's visible version with its own tombstone horizon, and sorts the
survivors.  It shares no code with :func:`repro.store.cell.iter_rows`, so
the property tests in ``tests/unit/test_cell.py`` and the point-get tests
in ``tests/unit/test_read_path.py`` compare two independent resolvers.
"""

from __future__ import annotations

from typing import Iterable

from repro.store.cell import Cell


def resolve_versions(cells: Iterable[Cell]) -> list[Cell]:
    """Collapse raw (possibly multi-version, possibly deleted) cells into the
    visible latest version per ``(row, family, qualifier)``.

    Tombstones mask every version of their column with a timestamp less than
    or equal to the tombstone's, matching HBase delete semantics; among
    equal timestamps the first cell given wins.
    """
    by_column: dict[tuple[str, str, str], list[Cell]] = {}
    for cell in cells:
        by_column.setdefault((cell.row, cell.family, cell.qualifier), []).append(cell)

    visible: list[Cell] = []
    for column_cells in by_column.values():
        horizon = max(
            (cell.timestamp for cell in column_cells if cell.is_delete), default=-1
        )
        chosen: "Cell | None" = None
        for cell in column_cells:
            if cell.is_delete or cell.timestamp <= horizon:
                continue
            if chosen is None or cell.timestamp > chosen.timestamp:
                chosen = cell
        if chosen is not None:
            visible.append(chosen)
    visible.sort(key=Cell.sort_key)
    return visible
