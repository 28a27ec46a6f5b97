"""Binding a stored table to the rank-join view of a relation.

A :class:`RelationBinding` names the table, the column family holding its
data, and the two columns playing the join-attribute and score-attribute
roles (§1.1).  The ``signature`` uniquely identifies the (table, join
column, score column) triple, which is the unit the paper builds one index
per — and doubles as the column-family name inside shared index tables
(§4.1.1: "the IJLMR index for each indexed table is stored as a separate
column family in one big table").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.serialization import decode_float, decode_str
from repro.common.types import ScoredRow
from repro.errors import QueryError
from repro.store.cell import RowResult
from repro.store.client import Store
from repro.store.table import StoreTable


@dataclass(frozen=True, slots=True)
class RelationBinding:
    """One relation's role in a rank join."""

    table: str
    join_column: str
    score_column: str
    family: str = "d"
    alias: "str | None" = None

    @property
    def signature(self) -> str:
        """Unique id of the (table, join column, score column) triple."""
        return f"{self.table}__{self.join_column}__{self.score_column}"

    @property
    def display_name(self) -> str:
        return self.alias or self.table


def join_and_score(binding: RelationBinding, row: RowResult) -> "tuple[str, float]":
    """The two columns of a stored row that the rank join reads, decoded."""
    join_raw = row.value(binding.family, binding.join_column)
    score_raw = row.value(binding.family, binding.score_column)
    if join_raw is None or score_raw is None:
        raise QueryError(
            f"row {row.row!r} of {binding.table!r} lacks join/score columns "
            f"{binding.join_column!r}/{binding.score_column!r}"
        )
    return decode_str(join_raw), decode_float(score_raw)


def row_to_scored(binding: RelationBinding, row: RowResult) -> ScoredRow:
    """Decode a stored row into the rank-join view."""
    join_value, score = join_and_score(binding, row)
    payload = {
        cell.qualifier: cell.value
        for cell in row.family_cells(binding.family)
        if cell.qualifier not in (binding.join_column, binding.score_column)
    }
    return ScoredRow(
        row_key=row.row,
        join_value=join_value,
        score=score,
        payload=payload,
    )


def load_relation(store: Store, binding: RelationBinding) -> list[ScoredRow]:
    """Unmetered full view of a relation (ground truth / index pre-passes)."""
    table: StoreTable = store.backing(binding.table)
    return [
        row_to_scored(binding, row)
        for row in table.all_rows(families={binding.family})  # lint: disable=RL301 (test/benchmark data loading helper; never on a measured query path)
    ]
