"""Loading generated TPC-H tables into the NoSQL store.

Each relation becomes one table with a single ``d`` column family, one
qualifier per column; string columns are UTF-8, numeric score columns are
8-byte floats (so :class:`~repro.store.filters.ScoreBandFilter` can
evaluate them server-side), and other numerics are stringified.

Tables are pre-split so data spreads across the simulated workers — the
locality MapReduce depends on.
"""

from __future__ import annotations

from typing import Any

from repro.common.serialization import encode_float, encode_str
from repro.relational.binding import RelationBinding
from repro.store.cell import Cell
from repro.store.client import Put, Store
from repro.tpch.generator import Record, TPCHData

PART = "part"
ORDERS = "orders"
LINEITEM = "lineitem"
FAMILY = "d"

#: columns stored as 8-byte floats (scores)
FLOAT_COLUMNS = {"retailprice", "totalprice", "extendedprice", "discount", "tax"}


def _encode_column(name: str, value: Any) -> bytes:
    if name in FLOAT_COLUMNS:
        return encode_float(float(value))
    return encode_str(str(value))


def record_to_put(row_key: str, record: Record, timestamp: "int | None" = None) -> Put:
    """Build the Put writing one generated record."""
    put = Put(row_key, timestamp=timestamp)
    for name, value in record.items():
        if name == "rowkey":
            continue
        put.add(FAMILY, name, _encode_column(name, value))
    return put


def _split_keys(row_keys: "list[str]", pieces: int) -> list[str]:
    """Evenly spaced split points over sorted row keys."""
    if pieces <= 1 or len(row_keys) < 2 * pieces:
        return []
    ordered = sorted(row_keys)
    step = len(ordered) // pieces
    return [ordered[i * step] for i in range(1, pieces)]


def load_tpch(store: Store, data: TPCHData, regions_per_table: "int | None" = None) -> None:
    """Create and populate part/orders/lineitem, pre-split across workers.

    Loading is administrative (bulk import), so it bypasses metered RPCs;
    query-time metrics stay clean.
    """
    workers = len(store.ctx.cluster.workers)
    pieces = regions_per_table or max(2, workers)

    datasets: list[tuple[str, list[Record], Any]] = [
        (PART, data.parts, lambda r: r["partkey"]),
        (ORDERS, data.orders, lambda r: r["orderkey"]),
        (LINEITEM, data.lineitems, lambda r: r["rowkey"]),
    ]
    for name, records, key_fn in datasets:
        row_keys = [key_fn(record) for record in records]
        table = store.create_table(
            name, {FAMILY}, split_keys=_split_keys(row_keys, pieces)
        )
        backing = store.backing(name)
        cells: list[Cell] = []
        for record, row_key in zip(records, row_keys):
            put = record_to_put(row_key, record, timestamp=store.ctx.next_timestamp())
            for family, qualifier, value in put.cells:
                cells.append(Cell(row_key, family, qualifier, value, put.timestamp))
        backing.apply_batch(cells)
        backing.flush_all()


def part_binding() -> RelationBinding:
    """Part as a rank-join input for Q1."""
    return RelationBinding(PART, join_column="partkey",
                           score_column="retailprice", family=FAMILY, alias="P")


def lineitem_by_part_binding() -> RelationBinding:
    """Lineitem joined on partkey (Q1)."""
    return RelationBinding(LINEITEM, join_column="partkey",
                           score_column="extendedprice", family=FAMILY, alias="L")


def orders_binding() -> RelationBinding:
    """Orders as a rank-join input for Q2."""
    return RelationBinding(ORDERS, join_column="orderkey",
                           score_column="totalprice", family=FAMILY, alias="O")


def lineitem_by_order_binding() -> RelationBinding:
    """Lineitem joined on orderkey (Q2)."""
    return RelationBinding(LINEITEM, join_column="orderkey",
                           score_column="extendedprice", family=FAMILY, alias="L")
