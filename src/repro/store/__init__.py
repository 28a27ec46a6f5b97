"""A faithful in-process model of an HBase/BigTable-style NoSQL store.

The data model follows §1 of the paper: key-value pairs
``{row key, column family, column qualifier, value, timestamp}``, tables as
ordered collections of KV pairs, rows as same-key collections, and column
families as vertical partitions.  Supported operations mirror what the
paper's algorithms use: point gets, batched sequential scans (with row
caching), puts/deletes with timestamps, server-side filters, and row-level
atomicity.  Tables are horizontally partitioned into regions placed on
simulated cluster nodes; every client operation is charged to the
simulation's cost model.
"""

from repro.store.cell import Cell, RowResult
from repro.store.client import Delete, Get, HTable, Put, Scan, Store
from repro.store.filters import Filter, ScoreBandFilter
from repro.store.region import Region

__all__ = [
    "Cell",
    "RowResult",
    "Delete",
    "Get",
    "HTable",
    "Put",
    "Scan",
    "Store",
    "Filter",
    "ScoreBandFilter",
    "Region",
]
