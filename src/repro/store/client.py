"""Client API of the store: Store (admin) and HTable (data path).

The interface intentionally mirrors HBase's client classes (``Put``,
``Get``, ``Delete``, ``Scan``, ``HTable``), because the paper's algorithms
are expressed in those terms — point gets for BFHM reverse mappings, batched
scans with row caching for ISL ("HBase scans with a non-zero rowcache
size"), and server-side filters for DRJN.

Every metered operation charges the :class:`~repro.cluster.simulation.SimContext`:
RPC round trips, network bytes, server disk reads, and KV read units.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from typing import Iterator

from repro.cluster.simulation import SimContext
from repro.errors import InvalidMutationError, TableExistsError, TableNotFoundError
from repro.store.cell import Cell, RowResult
from repro.store.scanner import RegionScanner, Scan
from repro.store.table import StoreTable

#: approximate request header size charged per RPC
REQUEST_OVERHEAD_BYTES = 64


@dataclass
class Put:
    """A batched write of one or more cells to a single row."""

    row: str
    cells: list[tuple[str, str, bytes]] = field(default_factory=list)
    timestamp: "int | None" = None

    def add(self, family: str, qualifier: str, value: bytes) -> "Put":
        """Add a column write; returns self for chaining."""
        self.cells.append((family, qualifier, value))
        return self

    def serialized_size(self) -> int:
        """On-wire size (drives shuffle/network accounting when Puts are
        emitted through MapReduce)."""
        row = len(self.row.encode("utf-8"))
        return 8 + sum(
            row
            + len(family.encode("utf-8"))
            + len(qualifier.encode("utf-8"))
            + len(value)
            for family, qualifier, value in self.cells
        )


@dataclass
class Get:
    """A point read of one row (optionally restricted to families)."""

    row: str
    families: "set[str] | None" = None


@dataclass
class Delete:
    """A tombstone for a whole row or a single column."""

    row: str
    family: "str | None" = None
    qualifier: "str | None" = None
    timestamp: "int | None" = None


class Store:
    """Administrative entry point: table lifecycle + HTable handles."""

    def __init__(self, ctx: SimContext) -> None:
        self.ctx = ctx
        self._tables: dict[str, StoreTable] = {}
        # called as (table name, family-or-None) after a family or table
        # drop; statistics catalogs register here so cached statistics and
        # plans derived from dropped index data are invalidated
        self._drop_listeners: "list" = []
        # next() on a count is one C call, so concurrent queries on this
        # store never draw the same temp-table number
        self._temp_numbers = itertools.count(1)

    def add_drop_listener(self, listener) -> None:
        """Register a ``(table_name, family | None)`` callable notified
        after every family drop (family set) or table drop (family None)."""
        if listener not in self._drop_listeners:
            self._drop_listeners.append(listener)

    def _notify_drop(self, table_name: str, family: "str | None") -> None:
        for listener in list(self._drop_listeners):
            listener(table_name, family)

    def create_table(
        self,
        name: str,
        families: "set[str]",
        split_keys: "list[str] | None" = None,
    ) -> "HTable":
        """Create a table (optionally pre-split: its regions are fixed
        here) and return a handle."""
        if name in self._tables:
            raise TableExistsError(name)
        table = StoreTable(name, families, self.ctx.cluster, split_keys)
        table.on_family_drop = self._notify_drop
        self._tables[name] = table
        return HTable(self, table)

    def temp_table_name(self, prefix: str) -> str:
        """``prefix`` plus a number unique on this store, counted from 1
        on every fresh store: a name, and so every byte it is metered
        at, depends on this store's history alone."""
        return f"{prefix}{next(self._temp_numbers)}"

    def table(self, name: str) -> "HTable":
        """Handle to an existing table."""
        try:
            return HTable(self, self._tables[name])
        except KeyError:
            raise TableNotFoundError(name) from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def drop_table(self, name: str) -> None:
        if name not in self._tables:
            raise TableNotFoundError(name)
        del self._tables[name]
        self._notify_drop(name, None)

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def backing(self, name: str) -> StoreTable:
        """Raw (unmetered) table object, for tests/reporting/MR locality."""
        try:
            return self._tables[name]
        except KeyError:
            raise TableNotFoundError(name) from None


class HTable:
    """Metered data-path handle to one table."""

    def __init__(self, store: Store, table: StoreTable) -> None:
        self.store = store
        self.table = table
        self.ctx = store.ctx

    @property
    def name(self) -> str:
        return self.table.name

    # -- writes ---------------------------------------------------------------

    def _cells_of_put(self, put: Put) -> list[Cell]:
        if not put.row:
            raise InvalidMutationError("empty row key")
        if not put.cells:
            raise InvalidMutationError(f"Put for {put.row!r} has no cells")
        timestamp = (
            put.timestamp if put.timestamp is not None else self.ctx.next_timestamp()
        )
        return [
            Cell(put.row, family, qualifier, value, timestamp)
            for family, qualifier, value in put.cells
        ]

    def put(self, put: Put) -> None:
        """Write one row mutation (row-level atomic)."""
        self.put_batch([put])

    def put_batch(self, puts: "list[Put]") -> None:
        """Write many mutations with one RPC per region touched.

        Charged costs: client->server transfer of all cells, plus WAL
        replication copies across the HDFS substrate.
        """
        cells = [cell for put in puts for cell in self._cells_of_put(put)]
        self._apply_metered(cells)

    def delete_batch(self, deletes: "list[Delete]") -> None:
        """Write many column tombstones with one RPC per region touched.

        Only column-level deletes batch (a whole-row delete needs a metered
        read to discover the row's columns first — issue those through
        :meth:`delete` individually).
        """
        cells: list[Cell] = []
        for delete in deletes:
            if delete.family is None:
                raise InvalidMutationError(
                    f"delete_batch cannot batch the whole-row delete of "
                    f"{delete.row!r}; use delete()"
                )
            timestamp = (
                delete.timestamp
                if delete.timestamp is not None
                else self.ctx.next_timestamp()
            )
            qualifier = delete.qualifier if delete.qualifier is not None else ""
            cells.append(
                Cell(delete.row, delete.family, qualifier, b"", timestamp, True)
            )
        self._apply_metered(cells)

    def delete(self, delete: Delete) -> None:
        """Tombstone a row or column."""
        if delete.family is not None:
            # single column tombstone: same encoding, metering, and
            # single-cell batch as a one-element delete_batch
            self.delete_batch([delete])
            return
        # whole-row delete: tombstone every existing column of the row.
        # Discovering those columns is a real data-path read (a point
        # get of the row), so it is charged exactly like HTable.get —
        # reading through the backing table would silently bypass the
        # meter and understate delete-heavy workloads
        timestamp = (
            delete.timestamp
            if delete.timestamp is not None
            else self.ctx.next_timestamp()
        )
        region = self.table.region_for(delete.row)
        existing = region.read_row(delete.row, None)
        self.ctx.charge_server_read(
            existing.serialized_size(), max(len(existing), 1),
            sequential=False,
        )
        self.ctx.charge_rpc(
            REQUEST_OVERHEAD_BYTES + len(delete.row),
            existing.serialized_size(),
        )
        if existing.empty:
            return
        self._apply_metered(
            [
                Cell(delete.row, cell.family, cell.qualifier, b"", timestamp, True)
                for cell in existing.cells
            ]
        )

    def _apply_metered(self, cells: "list[Cell]") -> None:
        if not cells:
            return
        model = self.ctx.cost_model
        payload = sum(cell.serialized_size() for cell in cells)
        if self.ctx.topology.parallel:
            plan = self._route_mutations(cells)
            if len(plan) > 1:
                # the table write itself is serialized by the region lock
                # either way; multi-server pricing charges each server's
                # share of the WAL/replication pipeline as a parallel round
                self.table.apply_batch(cells)
                replicated = payload * (model.hdfs_replication - 1)
                self.ctx.metrics.add_network(payload + replicated)
                per_server = [
                    region_count * model.rpc_latency_s
                    + model.network_time(server_payload * model.hdfs_replication)
                    for region_count, server_payload in plan.values()
                ]
                self.ctx.metrics.advance_time(
                    model.scatter_round_time(per_server)
                )
                self.ctx.metrics.bump("fanout_rounds")
                self.ctx.metrics.bump("fanout_rounds_mutate")
                return
        regions_touched = self.table.apply_batch(cells)
        # client -> server transfer + WAL replication (HDFS pipeline writes
        # replication-1 extra copies across the network)
        replicated = payload * (model.hdfs_replication - 1)
        self.ctx.metrics.add_network(payload + replicated)
        self.ctx.metrics.advance_time(
            regions_touched * model.rpc_latency_s
            + model.network_time(payload + replicated)
        )

    def _route_mutations(
        self, cells: "list[Cell]"
    ) -> "dict[int, tuple[int, int]]":
        """Group a mutation batch by region server: server id -> (distinct
        regions touched, payload bytes), in first-touch order."""
        topology = self.ctx.topology
        regions_by_server: "dict[int, set[int]]" = {}
        payload_by_server: "dict[int, int]" = {}
        for cell in cells:
            region = self.table.region_for(cell.row)
            server_id = topology.server_for(region)
            regions_by_server.setdefault(server_id, set()).add(id(region))
            payload_by_server[server_id] = (
                payload_by_server.get(server_id, 0) + cell.serialized_size()
            )
        return {
            server_id: (len(regions_by_server[server_id]), payload)
            for server_id, payload in payload_by_server.items()
        }

    # -- reads ------------------------------------------------------------------

    def get(self, get: Get) -> RowResult:
        """Metered point read of one row."""
        region = self.table.region_for(get.row)
        result = region.read_row(get.row, get.families)
        response = result.serialized_size()
        self.ctx.charge_server_read(
            response, max(len(result), 1), sequential=False
        )
        self.ctx.charge_rpc(REQUEST_OVERHEAD_BYTES + len(get.row), response)
        return result

    def multi_get(self, gets: "list[Get]") -> list[RowResult]:
        """Batched point reads: one RPC per region touched (HBase multi-get).

        Server-side read costs are identical to individual gets; only the
        per-row RPC latency is amortized.  On a multi-server topology the
        per-server slices execute as one parallel scatter round (results
        still return in request order); single-server stays on the seed
        serial path bit-for-bit.
        """
        if not gets:
            return []
        if self.ctx.topology.parallel and len(gets) > 1:
            groups: "dict[int, list[int]]" = {}
            for index, get in enumerate(gets):
                region = self.table.region_for(get.row)
                server_id = self.ctx.topology.server_for(region)
                groups.setdefault(server_id, []).append(index)
            if len(groups) > 1:
                from repro.cluster.executor import ScatterTask, scatter_gather

                tasks = [
                    ScatterTask(
                        server_id,
                        partial(self._read_slice, [gets[i] for i in indices]),
                    )
                    for server_id, indices in groups.items()
                ]
                gathered = scatter_gather(self.ctx, tasks, label="multi_get")
                results: "list[RowResult | None]" = [None] * len(gets)
                for indices, slice_results in zip(groups.values(), gathered):
                    for index, result in zip(indices, slice_results):
                        results[index] = result
                return results  # type: ignore[return-value]
        return self._read_slice(gets)

    def _read_slice(self, gets: "list[Get]") -> list[RowResult]:
        """Read a non-empty batch of rows and charge it as one RPC per
        region touched — the whole serial multi-get, or one server's
        share of a scatter round."""
        model = self.ctx.cost_model
        results: list[RowResult] = []
        regions_touched = set()
        request_bytes = 0
        response_bytes = 0
        for get in gets:
            region = self.table.region_for(get.row)
            regions_touched.add(id(region))
            result = region.read_row(get.row, get.families)
            self.ctx.charge_server_read(
                result.serialized_size(), max(len(result), 1), sequential=False
            )
            request_bytes += len(get.row)
            response_bytes += result.serialized_size()
            results.append(result)
        # one RPC per region touched, so one request header each
        request_bytes += REQUEST_OVERHEAD_BYTES * len(regions_touched)
        total = request_bytes + response_bytes
        self.ctx.metrics.add_network(total)
        self.ctx.metrics.advance_time(
            len(regions_touched) * model.rpc_latency_s + model.network_time(total)
        )
        return results

    def scan(self, scan: Scan) -> Iterator[RowResult]:
        """Metered scan honoring batching, filters, and limits."""
        return iter(RegionScanner(self.table, self.ctx, scan))

    def scan_batches(self, scan: Scan) -> Iterator[list[RowResult]]:
        """The same scan, one RPC batch (a list of rows) at a time."""
        return RegionScanner(self.table, self.ctx, scan).batches()

    def scan_all(self, scan: "Scan | None" = None) -> list[RowResult]:
        """Convenience: materialize a full scan."""
        return list(self.scan(scan or Scan()))

    # -- introspection -------------------------------------------------------------

    @property
    def disk_size(self) -> int:
        return self.table.disk_size

    def flush(self) -> None:
        self.table.flush_all()
