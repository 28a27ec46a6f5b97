"""Batched region scanner with HBase-like cost behaviour.

One RPC fetches up to ``scan.caching`` rows.  The region server reads rows
sequentially from its segments (charging disk time and one KV read unit per
cell *scanned*, not per cell shipped), applies the server-side filter if
any, and ships only matching rows.  This split between "read" and "shipped"
is what lets DRJN trade dollar cost for bandwidth (§7.1–7.2).

Rows are pulled lazily from the region's streaming merge
(:meth:`~repro.store.region.Region.scan_rows`): each RPC batch materializes
only its ``caching`` rows, and a ``limit``-ed scan stops pulling from the
merge the moment enough rows have shipped.  :meth:`RegionScanner.batches`
hands each RPC batch to the caller as the list it shipped; iterating the
scanner flattens those lists into rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain, islice
from typing import Iterator

from repro.cluster.simulation import SimContext
from repro.store.cell import Cell, RowResult
from repro.store.filters import Filter
from repro.store.region import Region
from repro.store.table import StoreTable

#: response framing overhead per scan RPC
RESPONSE_OVERHEAD_BYTES = 48


@dataclass
class Scan:
    """A range scan with HBase-style row caching (batching).

    ``caching`` is the number of rows fetched per RPC round trip — the
    knob §4.2.3 tunes: larger batches amortize RPC latency at the price of
    possibly shipping more rows than the algorithm ends up needing.
    """

    start_row: "str | None" = None
    stop_row: "str | None" = None
    families: "set[str] | None" = None
    caching: int = 100
    filter: "Filter | None" = None
    limit: "int | None" = None
    #: opt-in parallel scan: on a multi-server topology, regions are
    #: scanned per region server concurrently and gathered back in key
    #: order.  Only unlimited scans scatter — a ``limit`` relies on
    #: serial early termination, and prefetching every region would
    #: charge work the serial model never performs.
    scatter: bool = False


class RegionScanner:
    """Iterates rows across a table's regions in key order, in RPC batches."""

    def __init__(self, table: StoreTable, ctx: SimContext, scan: Scan) -> None:
        self.table = table
        self.ctx = ctx
        self.scan = scan
        self.rows_returned = 0
        self.rpc_round_trips = 0

    def __iter__(self) -> Iterator[RowResult]:
        return chain.from_iterable(self.batches())

    def batches(self) -> Iterator[list[RowResult]]:
        """The scan's RPC batches in key order, each the list of rows it
        shipped (cut short at the scan's ``limit``).  A batch is charged
        when it is pulled, so a caller that stops early pays for no batch
        it did not ask for."""
        scan = self.scan
        ctx = self.ctx
        limit = scan.limit
        regions = self.table.regions_in_range(scan.start_row, scan.stop_row)

        if scan.scatter and limit is None and ctx.topology.parallel:
            groups = ctx.topology.assignments(regions)
            if len(groups) > 1:
                # each region server drains its regions inside one scatter
                # round; the batches are gathered back in key order
                from repro.cluster.executor import ScatterTask, scatter_gather

                tasks = [
                    ScatterTask(server_id, partial(self._drain, server_regions))
                    for server_id, server_regions in groups.items()
                ]
                batches_by_region: dict[int, list[list[RowResult]]] = {}
                for drained in scatter_gather(ctx, tasks, label="scan"):
                    batches_by_region.update(drained)
                for region in regions:
                    for shipped in batches_by_region[id(region)]:
                        self.rows_returned += len(shipped)
                        yield shipped
                return

        for region in regions:
            if limit is not None and self.rows_returned >= limit:
                return
            for shipped in self._region_batches(region):
                if limit is not None:
                    shipped = shipped[: limit - self.rows_returned]
                self.rows_returned += len(shipped)
                yield shipped

    def _region_batches(self, region: Region) -> Iterator[list[RowResult]]:
        """One region's RPC batches as the server streams its slice, each
        charged as it is pulled; none is pulled once ``limit`` rows have
        been returned."""
        scan = self.scan
        limit = scan.limit
        caching = max(1, scan.caching)
        rows = region.scan_rows(scan.start_row, scan.stop_row, scan.families)
        while limit is None or self.rows_returned < limit:
            batch = list(islice(rows, caching))
            if not batch:
                return
            self.rpc_round_trips += 1
            yield self._ship(batch)

    def _drain(self, regions: list[Region]) -> dict[int, list[list[RowResult]]]:
        """One server's share of a scatter scan: every batch of each of
        its ``regions``, by region id."""
        return {id(region): list(self._region_batches(region)) for region in regions}

    def _ship(self, batch: list[RowResult]) -> list[RowResult]:
        """Charge one RPC batch — the server reads every row of it, the
        filter runs server-side, the matches cross the network — and
        return the rows shipped."""
        scan_filter = self.scan.filter
        ctx = self.ctx
        cells = [cell for row in batch for cell in row.cells]
        scanned_bytes = sum(map(Cell.serialized_size, cells))
        ctx.charge_server_read(scanned_bytes, len(cells), sequential=True)
        if scan_filter is not None:
            shipped = [row for row in batch if scan_filter.matches(row)]
            shipped_bytes = sum(row.serialized_size() for row in shipped)
        else:
            shipped = batch
            shipped_bytes = scanned_bytes
        ctx.charge_rpc(
            RESPONSE_OVERHEAD_BYTES, RESPONSE_OVERHEAD_BYTES + shipped_bytes
        )
        return shipped
