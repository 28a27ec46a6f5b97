"""Batched region scanner with HBase-like cost behaviour.

One RPC fetches up to ``scan.caching`` rows.  The region server reads rows
sequentially from its segments (charging disk time and one KV read unit per
cell *scanned*, not per cell shipped), applies the server-side filter if
any, and ships only matching rows.  This split between "read" and "shipped"
is what lets DRJN trade dollar cost for bandwidth (§7.1–7.2).

Rows are pulled lazily from the region's streaming merge
(:meth:`~repro.store.region.Region.scan_rows`): each RPC batch materializes
only its ``caching`` rows, and a ``limit``-ed scan stops pulling from the
merge the moment enough rows have shipped.  The simulated costs charged per
batch are identical to the old materialize-then-batch scanner — only the
wall-clock work changes.
"""

from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING, Iterator

from repro.store.cell import RowResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.client import HTable, Scan

#: response framing overhead per scan RPC
RESPONSE_OVERHEAD_BYTES = 48


class RegionScanner:
    """Iterates rows across a table's regions in key order, in RPC batches."""

    def __init__(self, htable: "HTable", scan: "Scan") -> None:
        self.htable = htable
        self.scan = scan
        self.rows_returned = 0
        self.rpc_round_trips = 0

    def __iter__(self) -> Iterator[RowResult]:
        scan = self.scan
        table = self.htable.table
        ctx = self.htable.ctx
        limit = scan.limit
        caching = max(1, scan.caching)

        if scan.scatter and limit is None and ctx.topology.parallel:
            regions = table.regions_in_range(scan.start_row, scan.stop_row)
            groups = ctx.topology.assignments(regions)
            if len(groups) > 1:
                yield from self._iter_scatter(regions, groups)
                return

        for region in table.regions_in_range(scan.start_row, scan.stop_row):
            # region server streams its slice; each RPC pulls one batch
            rows = region.scan_rows(scan.start_row, scan.stop_row, scan.families)
            while True:
                if limit is not None and self.rows_returned >= limit:
                    return
                batch = list(islice(rows, caching))
                if not batch:
                    break
                self.rpc_round_trips += 1
                for row in self._ship(batch):
                    if limit is not None and self.rows_returned >= limit:
                        return
                    self.rows_returned += 1
                    yield row

    def _ship(self, batch: "list[RowResult]") -> "list[RowResult]":
        """Charge one RPC batch — the server reads every row of it, the
        filter runs server-side, the matches cross the network — and
        return the rows shipped."""
        scan_filter = self.scan.filter
        ctx = self.htable.ctx
        scanned_cells = sum(len(row) for row in batch)
        scanned_bytes = sum(row.serialized_size() for row in batch)
        ctx.charge_server_read(scanned_bytes, scanned_cells, sequential=True)
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

    def _iter_scatter(self, regions, groups) -> Iterator[RowResult]:
        """Parallel scan: each region server streams its regions inside one
        scatter round (per-batch charges identical to the serial path,
        captured into that server's queue), then rows are gathered back in
        global key order.  ``regions`` is already key-ordered and each
        group preserves that order, so ordering falls out of re-walking
        ``regions`` against the per-region buffers."""
        from repro.cluster.executor import ScatterTask, scatter_gather

        scan = self.scan
        ctx = self.htable.ctx
        caching = max(1, scan.caching)

        def server_scan(server_regions):
            def run() -> "tuple[int, dict[int, list[RowResult]]]":
                round_trips = 0
                shipped_by_region: "dict[int, list[RowResult]]" = {}
                for region in server_regions:
                    collected: "list[RowResult]" = []
                    rows = region.scan_rows(
                        scan.start_row, scan.stop_row, scan.families
                    )
                    while True:
                        batch = list(islice(rows, caching))
                        if not batch:
                            break
                        round_trips += 1
                        collected.extend(self._ship(batch))
                    shipped_by_region[id(region)] = collected
                return round_trips, shipped_by_region

            return run

        tasks = [
            ScatterTask(server_id, server_scan(server_regions))
            for server_id, server_regions in groups.items()
        ]
        gathered = scatter_gather(ctx, tasks, label="scan")
        rows_by_region: "dict[int, list[RowResult]]" = {}
        for round_trips, shipped_by_region in gathered:
            self.rpc_round_trips += round_trips
            rows_by_region.update(shipped_by_region)
        for region in regions:
            for row in rows_by_region.get(id(region), []):
                self.rows_returned += 1
                yield row
