"""Tables: schema plus the sorted list of regions.

A :class:`StoreTable` owns the column-family schema and routes rows to
regions.  Regions split automatically at their midpoint when they outgrow
``max_region_bytes``, and daughters are spread over the cluster's workers —
this is what distributes an index table across nodes after a bulk build.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from typing import TYPE_CHECKING, Callable, Iterator

from repro.errors import ColumnFamilyNotFoundError, RegionError
from repro.store.cell import Cell, RowResult
from repro.store.region import Region

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.simulation import SimCluster

#: default auto-split threshold for a region's durable size
DEFAULT_MAX_REGION_BYTES = 64 * 1024 * 1024


class StoreTable:
    """One table of the store: schema, regions, and routing."""

    def __init__(
        self,
        name: str,
        families: "set[str]",
        cluster: "SimCluster",
        split_keys: "list[str] | None" = None,
        max_region_bytes: int = DEFAULT_MAX_REGION_BYTES,
    ) -> None:
        self.name = name
        self.families = set(families)
        self.cluster = cluster
        self.max_region_bytes = max_region_bytes
        boundaries = sorted(split_keys or [])
        starts: list[str | None] = [None, *boundaries]
        stops: list[str | None] = [*boundaries, None]
        self.regions: list[Region] = [
            Region(start, stop, cluster.next_worker())
            for start, stop in zip(starts, stops)
        ]
        # region start keys for binary-search routing (None sorts first)
        self._start_keys = boundaries
        # serializes mutations and schema changes; splits rebind the region
        # list so lock-free readers route against a consistent snapshot
        self._lock = threading.RLock()
        #: set by the owning Store: called as ``(table name, family)`` after
        #: a family drop so statistics/plan caches can invalidate
        self.on_family_drop: "Callable[[str, str], None] | None" = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StoreTable({self.name!r}, {len(self.regions)} regions)"

    def check_family(self, family: str) -> None:
        if family not in self.families:
            raise ColumnFamilyNotFoundError(self.name, family)

    def add_family(self, family: str) -> None:
        """Online schema change: add a column family."""
        with self._lock:
            self.families.add(family)

    def drop_family(self, family: str) -> None:
        """Online schema change: drop a column family and its data (the
        HBase admin ``deleteColumnFamily`` analogue, unmetered).  Notifies
        the store's family-drop listeners (statistics/plan caches)."""
        with self._lock:
            self.families.discard(family)
            for region in self.regions:
                region.drop_family(family)
        if self.on_family_drop is not None:
            self.on_family_drop(self.name, family)

    # -- routing -------------------------------------------------------------

    def region_for(self, row: str) -> Region:
        """The region owning ``row``."""
        # routing is lock-free: splits rebind both the region list and the
        # start-key list, so re-reading them retries past a torn snapshot
        for _ in range(3):
            starts = self._start_keys
            regions = self.regions
            index = bisect_right(starts, row)
            if index < len(regions):
                region = regions[index]
                if region.contains(row):
                    return region
        raise RegionError(
            f"routing bug: {row!r} not owned by any region of {self.name!r}"
        )

    def regions_in_range(
        self, start_row: "str | None", stop_row: "str | None"
    ) -> list[Region]:
        """Regions overlapping ``[start_row, stop_row)`` in key order."""
        selected = []
        for region in self.regions:
            if stop_row is not None and region.start_key is not None and region.start_key >= stop_row:
                continue
            if start_row is not None and region.stop_key is not None and region.stop_key <= start_row:
                continue
            selected.append(region)
        return selected

    # -- mutation ------------------------------------------------------------

    def apply(self, cell: Cell) -> None:
        """Route one mutation to its region; may trigger an auto-split."""
        self.check_family(cell.family)
        with self._lock:
            region = self.region_for(cell.row)
            region.apply(cell)
            if region.disk_size > self.max_region_bytes:
                self._try_split(region)

    def apply_batch(self, cells: "list[Cell]") -> int:
        """Route a batch of mutations; returns the number of regions touched.

        Families are checked once per distinct family up front and each cell
        is routed with a single bisect, instead of re-running
        ``check_family`` + ``region_for`` per cell through :meth:`apply`.
        Split checks keep the per-cell timing of :meth:`apply` (a region may
        split mid-batch, exactly as under the old per-cell loop), so bulk
        loads produce the same region layout and the same touched-region
        count — and therefore identical metered costs — as seed.
        """
        # validate up front (atomically — no partial application on a bad
        # family); sorted so the family named in the error is deterministic
        for family in sorted({cell.family for cell in cells}):
            self.check_family(family)
        touched: set[int] = set()
        with self._lock:
            for cell in cells:
                region = self.region_for(cell.row)
                region.apply(cell)
                if region.disk_size > self.max_region_bytes and self._try_split(region):
                    # this cell's apply split its region: its row now lives in
                    # one of the daughters, so re-route for the touched count
                    region = self.region_for(cell.row)
                touched.add(id(region))
        return len(touched)

    def _try_split(self, region: Region) -> tuple[Region, ...]:
        with self._lock:
            split_key = region.midpoint_key()
            if split_key is None:
                return ()
            lower, upper = region.split(split_key, self.cluster.next_worker())
            index = self.regions.index(region)
            # rebind (copy-on-write) rather than splice in place: lock-free
            # readers routing against the old list still see a consistent
            # region set, and the parent region still holds its data
            rebound = [*self.regions[:index], lower, upper, *self.regions[index + 1 :]]
            self.regions = rebound
            self._start_keys = [r.start_key for r in rebound[1:]]  # type: ignore[misc]
            return (lower, upper)

    def flush_all(self) -> None:
        """Flush every region (makes all data durable and scannable)."""
        for region in self.regions:
            region.flush()

    # -- unmetered access (ground truth, tests, reporting) --------------------

    def read_row(self, row: str, families: "set[str] | None" = None) -> RowResult:
        return self.region_for(row).read_row(row, families)

    def all_rows(self, families: "set[str] | None" = None) -> Iterator[RowResult]:
        """Every visible row in key order, without cost accounting."""
        for region in self.regions:
            yield from region.scan_rows(families=families)

    @property
    def disk_size(self) -> int:
        """Durable bytes across all regions (index size reporting)."""
        return sum(region.disk_size for region in self.regions)

    @property
    def total_size(self) -> int:
        return sum(region.total_size for region in self.regions)

    def raw_cell_count(self) -> int:
        return sum(region.raw_cell_count() for region in self.regions)
