"""A shared, thread-safe cache of planner decisions.

Rank-join serving workloads are *shape-stable*: millions of queries reuse
a handful of (relations, score function, k) shapes.  Pricing a shape is
pure — a plan is a function of the query and the statistics it was priced
against — so the planner's replay work can be paid once per shape and
shared by every worker thread, as long as the cache can tell when the
underlying statistics moved.

Entries are keyed by the canonical query shape and validated against the
:class:`~repro.query.statistics.StatisticsCatalog`'s per-table versions:
any maintenance mutation or index build/drop
bumps the versions of the tables it touched through the existing
interceptor/statistics hooks, which lazily invalidates exactly the cached
plans that priced those tables.  Eviction is LRU under a fixed capacity.

This module is deliberately free of query-layer imports (the planner
imports nothing from here either — the cache is *injected* into
:class:`~repro.query.planner.QueryPlanner`), so it can sit in ``serving/``
without creating an import cycle.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Protocol, Sequence

#: default number of cached plans (a plan is a few KB of estimates)
DEFAULT_CAPACITY = 128


class CatalogProtocol(Protocol):
    """What the cache needs from a statistics catalog (duck-typed so the
    serving layer never imports the query layer): per-table monotonic
    versions.  ``applied_watermark`` is probed with ``getattr`` and
    therefore deliberately absent here."""

    def table_version(self, name: str) -> int:
        """Monotonic invalidation counter of base table ``name``."""
        ...


@dataclass(frozen=True)
class CachedPlan:
    """One cached planner decision plus the versions it was priced at."""

    plan: Any
    #: (table name, statistics version at planning time) per input table
    table_versions: "tuple[tuple[str, int], ...]"
    #: (table name, async-maintenance applied-sequence watermark at
    #: planning time) — all zeros without a pipeline.  A drained batch
    #: moves the watermark, so plans priced against a lagging index are
    #: re-priced once the drain catches up (normally redundant with the
    #: table-version bump the drain also performs, but load-bearing for
    #: pipelines wired without a statistics catalog).
    watermarks: "tuple[tuple[str, int], ...]" = ()


class PlanCache:
    """LRU of ``canonical query shape -> QueryPlan`` with lazy version
    validation against a statistics catalog.

    The ``catalog`` is duck-typed: it must expose ``table_version(name)``
    (see :class:`~repro.query.statistics.StatisticsCatalog`).  ``capacity=0``
    disables caching (every lookup misses) — used as the "replan every
    query" baseline in the serving benchmark.
    """

    def __init__(self, catalog: CatalogProtocol, capacity: int = DEFAULT_CAPACITY) -> None:
        self.catalog = catalog
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, CachedPlan]" = OrderedDict()  # guarded-by: _lock
        self._lock = threading.Lock()
        self.hits = 0  # guarded-by: _lock
        self.misses = 0  # guarded-by: _lock
        self.evictions = 0  # guarded-by: _lock
        self.invalidations = 0  # guarded-by: _lock

    # -- version bookkeeping -------------------------------------------------

    def versions_for(self, tables: Sequence[str]) -> "tuple[tuple[str, int], ...]":
        """Snapshot the catalog versions a plan over ``tables`` depends on.

        Call *before* pricing: if maintenance lands mid-planning, the
        stale versions make :meth:`store` refuse to cache the plan.
        """
        return tuple((table, self.catalog.table_version(table)) for table in tables)

    def watermarks_for(
        self, tables: Sequence[str]
    ) -> "tuple[tuple[str, int], ...]":
        """Snapshot the per-table applied-sequence watermarks (all zeros
        when the catalog has no async-maintenance hookup)."""
        applied = getattr(self.catalog, "applied_watermark", None)
        if applied is None:
            return tuple((table, 0) for table in tables)
        return tuple((table, applied(table)) for table in tables)

    def _current(self, entry: CachedPlan) -> bool:
        if not all(
            self.catalog.table_version(table) == version
            for table, version in entry.table_versions
        ):
            return False
        applied = getattr(self.catalog, "applied_watermark", None)
        if applied is None:
            return True
        return all(
            applied(table) == watermark
            for table, watermark in entry.watermarks
        )

    # -- cache protocol ------------------------------------------------------

    def lookup(self, key: Hashable) -> "Any | None":
        """The cached plan for ``key``, or ``None`` on miss/stale entry."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            if not self._current(entry):
                del self._entries[key]
                self.invalidations += 1
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry.plan

    def store(
        self,
        key: Hashable,
        plan: Any,
        versions: "tuple[tuple[str, int], ...]",
    ) -> bool:
        """Insert ``plan`` unless the statistics moved since ``versions``
        were snapshotted; returns whether the plan was cached."""
        if self.capacity <= 0:
            return False
        entry = CachedPlan(
            plan=plan,
            table_versions=versions,
            watermarks=self.watermarks_for([table for table, _ in versions]),
        )
        with self._lock:
            if not self._current(entry):
                return False  # stale before it ever landed
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
        return True

    def clear(self) -> None:
        """Drop every entry (does not touch hit/miss accounting)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when unused)."""
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def stats(self) -> "dict[str, float]":
        """Hit/miss/eviction/invalidation counters plus size and hit rate."""
        # one consistent snapshot: counters and size are read under the
        # same lock acquisition (hit_rate is recomputed inline because the
        # property takes this non-reentrant lock itself)
        with self._lock:
            total = self.hits + self.misses
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "size": len(self._entries),
                "hit_rate": self.hits / total if total else 0.0,
            }
