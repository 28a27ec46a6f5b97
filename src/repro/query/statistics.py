"""Table and index statistics feeding the cost-based planner.

The planner prices candidate algorithms from three kinds of facts:

* **base-relation statistics** — row count, distinct join values, byte
  sizes, and an equi-width score histogram (the same bucketing the BFHM
  index uses, so planner estimates and index contents line up);
* **index availability and footprint** — which of the four index kinds
  (IJLMR, ISL, BFHM, DRJN) have been built for a relation signature, and
  how big their rows/cells actually are (actual sizes beat any formula);
* **cluster shape** — taken from the platform's :class:`CostModel`.

Gathering reads the *backing* tables (unmetered), so planning and EXPLAIN
never show up in a query's bill.  Statistics are cached per relation
signature in a :class:`StatisticsCatalog`; online mutations invalidate the
cache through the hooks in :mod:`repro.maintenance.interceptor`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.core.bfhm.bucket import Q_BLOB, Q_COUNT
from repro.core.indexes import BFHM_TABLE, DRJN_TABLE, IJLMR_TABLE, ISL_TABLE
from repro.errors import PlanningError
from repro.platform import Platform
from repro.relational.binding import RelationBinding, join_and_score
from repro.sketches.hashing import hash_to_range
from repro.sketches.histogram import EquiWidthHistogram

#: histogram resolution used for planning (matches the BFHM default, so a
#: built BFHM index and the planner agree on bucket boundaries)
PLANNER_NUM_BUCKETS = 100
#: join-partition resolution of the 2-D join profile (the DRJN matrix idea
#: applied to planning).  Partitions must be fine relative to the distinct
#: join values — keys sharing a partition average away the score-correlated
#: join skew (§5.3's repair driver) the profile exists to expose, halving
#: the diagonal mass and smearing it onto phantom bucket pairs; at ~1 key
#: per partition the cell products recover the per-key coupling while join
#: values themselves never leave the sketch (cells store counts only).
PLANNER_JOIN_PARTITIONS = 1 << 16


@dataclass(frozen=True)
class IndexStatistics:
    """Footprint of one built index family (zeros when not built)."""

    kind: str
    built: bool = False
    #: index rows holding data for this relation's family
    rows: int = 0
    #: individual cells across those rows
    cells: int = 0
    #: serialized size of those cells (the bytes scans/gets would move)
    total_bytes: int = 0

    @property
    def avg_row_bytes(self) -> float:
        return self.total_bytes / self.rows if self.rows else 0.0

    @property
    def avg_cell_bytes(self) -> float:
        return self.total_bytes / self.cells if self.cells else 0.0


@dataclass(frozen=True)
class BFHMIndexStatistics(IndexStatistics):
    """BFHM adds per-bucket blob facts and the reverse-mapping footprint."""

    m_bits: int = 0
    num_buckets: int = PLANNER_NUM_BUCKETS
    #: bucket number -> (tuple count, blob row bytes), descending score order
    bucket_blobs: "dict[int, tuple[int, int]]" = field(default_factory=dict)
    #: bucket number -> (actual min score, actual max score) as stored in
    #: the blob rows — the exact per-bucket score profile the BFHM
    #: coordinator sees, which the planner's cascade replay re-enacts
    bucket_scores: "dict[int, tuple[float, float]]" = field(default_factory=dict)
    reverse_rows: int = 0
    reverse_cells: int = 0
    reverse_bytes: int = 0

    @property
    def avg_reverse_row_bytes(self) -> float:
        return self.reverse_bytes / self.reverse_rows if self.reverse_rows else 0.0

    @property
    def avg_reverse_row_cells(self) -> float:
        return self.reverse_cells / self.reverse_rows if self.reverse_rows else 1.0

    def bucket_profile(self) -> "list[tuple[int, int, float, float]]":
        """Per-bucket ``(bucket number, count, min score, max score)`` in
        descending score order (= ascending bucket number), for every
        non-empty bucket whose score bounds are known.

        This is the cardinality/score profile the planner's symbolic
        phase-1/phase-2 replay runs against when the index is built — the
        same facts the coordinator reads from blob rows at query time.
        """
        profile = []
        for bucket in sorted(self.bucket_blobs):
            count, _ = self.bucket_blobs[bucket]
            if count <= 0 or bucket not in self.bucket_scores:
                continue
            low, high = self.bucket_scores[bucket]
            profile.append((bucket, count, low, high))
        return profile


@dataclass(frozen=True)
class JoinProfile:
    """2-D (score bucket × join partition) profile of one relation.

    The DRJN matrix idea (§2, §7.1) applied to planner statistics: join
    values are hash-partitioned, scores are equi-width bucketed, and each
    cell remembers how many tuples — and how many *distinct* join values —
    landed there.  Joining two relations' profiles cell-by-cell yields
    per-bucket-pair match expectations that capture score-correlated join
    skew (e.g. high-price orders joining more lineitems), which a single
    uniform selectivity constant cannot.
    """

    num_buckets: int
    num_partitions: int
    #: score bucket -> {join partition -> (tuple count, distinct join values)}
    cells: "dict[int, dict[int, tuple[int, int]]]"
    #: join partition -> distinct join values across the whole relation
    partition_distinct: "dict[int, int]"


def partition_universe(left: "JoinProfile", right: "JoinProfile") -> "dict[int, int]":
    """Join partition -> distinct join values it can hold when ``left``
    joins ``right``: the larger of the two relations' counts, at least 1
    (what a partition known to neither side counts as)."""
    universe = {
        partition: max(distinct, 1)
        for partition, distinct in left.partition_distinct.items()
    }
    for partition, distinct in right.partition_distinct.items():
        if distinct > universe.get(partition, 1):
            universe[partition] = distinct
    return universe


def expected_bucket_join(
    universe: "dict[int, int]",
    left_vector: "dict[int, tuple[float, float]]",
    right_vector: "dict[int, tuple[float, float]]",
) -> "tuple[float, float]":
    """Expected ``(tuple-pair matches, distinct shared join values)`` of
    joining two score buckets, given their partition vectors and the two
    relations' :func:`partition_universe`.

    Within a partition of ``D`` distinct join values, a left cell holding
    ``d_l`` distinct values and a right cell holding ``d_r`` shares
    ``d_l * d_r / D`` values in expectation (uniform placement within the
    partition); tuple pairs scale by counts instead.  Distinct shared
    values is what BFHM's filter intersections — and therefore its
    reverse-row traffic — are made of; tuple pairs is what phase 2
    materializes.
    """
    pairs = 0.0
    shared_values = 0.0
    small, large = (
        (left_vector, right_vector)
        if len(left_vector) <= len(right_vector)
        else (right_vector, left_vector)
    )
    for partition, (count_s, distinct_s) in small.items():
        other = large.get(partition)
        if other is None:
            continue
        count_o, distinct_o = other
        size = universe.get(partition, 1)
        pairs += count_s * count_o / size
        shared_values += distinct_s * distinct_o / size
    return pairs, shared_values


@dataclass(frozen=True)
class TableStatistics:
    """Planner-facing summary of one bound relation."""

    binding: RelationBinding
    row_count: int
    distinct_join_values: int
    total_cells: int
    total_row_bytes: int
    avg_join_value_bytes: float
    avg_row_key_bytes: float
    histogram: EquiWidthHistogram
    join_profile: "JoinProfile | None" = None
    indexes: "dict[str, IndexStatistics]" = field(default_factory=dict)

    @property
    def avg_row_bytes(self) -> float:
        return self.total_row_bytes / self.row_count if self.row_count else 0.0

    def bucket_counts(self) -> "list[int]":
        """Tuple count per score bucket, bucket 0 = highest scores."""
        return [
            self.histogram.bucket(b).count
            for b in range(self.histogram.num_buckets)
        ]

    def index(self, kind: str) -> IndexStatistics:
        return self.indexes.get(kind, IndexStatistics(kind=kind))


def _family_footprint(
    platform: Platform, table_name: str, family: str
) -> "tuple[int, int, int]":
    """(rows, cells, bytes) stored under ``family`` — unmetered."""
    if not platform.store.has_table(table_name):
        return (0, 0, 0)
    table = platform.store.backing(table_name)
    if family not in table.families:
        return (0, 0, 0)
    rows = cells = total = 0
    for row in table.all_rows(families={family}):  # lint: disable=RL301 (statistics gathering models catalog metadata, free by design — see gather_statistics)
        if row.empty:
            continue
        rows += 1
        cells += len(row)
        total += row.serialized_size()
    return (rows, cells, total)


def _flat_index_stats(platform: Platform, kind: str, table: str, family: str) -> IndexStatistics:
    rows, cells, total = _family_footprint(platform, table, family)
    return IndexStatistics(
        kind=kind, built=rows > 0, rows=rows, cells=cells, total_bytes=total
    )


def _bfhm_index_stats(platform: Platform, signature: str) -> "BFHMIndexStatistics | None":
    """Stats of the first built BFHM family for ``signature``, if any.

    BFHM families encode the bucket configuration in their name
    (``<signature>__b<numBuckets>``), so the lookup is by prefix.
    """
    if not platform.store.has_table(BFHM_TABLE):
        return None
    table = platform.store.backing(BFHM_TABLE)
    prefix = f"{signature}__b"
    families = sorted(f for f in table.families if f.startswith(prefix))
    if not families:
        return None
    family = families[0]
    # decode the meta row straight off the backing table (read_meta would
    # go through the metered client and bill the statistics pass)
    from repro.common.serialization import decode_float, decode_str
    from repro.core.bfhm.bucket import META_ROW, Q_M_BITS, Q_MAX, Q_MIN, Q_NUM_BUCKETS

    meta_row = table.read_row(META_ROW, families={family})  # lint: disable=RL301 (statistics gathering models catalog metadata, free by design — see gather_statistics)
    num_buckets_raw = meta_row.value(family, Q_NUM_BUCKETS)
    m_bits_raw = meta_row.value(family, Q_M_BITS)
    if num_buckets_raw is None or m_bits_raw is None:
        return None
    meta_num_buckets = int(decode_str(num_buckets_raw))
    meta_m_bits = int(decode_str(m_bits_raw))
    # one unmetered pass over the family: blob rows vs reverse rows
    bucket_blobs: dict[int, tuple[int, int]] = {}
    bucket_scores: dict[int, tuple[float, float]] = {}
    reverse_rows = reverse_cells = reverse_bytes = 0
    rows = cells = total = 0
    for row in table.all_rows(families={family}):  # lint: disable=RL301 (statistics gathering models catalog metadata, free by design — see gather_statistics)
        if row.empty:
            continue
        rows += 1
        cells += len(row)
        size = row.serialized_size()
        total += size
        if row.row.startswith("B") and row.value(family, Q_BLOB) is not None:
            count_raw = row.value(family, Q_COUNT)
            count = int(decode_str(count_raw)) if count_raw is not None else 0
            bucket = int(row.row[1:])
            bucket_blobs[bucket] = (count, size)
            min_raw = row.value(family, Q_MIN)
            max_raw = row.value(family, Q_MAX)
            if min_raw is not None and max_raw is not None:
                bucket_scores[bucket] = (decode_float(min_raw), decode_float(max_raw))
        elif row.row.startswith("R"):
            reverse_rows += 1
            reverse_cells += len(row)
            reverse_bytes += size
    return BFHMIndexStatistics(
        kind="bfhm",
        built=bool(bucket_blobs),
        rows=rows,
        cells=cells,
        total_bytes=total,
        m_bits=meta_m_bits,
        num_buckets=meta_num_buckets,
        bucket_blobs=bucket_blobs,
        bucket_scores=bucket_scores,
        reverse_rows=reverse_rows,
        reverse_cells=reverse_cells,
        reverse_bytes=reverse_bytes,
    )


def gather_statistics(
    platform: Platform,
    binding: RelationBinding,
    num_buckets: int = PLANNER_NUM_BUCKETS,
) -> TableStatistics:
    """One unmetered statistics pass over ``binding``'s base relation and
    whatever indices exist for its signature.

    The base table is iterated exactly once: each row yields its footprint
    (cells, bytes) and, decoded, the two columns the rank join reads — no
    other column is decoded and no per-row record is kept.  A row lacking
    its join or score column fails the gather with the
    :class:`~repro.errors.QueryError` of :func:`join_and_score`, which
    names the row and the table.
    """
    if not platform.store.has_table(binding.table):
        raise PlanningError(
            f"cannot plan over unknown table {binding.table!r}"
        )
    histogram = EquiWidthHistogram(num_buckets)
    row_count = 0
    total_cells = 0
    total_row_bytes = 0
    join_bytes = 0
    key_bytes = 0
    # join value -> (join partition, encoded length): both are functions of
    # the value alone, and a foreign key repeats once per referencing row
    value_facts: "dict[str, tuple[int, int]]" = {}
    # 2-D join profile accumulators: (bucket, partition) -> count/value set
    profile_cells: "dict[int, dict[int, list]]" = {}
    backing = platform.store.backing(binding.table)
    for row in backing.all_rows(families={binding.family}):  # lint: disable=RL301 (statistics gathering models catalog metadata, free by design — see gather_statistics)
        join_value, score = join_and_score(binding, row)
        row_count += 1
        total_cells += len(row)
        total_row_bytes += row.serialized_size()
        facts = value_facts.get(join_value)
        if facts is None:
            facts = value_facts[join_value] = (
                hash_to_range(join_value, PLANNER_JOIN_PARTITIONS),
                len(join_value.encode("utf-8")),
            )
        partition, value_bytes = facts
        join_bytes += value_bytes
        key_bytes += len(row.row.encode("utf-8"))
        # the paper's score domain is [0, 1]; clamp so planning never
        # crashes on a denormalized outlier
        bucket = histogram.add(min(max(score, 0.0), 1.0))
        cell = profile_cells.setdefault(bucket, {}).setdefault(
            partition, [0, set()]
        )
        cell[0] += 1
        cell[1].add(join_value)
    if not row_count:
        raise PlanningError(
            f"cannot plan over empty relation {binding.table!r}"
        )
    # per-partition distinct values: union of the cell value sets (each
    # value hashes to exactly one partition)
    partition_values: "dict[int, set[str]]" = {}
    for vector in profile_cells.values():
        for partition, (_, values) in vector.items():
            partition_values.setdefault(partition, set()).update(values)
    join_profile = JoinProfile(
        num_buckets=num_buckets,
        num_partitions=PLANNER_JOIN_PARTITIONS,
        cells={
            bucket: {
                partition: (count, len(values))
                for partition, (count, values) in vector.items()
            }
            for bucket, vector in profile_cells.items()
        },
        partition_distinct={
            partition: len(values)
            for partition, values in partition_values.items()
        },
    )

    signature = binding.signature
    indexes: dict[str, IndexStatistics] = {
        "ijlmr": _flat_index_stats(platform, "ijlmr", IJLMR_TABLE, signature),
        "isl": _flat_index_stats(platform, "isl", ISL_TABLE, signature),
        "drjn": _flat_index_stats(platform, "drjn", DRJN_TABLE, signature),
    }
    bfhm = _bfhm_index_stats(platform, signature)
    indexes["bfhm"] = bfhm if bfhm is not None else IndexStatistics(kind="bfhm")

    return TableStatistics(
        binding=binding,
        row_count=row_count,
        distinct_join_values=len(value_facts),
        total_cells=total_cells,
        total_row_bytes=total_row_bytes,
        avg_join_value_bytes=join_bytes / row_count,
        avg_row_key_bytes=key_bytes / row_count,
        histogram=histogram,
        join_profile=join_profile,
        indexes=indexes,
    )


class StatisticsCatalog:
    """Per-platform cache of :class:`TableStatistics`.

    Keyed by relation signature + family.  ``invalidate(table)`` drops every
    cached entry over that base table; the maintenance interceptor calls it
    after each applied mutation so plans never price stale data.

    The catalog is thread-safe: the serving layer shares one catalog across
    worker threads, so cache fills, invalidations, and version reads all run
    under an internal lock.  The slow part — :func:`gather_statistics` — runs
    *outside* the lock; a gather that races an invalidation is detected by
    comparing the table's version before and after, and its (now possibly
    stale) result is returned to the caller but never cached.
    """

    def __init__(self, platform: Platform, num_buckets: int = PLANNER_NUM_BUCKETS) -> None:
        self.platform = platform
        self.num_buckets = num_buckets
        self._cache: dict[tuple[str, str], TableStatistics] = {}  # guarded-by: _lock
        self._lock = threading.RLock()
        self.gather_count = 0  # guarded-by: _lock
        self.invalidation_count = 0  # guarded-by: _lock
        #: bumped on every invalidation; consumers (the planner's plan
        #: cache) use it to detect that cached derivations went stale
        self.version = 0  # guarded-by: _lock
        #: per-base-table invalidation counters — lets a shared plan cache
        #: invalidate only the plans whose input tables actually changed
        self._table_versions: dict[str, int] = {}  # guarded-by: _lock
        #: duck-typed async-maintenance hookup: a callable mapping a base
        #: table name to a staleness snapshot (``None`` when the table has
        #: no async pipeline) — see
        #: :meth:`repro.maintenance.worker.MaintenancePipeline.staleness`.
        #: The catalog itself only caches *applied* state; this lets the
        #: planner and EXPLAIN report how far the indexes lag behind the
        #: mutation log.
        self._staleness_provider = None
        # family/table drops change index footprints the planner priced
        # from, so the catalog listens on the store's drop notifications
        add_listener = getattr(platform.store, "add_drop_listener", None)
        if add_listener is not None:
            add_listener(self.on_store_drop)

    def _key(self, binding: RelationBinding) -> tuple[str, str]:
        return (binding.signature, binding.family)

    def table_version(self, table: str) -> int:
        """Monotonic invalidation counter of base table ``table``."""
        with self._lock:
            return self._table_versions.get(table, 0)

    def set_staleness_provider(self, provider) -> None:
        """Attach (or detach, with ``None``) the async-maintenance
        staleness source.  ``provider(table)`` must return an object with
        ``pending`` / ``applied_sequence`` / ``last_sequence`` attributes,
        or ``None`` for tables it does not maintain."""
        self._staleness_provider = provider

    def staleness_for(self, table: str):
        """The table's staleness snapshot, or ``None`` when no async
        pipeline is attached (synchronous maintenance is never stale)."""
        provider = self._staleness_provider
        if provider is None:
            return None
        return provider(table)

    def applied_watermark(self, table: str) -> int:
        """The per-table applied-sequence watermark (0 without a pipeline).

        Plan-cache entries snapshot this alongside table versions: a plan
        priced while the table lagged is revalidated once the watermark
        moves."""
        staleness = self.staleness_for(table)
        return 0 if staleness is None else staleness.applied_sequence

    def stats_for(self, binding: RelationBinding) -> TableStatistics:
        """Cached statistics for ``binding`` (gathered on first use)."""
        key = self._key(binding)
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                return cached
            before = self._table_versions.get(binding.table, 0)
        # gather outside the lock: it walks whole backing tables and must
        # not serialize concurrent planning of unrelated queries
        stats = gather_statistics(self.platform, binding, self.num_buckets)
        with self._lock:
            self.gather_count += 1
            current = self._cache.get(key)
            if current is not None:
                # another thread filled the entry first; both gathers saw
                # the same store state, keep the incumbent
                return current
            if self._table_versions.get(binding.table, 0) == before:
                self._cache[key] = stats
            # else: maintenance landed mid-gather — serve the result to
            # this caller but leave the cache empty so the next plan
            # re-gathers against the post-mutation state
            return stats

    def stats_for_query(self, query) -> "list[TableStatistics]":
        """Per-input statistics of an n-ary query, in input order.

        The n-way planner paths price every relation of the join, so
        statistics are gathered (and cached) for each bound input."""
        return [self.stats_for(binding) for binding in query.inputs]

    def invalidate(self, table: str) -> int:
        """Drop cached statistics over base table ``table``; returns the
        number of entries dropped.  Index tables fan in through their base
        relation, so invalidating the base covers the index stats too."""
        with self._lock:
            stale = [
                key
                for key, stats in self._cache.items()
                if stats.binding.table == table
            ]
            for key in stale:
                del self._cache[key]
            if stale:
                self.invalidation_count += 1
            self.version += 1
            self._table_versions[table] = self._table_versions.get(table, 0) + 1
            return len(stale)

    def on_store_drop(self, table_name: str, family: "str | None") -> None:
        """Store listener: a family (or whole table) was dropped, so
        statistics — and any plans priced from them — may be stale.

        Index families are named after the relation signature
        ``<base table>__<join col>__<score col>`` (BFHM appends a
        ``__b<buckets>`` suffix), so the base table is the first ``__``
        segment.  Invalidating by base table keeps the blast radius tight:
        dropping a BFHM cascade temp family only bumps the (nonexistent)
        temp table's version, leaving real cached plans alone.
        """
        if family is None:
            self.invalidate(table_name)
            return
        base = family.split("__", 1)[0]
        self.invalidate(base)
        if table_name != base:
            self.invalidate(table_name)
