"""DRJN — Doulkeridis et al. (ICDE 2012), re-engineered for HBase (§7.1).

The DRJN index is a 2-D matrix: join-value partitions × score partitions,
each cell counting a relation's tuples.  Following the paper's adaptation:

* all buckets of one score range are stored as columns of a single index
  row, so one ``Get`` retrieves a whole batch of buckets;
* the pull phase runs as a lightweight map-only Hadoop job with a custom
  server-side score filter, writing its output to a temporary HBase table
  which the coordinator then scans and joins.

Query processing loops: (i) fetch matrix rows in decreasing score order,
(ii) estimate the join cardinality under the uniform-frequency assumption,
(iii) once the estimate reaches ``k``, pull every tuple scoring above the
current bucket boundary and join; (iv) terminate when the k-th actual
result provably beats anything below the boundary.  Each pull job scans the
full base tables — the source of DRJN's dollar-cost and latency gap.
"""

from __future__ import annotations

import struct

from repro.common.serialization import decode_float, decode_str, encode_str
from repro.common.types import JoinTuple, ScoredRow
from repro.core.base import IndexBuildReport, RankJoinAlgorithm, _ExecutionDetails
from repro.core.indexes import DRJN_TABLE, ensure_index_table, family_built
from repro.errors import IndexNotBuiltError
from repro.mapreduce.job import Job, TableInput, TableOutput, TaskContext
from repro.query.spec import RankJoinQuery
from repro.relational.binding import RelationBinding
from repro.sketches.hashing import hash_to_range
from repro.sketches.histogram import bucket_bounds, score_to_bucket
from repro.store.cell import RowResult
from repro.store.client import Get, Put, Scan
from repro.store.filters import ScoreBandFilter

SCORE_EPSILON = 1e-12
META_ROW = "meta"
_CELL = struct.Struct(">Idd")  # count, min score, max score

DEFAULT_SCORE_BUCKETS = 100
DEFAULT_JOIN_PARTITIONS = 64


def _score_row_key(bucket: int) -> str:
    return f"{bucket:05d}"


class DRJNRankJoin(RankJoinAlgorithm):
    """The DRJN 2-D histogram index + bound/pull query processing."""

    name = "DRJN"

    def __init__(
        self,
        platform,
        num_score_buckets: int = DEFAULT_SCORE_BUCKETS,
        num_join_partitions: int = DEFAULT_JOIN_PARTITIONS,
    ) -> None:
        super().__init__(platform)
        self.num_score_buckets = num_score_buckets
        self.num_join_partitions = num_join_partitions

    # -- index build -----------------------------------------------------------

    def _index_exists(self, binding: RelationBinding) -> bool:
        # queries read the matrix meta row from the store each run, so a
        # store-present family needs no in-memory rehydration (the stored
        # matrix's partitioning wins over this instance's configuration)
        return family_built(self.platform, DRJN_TABLE, binding.signature)

    def _build_index(self, binding: RelationBinding) -> IndexBuildReport:
        platform = self.platform
        signature = binding.signature
        num_score_buckets = self.num_score_buckets
        num_join_partitions = self.num_join_partitions
        ensure_index_table(platform, DRJN_TABLE, signature)

        def map_fn(row_key: str, row: RowResult, task: TaskContext) -> None:
            join_raw = row.value(binding.family, binding.join_column)
            score_raw = row.value(binding.family, binding.score_column)
            if join_raw is None or score_raw is None:
                task.bump("skipped_rows")
                return
            join_value = decode_str(join_raw)
            score = decode_float(score_raw)
            partition = hash_to_range(join_value, num_join_partitions)
            bucket = score_to_bucket(score, num_score_buckets)
            task.emit(f"c|{bucket:05d}|{partition:06d}", score)
            task.emit(f"d|{partition:06d}", join_value)

        def reduce_fn(key: str, values: list, task: TaskContext) -> None:
            kind, _, rest = key.partition("|")
            if kind == "c":
                bucket_text, _, partition_text = rest.partition("|")
                put = Put(_score_row_key(int(bucket_text)))
                put.add(
                    signature,
                    f"p{int(partition_text):06d}",
                    _CELL.pack(len(values), min(values), max(values)),
                )
                task.emit(put.row, put)
            else:
                put = Put(META_ROW)
                put.add(
                    signature,
                    f"p{int(rest):06d}",
                    encode_str(str(len(set(values)))),
                )
                task.emit(put.row, put)

        job = Job(
            name=f"drjn-index-{signature}",
            input_source=TableInput.of(binding.table, {binding.family}),
            map_fn=map_fn,
            reduce_fn=reduce_fn,
            num_reducers=max(1, len(platform.ctx.cluster.workers)),
            output=TableOutput(DRJN_TABLE),
        )

        def build() -> int:
            platform.runner.run(job)
            table = platform.store.backing(DRJN_TABLE)
            return sum(
                cell.serialized_size()
                for row in table.all_rows(families={signature})  # lint: disable=RL301 (index-size accounting for the build report; the build job itself is metered)
                for cell in row
            )

        return self._metered_build(self.name, signature, build)

    # -- index reads ---------------------------------------------------------------

    def _read_meta(self, signature: str) -> dict[int, int]:
        """Distinct-join-value counts per partition (one metered Get)."""
        htable = self.platform.store.table(DRJN_TABLE)
        row = htable.get(Get(META_ROW, families={signature}))
        if row.empty:
            raise IndexNotBuiltError(f"DRJN:{signature}")
        return {
            int(cell.qualifier[1:]): int(decode_str(cell.value))
            for cell in row.family_cells(signature)
        }

    def _fetch_score_row(self, signature: str, bucket: int) -> dict[int, tuple[int, float, float]]:
        """One metered Get of a full matrix row (a batch of buckets)."""
        htable = self.platform.store.table(DRJN_TABLE)
        row = htable.get(Get(_score_row_key(bucket), families={signature}))
        cells = {}
        for cell in row.family_cells(signature):
            count, low, high = _CELL.unpack(cell.value)
            cells[int(cell.qualifier[1:])] = (count, low, high)
        return cells

    # -- pull phase --------------------------------------------------------------------

    def _pull_job(
        self,
        binding: RelationBinding,
        low: float,
        high: "float | None",
        temp_table: str,
    ) -> None:
        """Map-only job shipping tuples with ``low <= score < high`` into a
        temporary table (scans the entire base table to find them)."""
        platform = self.platform
        signature = binding.signature
        band = ScoreBandFilter(binding.family, binding.score_column, low, high)

        def map_fn(row_key: str, row: RowResult, task: TaskContext) -> None:
            if not band.matches(row):
                return
            join_raw = row.value(binding.family, binding.join_column)
            score_raw = row.value(binding.family, binding.score_column)
            put = Put(row_key)
            put.add(signature, "j", join_raw)
            put.add(signature, "s", score_raw)
            task.emit(row_key, put)
            task.bump("pulled")

        job = Job(
            name=f"drjn-pull-{signature}",
            input_source=TableInput.of(binding.table, {binding.family}),
            map_fn=map_fn,
            output=TableOutput(temp_table, skip_wal=True),
        )
        platform.runner.run(job)

    def _scan_temp(self, signature: str, temp_table: str) -> list[ScoredRow]:
        """Coordinator fetch of the pulled tuples (metered scan)."""
        htable = self.platform.store.table(temp_table)
        tuples = []
        # the temp table is always drained in full, so the scan can fan
        # out per region server on multi-server topologies (scatter is a
        # no-op on the default single server)
        for row in htable.scan(Scan(families={signature}, caching=500, scatter=True)):
            join_raw = row.value(signature, "j")
            score_raw = row.value(signature, "s")
            if join_raw is None or score_raw is None:
                continue
            tuples.append(
                ScoredRow(row.row, decode_str(join_raw), decode_float(score_raw))
            )
        return tuples

    # -- query processing ------------------------------------------------------------------

    def _run(self, query: RankJoinQuery, details: _ExecutionDetails) -> list[JoinTuple]:
        platform = self.platform
        signatures = (query.left.signature, query.right.signature)
        bindings = (query.left, query.right)
        function = query.function
        k = query.k

        meta = tuple(self._read_meta(signature) for signature in signatures)
        fetched: tuple[dict[int, dict[int, tuple[int, float, float]]], ...] = ({}, {})
        pulled: tuple[list[ScoredRow], list[ScoredRow]] = ([], [])
        pulled_low = [1.0 + SCORE_EPSILON, 1.0 + SCORE_EPSILON]

        temp_table = f"drjn_tmp_{signatures[0]}_{signatures[1]}"[:120]
        if platform.store.has_table(temp_table):
            # defensive: a prior crashed run left its scratch table behind
            platform.store.drop_table(temp_table)  # lint: disable=RL403 (pre-create sweep of a leftover table, not this run's cleanup)
        platform.store.create_table(temp_table, set(signatures))

        estimate = 0.0
        next_bucket = 0
        results: list[JoinTuple] = []
        rounds = 0

        try:
            results, rounds, next_bucket = self._drive_rounds(
                query, signatures, bindings, meta, fetched, pulled,
                pulled_low, temp_table,
            )
        finally:
            platform.store.drop_table(temp_table)
        details.set("rounds", rounds)
        details.set("pulled_left", len(pulled[0]))
        details.set("pulled_right", len(pulled[1]))
        return results[: k]

    def _drive_rounds(
        self,
        query: RankJoinQuery,
        signatures,
        bindings,
        meta,
        fetched,
        pulled,
        pulled_low,
        temp_table: str,
    ) -> "tuple[list[JoinTuple], int, int]":
        """The DRJN fetch/estimate/pull/join round loop (§ fig. 5 protocol).

        Split out of :meth:`_run` so the scratch-table lifetime there is a
        flat create / ``try`` / ``finally: drop`` — a mid-round failure
        (store fault injection, interrupted run) no longer leaks the
        ``drjn_tmp_*`` table into later queries' scans.
        """
        function = query.function
        k = query.k
        estimate = 0.0
        next_bucket = 0
        results: list[JoinTuple] = []
        rounds = 0

        while next_bucket < self.num_score_buckets:
            rounds += 1
            # (i) fetch the next batch of matrix rows for both relations
            batch_end = next_bucket
            while estimate < k and batch_end < self.num_score_buckets:
                for side in (0, 1):
                    cells = self._fetch_score_row(signatures[side], batch_end)
                    if cells:
                        fetched[side][batch_end] = cells
                # (ii) estimate the newly visible join combinations
                estimate = self._estimate(fetched, meta)
                batch_end += 1
            next_bucket = batch_end

            # (iii) pull all tuples above the current score boundary
            bound = bucket_bounds(next_bucket - 1, self.num_score_buckets)[0]
            for side in (0, 1):
                if bound < pulled_low[side]:
                    self._pull_job(
                        bindings[side], bound,
                        pulled_low[side] if pulled_low[side] <= 1.0 else None,
                        temp_table,
                    )
                    pulled_low[side] = bound
            for side in (0, 1):
                pulled[side].clear()
            pulled[0].extend(self._scan_temp(signatures[0], temp_table))
            pulled[1].extend(self._scan_temp(signatures[1], temp_table))

            # join at the coordinator
            results = _hash_join(pulled[0], pulled[1], function)

            # (iv) termination: k results, k-th beats anything below bound
            if len(results) >= k:
                top_upper = (
                    bucket_bounds(0, self.num_score_buckets)[1],
                    bucket_bounds(0, self.num_score_buckets)[1],
                )
                unseen_best = max(
                    function(bound, top_upper[1]), function(top_upper[0], bound)
                )
                if results[k - 1].score >= unseen_best - SCORE_EPSILON:
                    break
            if next_bucket >= self.num_score_buckets:
                break
            estimate = 0.0  # force the next round to fetch deeper rows

        return results, rounds, next_bucket

    def _estimate(self, fetched, meta) -> float:
        """Uniform-frequency cardinality estimate over fetched bucket pairs."""
        total = 0.0
        for left_cells in fetched[0].values():
            for right_cells in fetched[1].values():
                for partition, (lcount, _, _) in left_cells.items():
                    right = right_cells.get(partition)
                    if right is None:
                        continue
                    distinct = max(
                        meta[0].get(partition, 1), meta[1].get(partition, 1), 1
                    )
                    total += lcount * right[0] / distinct
        return total


def _hash_join(
    left: "list[ScoredRow]", right: "list[ScoredRow]", function
) -> list[JoinTuple]:
    by_value: dict[str, list[ScoredRow]] = {}
    for row in right:
        by_value.setdefault(row.join_value, []).append(row)
    results = []
    for lrow in left:
        for rrow in by_value.get(lrow.join_value, ()):
            results.append(
                JoinTuple(
                    keys=(lrow.row_key, rrow.row_key),
                    join_value=lrow.join_value,
                    score=function(lrow.score, rrow.score),
                    scores=(lrow.score, rrow.score),
                )
            )
    results.sort(key=JoinTuple.sort_key)
    return results
