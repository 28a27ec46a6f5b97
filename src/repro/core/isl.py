"""Inverse Score List rank join — ISL (§4.2).

The ISL index inverts each relation on its *score*: index rows are keyed by
the negated score (HBase scans only ascend — the §4.2.2 "kink"), and hold
``{row key, join value}`` entries (Fig. 3).  Built by a map-only MapReduce
job (Alg. 3), one column family per relation in a shared index table.

Query processing (Alg. 4) is coordinator-based: a single client scans the
index families round-robin, in batches of a configurable size (HBase
scanner caching), feeding tuples into the HRJN operator until its threshold
test fires.  Batching trades bandwidth/dollars for latency: bigger batches
amortize RPC latency but may overshoot the termination point.  The same
index, operator and drains serve any arity (§3's multi-way extension);
:class:`MultiWayISLRankJoin` only carries the n-way display name.
"""

from __future__ import annotations

from functools import partial
from typing import Iterator

from repro.common.serialization import decode_float, decode_score_key, encode_score_key
from repro.common.types import JoinTuple, ScoredRow
from repro.core.base import IndexBuildReport, RankJoinAlgorithm, _ExecutionDetails
from repro.core.hrjn import HRJNOperator
from repro.core.indexes import (
    ISL_TABLE,
    ensure_index_table,
    family_built,
    sample_split_keys,
)
from repro.mapreduce.job import Job, TableInput, TableOutput, TaskContext
from repro.platform import Platform
from repro.query.spec import RankJoinQuery
from repro.relational.binding import RelationBinding, load_relation
from repro.store.cell import RowResult
from repro.store.client import Put, Scan

#: default scanner batch as a fraction of the relation's row count (the
#: paper used 1%/0.1% on EC2 and 1%/0.2% on LC)
DEFAULT_BATCH_FRACTION = 0.01
MIN_BATCH_ROWS = 8


def _build_map(payload: dict, row_key: str, row: RowResult, task: TaskContext) -> None:
    """Invert one base-relation row on its score (Algorithm 3 mapper)."""
    join_raw = row.value(payload["family"], payload["join_column"])
    score_raw = row.value(payload["family"], payload["score_column"])
    if join_raw is None or score_raw is None:
        task.bump("skipped_rows")
        return
    put = Put(encode_score_key(decode_float(score_raw)))
    put.add(payload["signature"], row_key, join_raw)
    task.emit(put.row, put)
    task.bump("indexed_rows")


class _SideCursor:
    """Batched pull of ScoredRows from one ISL index family."""

    def __init__(self, platform: Platform, signature: str, batch_rows: int) -> None:
        htable = platform.store.table(ISL_TABLE)
        self.batch_rows = batch_rows
        self._table = htable.table
        self._batches: Iterator[list[RowResult]] = htable.scan_batches(
            Scan(families={signature}, caching=batch_rows)
        )
        #: fetched rows not handed out yet: a batch that crosses a region
        #: boundary ends inside the next region's first RPC batch
        self._pending: list[RowResult] = []
        self.exhausted = False
        #: last index row pulled — the scan's position, used to route the
        #: next batch fetch to the region server currently serving it
        self._last_row_key: "str | None" = None

    def next_batch(self) -> list[ScoredRow]:
        """Tuples of the next ``batch_rows`` index rows (possibly more
        tuples than rows — equal scores share an index row).  An RPC batch
        is fetched only when a row is still missing."""
        want = self.batch_rows
        rows = self._pending
        while len(rows) < want:
            fetched = next(self._batches, None)
            if fetched is None:
                self.exhausted = True
                break
            rows = rows + fetched if rows else fetched
        rows, self._pending = rows[:want], rows[want:]
        if rows:
            self._last_row_key = rows[-1].row
        # every entry of an index row shares the row's score; the scan
        # reads one family, so every cell is an entry
        return [
            ScoredRow(cell.qualifier, cell.value.decode(), score)
            for row in rows
            for score in (decode_score_key(row.row),)
            for cell in row.cells
        ]

    def server_hint(self, topology) -> int:
        """Region server the cursor's next batch is expected to hit (the
        region holding its current scan position — a batch that crosses a
        region boundary is still charged wherever its rows actually live;
        the hint only drives scatter grouping)."""
        if self._last_row_key is None:
            regions = self._table.regions_in_range(None, None)
            region = regions[0]
        else:
            region = self._table.region_for(self._last_row_key)
        return topology.server_for(region)


class ISLRankJoin(RankJoinAlgorithm):
    """The ISL index + coordinator-based HRJN rank join."""

    name = "ISL"
    max_arity = None

    def __init__(
        self,
        platform: Platform,
        batch_fraction: float = DEFAULT_BATCH_FRACTION,
        batch_rows: "int | None" = None,
    ) -> None:
        super().__init__(platform)
        self.batch_fraction = batch_fraction
        self.batch_rows = batch_rows
        self._relation_rows: dict[str, int] = {}

    # -- index build (Algorithm 3) -------------------------------------------

    def _index_exists(self, binding: RelationBinding) -> bool:
        return family_built(self.platform, ISL_TABLE, binding.signature)

    def _adopt_index(self, binding: RelationBinding) -> None:
        """Rehydrate the relation row count a store-present index implies —
        batch sizing (§4.2.3) is a fraction of it, so adopting without it
        would silently fall back to the minimum batch and change the
        query's metered scan pattern."""
        self._relation_rows[binding.signature] = len(
            load_relation(self.platform.store, binding)
        )

    def _build_index(self, binding: RelationBinding) -> IndexBuildReport:
        platform = self.platform
        signature = binding.signature

        rows = load_relation(platform.store, binding)
        self._relation_rows[signature] = len(rows)
        sample = [encode_score_key(row.score) for row in rows]
        splits = sample_split_keys(sample, len(platform.ctx.cluster.workers))
        ensure_index_table(platform, ISL_TABLE, signature, splits)

        job = Job(
            name=f"isl-index-{signature}",
            input_source=TableInput.of(binding.table, {binding.family}),
            map_fn=partial(
                _build_map,
                {
                    "family": binding.family,
                    "join_column": binding.join_column,
                    "score_column": binding.score_column,
                    "signature": signature,
                },
            ),
            output=TableOutput(ISL_TABLE),
        )

        def build() -> int:
            platform.runner.run(job)
            table = platform.store.backing(ISL_TABLE)
            return sum(
                cell.serialized_size()
                for row in table.all_rows(families={signature})  # lint: disable=RL301 (index-size accounting for the build report; the build job itself is metered)
                for cell in row
            )

        # one index for every arity: n-way builds report as ISL too
        return self._metered_build(ISLRankJoin.name, signature, build)

    # -- query processing (Algorithm 4) -----------------------------------------

    def _batch_rows_for(self, signature: str) -> int:
        if self.batch_rows is not None:
            return self.batch_rows
        relation_rows = self._relation_rows.get(signature, 0)
        return max(MIN_BATCH_ROWS, int(relation_rows * self.batch_fraction))

    def _run(self, query: RankJoinQuery, details: _ExecutionDetails) -> list[JoinTuple]:
        """Run Algorithm 4 at the query's arity, recording the scan depth
        (``batches``, ``scatter_rounds``, ``tuples_seen_<i>``)."""
        operator = HRJNOperator(query.arity, query.function, query.k)
        cursors = [
            _SideCursor(
                self.platform, binding.signature,
                self._batch_rows_for(binding.signature),
            )
            for binding in query.inputs
        ]
        if self.platform.ctx.topology.parallel:
            batches, rounds = self._drain_scatter(operator, cursors)
        else:
            batches, rounds = self._drain_serial(operator, cursors), 0
        details.set("batches", batches)
        details.set("scatter_rounds", rounds)
        for i, count in enumerate(operator.tuples_seen()):
            details.set(f"tuples_seen_{i}", count)
        return operator.results

    @staticmethod
    def _drain_serial(operator: HRJNOperator, cursors: "list[_SideCursor]") -> int:
        """One server: strict round-robin over the index families, one
        batch at a time; returns the number of batches fetched."""
        arity = len(cursors)
        index = 0
        batches = 0
        while not _drained(operator, cursors):
            while cursors[index].exhausted:
                index = (index + 1) % arity
            batches += 1
            operator.feed(index, cursors[index].next_batch())
            index = (index + 1) % arity
        return batches

    def _drain_scatter(
        self, operator: HRJNOperator, cursors: "list[_SideCursor]"
    ) -> "tuple[int, int]":
        """Several servers: each round fetches the next batch of *every*
        non-exhausted input as one scatter/gather round — cursors on
        regions of different servers overlap, so the round costs the
        slowest server's queue, not the sum.  Tuples still feed the
        operator in input order, so results are identical; a round may
        overfetch a batch of some input compared to round-robin (the
        fan-out bandwidth-for-latency trade, same as §4.2.3's batching
        knob).  Returns (batches fetched, rounds)."""
        from repro.cluster.executor import ScatterTask, scatter_gather

        ctx = self.platform.ctx
        topology = ctx.topology
        batches = 0
        rounds = 0
        while not _drained(operator, cursors):
            active = [i for i, cursor in enumerate(cursors) if not cursor.exhausted]
            tasks = [
                ScatterTask(cursors[i].server_hint(topology), cursors[i].next_batch)
                for i in active
            ]
            fetched = scatter_gather(ctx, tasks, label="isl")
            rounds += 1
            batches += len(active)
            for i, batch in zip(active, fetched):
                operator.feed(i, batch)
                if operator.terminated():
                    return batches, rounds
        return batches, rounds


def _drained(operator: HRJNOperator, cursors: "list[_SideCursor]") -> bool:
    """Whether a drain is done before its next fetch: the threshold test
    fired or every input is exhausted.  Inside a fetch only the threshold
    test is checked — every input can be exhausted only once the fetch's
    last row is consumed, and then this check ends the drain."""
    return all(cursor.exhausted for cursor in cursors) or operator.terminated()


class MultiWayISLRankJoin(ISLRankJoin):
    """ISL over n relations (§3's extension): the same index, build and
    drains under the n-way strategy's display name."""

    name = "ISL-nway"
