"""Inverse Score List rank join — ISL (§4.2).

The ISL index inverts each relation on its *score*: index rows are keyed by
the negated score (HBase scans only ascend — the §4.2.2 "kink"), and hold
``{row key, join value}`` entries (Fig. 3).  Built by a map-only MapReduce
job (Alg. 3), one column family per relation in a shared index table.

Query processing (Alg. 4) is coordinator-based: a single client scans the
two index families alternately, in batches of a configurable size (HBase
scanner caching), feeding tuples into the HRJN operator until its threshold
test fires.  Batching trades bandwidth/dollars for latency: bigger batches
amortize RPC latency but may overshoot the termination point.
"""

from __future__ import annotations

from functools import partial
from typing import Iterator

from repro.common.serialization import (
    decode_float,
    decode_score_key,
    decode_str,
    encode_score_key,
)
from repro.common.types import JoinTuple, ScoredRow
from repro.core.base import IndexBuildReport, RankJoinAlgorithm, _ExecutionDetails
from repro.core.hrjn import LEFT, RIGHT, HRJNOperator
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
        self._rows: Iterator[RowResult] = htable.scan(
            Scan(families={signature}, caching=batch_rows)
        )
        self._signature = signature
        self._pending: list[ScoredRow] = []
        self.exhausted = False
        #: last index row pulled — the scan's position, used to route the
        #: next batch fetch to the region server currently serving it
        self._last_row_key: "str | None" = None

    def next_batch(self) -> list[ScoredRow]:
        """Tuples of the next ``batch_rows`` index rows (possibly more
        tuples than rows — equal scores share an index row)."""
        batch: list[ScoredRow] = []
        rows_taken = 0
        while rows_taken < self.batch_rows:
            try:
                row = next(self._rows)
            except StopIteration:
                self.exhausted = True
                break
            rows_taken += 1
            self._last_row_key = row.row
            for cell in row.family_cells(self._signature):
                batch.append(
                    ScoredRow(
                        row_key=cell.qualifier,
                        join_value=decode_str(cell.value),
                        score=_score_of_key(row.row),
                    )
                )
        return batch

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


def _score_of_key(key: str) -> float:
    return decode_score_key(key)


class ISLRankJoin(RankJoinAlgorithm):
    """The ISL index + coordinator-based HRJN rank join."""

    name = "ISL"

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

        return self._metered_build(self.name, signature, build)

    # -- query processing (Algorithm 4) -----------------------------------------

    def _batch_rows_for(self, signature: str) -> int:
        if self.batch_rows is not None:
            return self.batch_rows
        relation_rows = self._relation_rows.get(signature, 0)
        return max(MIN_BATCH_ROWS, int(relation_rows * self.batch_fraction))

    def _run(self, query: RankJoinQuery, details: _ExecutionDetails) -> list[JoinTuple]:
        if self.platform.ctx.topology.parallel:
            return self._run_scatter(query, details)
        operator = HRJNOperator(query.function, query.k)
        cursors = {
            LEFT: _SideCursor(
                self.platform, query.left.signature,
                self._batch_rows_for(query.left.signature),
            ),
            RIGHT: _SideCursor(
                self.platform, query.right.signature,
                self._batch_rows_for(query.right.signature),
            ),
        }

        side = LEFT
        batches = 0
        while True:
            exhausted = (cursors[LEFT].exhausted, cursors[RIGHT].exhausted)
            if operator.terminated(exhausted):
                break
            if all(exhausted):
                break
            if cursors[side].exhausted:
                side = 1 - side
            batch = cursors[side].next_batch()
            batches += 1
            done = False
            for index, row in enumerate(batch):
                operator.add(side, row)
                # the cursor may already report exhaustion while rows of
                # this batch are still unprocessed; a side only counts as
                # exhausted once its final batch is fully consumed
                drained = index == len(batch) - 1
                exhausted = (
                    cursors[LEFT].exhausted and (side != LEFT or drained),
                    cursors[RIGHT].exhausted and (side != RIGHT or drained),
                )
                if operator.terminated(exhausted):
                    done = True
                    break
            if done:
                break
            side = 1 - side

        seen = operator.tuples_seen()
        details.set("batches", batches)
        details.set("tuples_seen_left", seen[LEFT])
        details.set("tuples_seen_right", seen[RIGHT])
        return operator.results

    def _run_scatter(
        self, query: RankJoinQuery, details: _ExecutionDetails
    ) -> list[JoinTuple]:
        """Algorithm 4 on a multi-server topology: instead of strictly
        alternating sides, each round fetches the next batch of *every*
        non-exhausted side as one scatter/gather round — when the two
        cursors sit on regions of different servers, the fetches overlap
        and the round costs the slower of the two, not the sum.  Tuples
        still feed the HRJN operator in side order (LEFT then RIGHT), so
        results are identical; the round may overfetch one batch of the
        other side compared to serial alternation (the classic fan-out
        bandwidth-for-latency trade, same as §4.2.3's batching knob).
        """
        from repro.cluster.executor import ScatterTask, scatter_gather

        ctx = self.platform.ctx
        topology = ctx.topology
        operator = HRJNOperator(query.function, query.k)
        cursors = {
            LEFT: _SideCursor(
                self.platform, query.left.signature,
                self._batch_rows_for(query.left.signature),
            ),
            RIGHT: _SideCursor(
                self.platform, query.right.signature,
                self._batch_rows_for(query.right.signature),
            ),
        }

        batches = 0
        rounds = 0
        done = False
        while not done:
            exhausted = (cursors[LEFT].exhausted, cursors[RIGHT].exhausted)
            if operator.terminated(exhausted) or all(exhausted):
                break
            active = [side for side in (LEFT, RIGHT) if not cursors[side].exhausted]
            tasks = [
                ScatterTask(
                    cursors[side].server_hint(topology),
                    cursors[side].next_batch,
                )
                for side in active
            ]
            fetched = scatter_gather(ctx, tasks, label="isl")
            rounds += 1
            batches += len(active)
            # feed the operator in fixed side order; a side only counts as
            # exhausted once every row of its final batch is consumed
            remaining = {side: len(batch) for side, batch in zip(active, fetched)}
            for side, batch in zip(active, fetched):
                for row in batch:
                    operator.add(side, row)
                    remaining[side] -= 1
                    exhausted = (
                        cursors[LEFT].exhausted and remaining.get(LEFT, 0) == 0,
                        cursors[RIGHT].exhausted and remaining.get(RIGHT, 0) == 0,
                    )
                    if operator.terminated(exhausted):
                        done = True
                        break
                if done:
                    break

        seen = operator.tuples_seen()
        details.set("batches", batches)
        details.set("scatter_rounds", rounds)
        details.set("tuples_seen_left", seen[LEFT])
        details.set("tuples_seen_right", seen[RIGHT])
        return operator.results
