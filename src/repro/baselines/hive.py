"""The Hive-style baseline (§3.1).

"In Hive, rank join processing consists of two MapReduce jobs plus a final
stage.  The first job computes and materializes the join result set, while
the second one computes the score of the join result set tuples and stores
them sorted on their score; a third, non-MapReduce stage then fetches the
k highest-ranked results from the final list."

Crucially, Hive performs **no early projection**: the join job ships and
materializes complete rows (all payload columns), which is what makes its
bandwidth and time the worst of the lot.
"""

from __future__ import annotations

from repro.common.serialization import SizedDict, decode_float, decode_str, sizeof
from repro.common.types import JoinTuple
from repro.core.base import RankJoinAlgorithm, _ExecutionDetails
from repro.mapreduce.job import (
    HDFSInput,
    HDFSOutput,
    Job,
    TaskContext,
    UnionTableInput,
)
from repro.query.spec import RankJoinQuery
from repro.relational.binding import RelationBinding
from repro.store.cell import RowResult


class HiveRankJoin(RankJoinAlgorithm):
    """Two full MapReduce jobs + a fetch stage; no indices."""

    name = "HIVE"

    def _run(self, query: RankJoinQuery, details: _ExecutionDetails) -> list[JoinTuple]:
        join_path = f"hive/join-{query.left.signature}-{query.right.signature}"
        sorted_path = f"{join_path}-sorted"
        self.platform.hdfs.delete_if_exists(join_path)
        self.platform.hdfs.delete_if_exists(sorted_path)

        self._join_job(query, join_path)
        self._sort_job(query, join_path, sorted_path)
        results = self._fetch_stage(sorted_path, query.k)
        details.set("join_records", self._join_records)
        return results

    # -- job 1: materialize the full join result ------------------------------

    def _join_job(self, query: RankJoinQuery, output_path: str) -> None:
        bindings = {query.left.table: query.left, query.right.table: query.right}
        left_table = query.left.table

        def map_fn(row_key: str, tagged, task: TaskContext) -> None:
            table_name, row = tagged
            binding = bindings[table_name]
            record = _full_record(binding, row_key, row)
            if record is None:
                task.bump("skipped_rows")
                return
            task.emit(record[1], (table_name, record))  # key: join value

        def reduce_fn(join_value: str, values: list, task: TaskContext) -> None:
            lefts = [record for table, record in values if table == left_table]
            rights = [record for table, record in values if table != left_table]
            for left in lefts:
                for right in rights:
                    # the full joined row is materialized: all columns of both
                    task.emit(
                        join_value,
                        [left[0], right[0], join_value, left[2], right[2],
                         left[3], right[3]],
                    )
                    task.bump("join_records")

        job = Job(
            name="hive-join",
            input_source=UnionTableInput.of(
                query.left.table, query.right.table, keep_splits=True
            ),
            map_fn=map_fn,
            reduce_fn=reduce_fn,
            num_reducers=len(self.platform.ctx.cluster.workers),
            output=HDFSOutput(output_path),
        )
        result = self.platform.runner.run(job)
        self._join_records = result.counters.get("join_records", 0.0)

    # -- job 2: score + total order through one reducer --------------------------

    def _sort_job(self, query: RankJoinQuery, join_path: str, sorted_path: str) -> None:
        function = query.function

        def map_fn(_index: int, record, task: TaskContext) -> None:
            _join_value, payload = record
            left_key, right_key, join_value, lscore, rscore, lcols, rcols = payload
            score = function(lscore, rscore)
            # negated score => the single reducer sees descending score order
            task.emit(-score, [left_key, right_key, join_value, lscore, rscore,
                               lcols, rcols])

        def reduce_fn(neg_score: float, values: list, task: TaskContext) -> None:
            for value in values:
                task.emit(neg_score, value)

        job = Job(
            name="hive-sort",
            input_source=HDFSInput(join_path),
            map_fn=map_fn,
            reduce_fn=reduce_fn,
            num_reducers=1,  # Hive's global ORDER BY bottleneck
            output=HDFSOutput(sorted_path),
        )
        self.platform.runner.run(job)

    # -- final non-MapReduce stage: fetch the top-k -----------------------------------

    def _fetch_stage(self, sorted_path: str, k: int) -> list[JoinTuple]:
        ctx = self.platform.ctx
        results: list[JoinTuple] = []
        fetched_bytes = 0
        for record in self.platform.hdfs.read_file(sorted_path):
            if len(results) >= k:
                break
            neg_score, payload = record
            left_key, right_key, join_value, lscore, rscore, _lcols, _rcols = payload
            results.append(
                JoinTuple(
                    keys=(left_key, right_key),
                    join_value=join_value,
                    score=-neg_score,
                    scores=(lscore, rscore),
                )
            )
            fetched_bytes += sizeof(record)
        ctx.metrics.add_network(fetched_bytes)
        ctx.metrics.advance_time(
            ctx.cost_model.rpc_latency_s + ctx.cost_model.network_time(fetched_bytes)
        )
        return results


def _full_record(binding: RelationBinding, row_key: str, row: RowResult):
    """``[row_key, join_value, score, all_other_columns]`` — the whole row."""
    join_raw = row.value(binding.family, binding.join_column)
    score_raw = row.value(binding.family, binding.score_column)
    if join_raw is None or score_raw is None:
        return None
    # every joined row carries this dict, in both jobs: it is sized once
    columns = SizedDict({
        cell.qualifier: cell.value
        for cell in row.family_cells(binding.family)
        if cell.qualifier not in (binding.join_column, binding.score_column)
    })
    return [row_key, decode_str(join_raw), decode_float(score_raw), columns]
