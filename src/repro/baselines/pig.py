"""The Pig-style baseline (§3.1).

Pig's optimizer "pushes projections and top-k (STOP AFTER) operators as
early in the physical plan as possible".  Three MapReduce jobs:

1. **Join** — mappers strip unrelated columns (early projection) and emit
   rows keyed by join value; reducers produce the join result into HDFS.
2. **Sampling** — samples the join-result file and computes quantiles for
   a balanced ORDER BY partitioner.
3. **Top-k** — mappers emit score-keyed records, a combiner stage produces
   local top-k lists (here: the map-finish hook, Pig's in-task combiner),
   and a sole reducer merges them into the final top-k.
"""

from __future__ import annotations

from repro.common.serialization import decode_float, decode_str
from repro.common.types import JoinTuple
from repro.core.base import RankJoinAlgorithm, _ExecutionDetails
from repro.mapreduce.job import (
    CollectOutput,
    HDFSInput,
    HDFSOutput,
    Job,
    TaskContext,
    UnionTableInput,
)
from repro.query.spec import RankJoinQuery
from repro.sketches.hashing import hash_to_range

#: sampling rate of the ORDER BY balancing job
SAMPLE_RATE = 0.01


class PigRankJoin(RankJoinAlgorithm):
    """Three MapReduce jobs with early projection and combiner top-k."""

    name = "PIG"

    def _run(self, query: RankJoinQuery, details: _ExecutionDetails) -> list[JoinTuple]:
        join_path = f"pig/join-{query.left.signature}-{query.right.signature}"
        self.platform.hdfs.delete_if_exists(join_path)

        self._join_job(query, join_path)
        quantiles = self._sampling_job(query, join_path)
        results = self._topk_job(query, join_path, quantiles)
        details.set("quantiles", len(quantiles))
        return results

    # -- job 1: join with early projection ------------------------------------

    def _join_job(self, query: RankJoinQuery, output_path: str) -> None:
        bindings = {query.left.table: query.left, query.right.table: query.right}
        left_table = query.left.table
        function = query.function

        def map_fn(row_key: str, tagged, task: TaskContext) -> None:
            table_name, row = tagged
            binding = bindings[table_name]
            join_raw = row.value(binding.family, binding.join_column)
            score_raw = row.value(binding.family, binding.score_column)
            if join_raw is None or score_raw is None:
                task.bump("skipped_rows")
                return
            # early projection: only (row key, join value, score) survive
            task.emit(
                decode_str(join_raw),
                (table_name, [row_key, decode_float(score_raw)]),
            )

        def reduce_fn(join_value: str, values: list, task: TaskContext) -> None:
            lefts = [record for table, record in values if table == left_table]
            rights = [record for table, record in values if table != left_table]
            for left_key, lscore in lefts:
                for right_key, rscore in rights:
                    task.emit(
                        join_value,
                        [left_key, right_key, join_value, lscore, rscore,
                         function(lscore, rscore)],
                    )

        job = Job(
            name="pig-join",
            input_source=UnionTableInput.of(
                query.left.table, query.right.table, keep_splits=True
            ),
            map_fn=map_fn,
            reduce_fn=reduce_fn,
            num_reducers=len(self.platform.ctx.cluster.workers),
            output=HDFSOutput(output_path),
        )
        self.platform.runner.run(job)

    # -- job 2: sampling for the balanced ORDER BY partitioner ---------------------

    def _sampling_job(self, query: RankJoinQuery, join_path: str) -> list[float]:
        workers = len(self.platform.ctx.cluster.workers)

        def map_fn(index: int, record, task: TaskContext) -> None:
            # deterministic 1% sample keyed on the record position
            if hash_to_range(str(index), 10_000) < int(SAMPLE_RATE * 10_000):
                _join_value, payload = record
                task.emit(0, payload[5])  # the join score

        def reduce_fn(_key: int, scores: list, task: TaskContext) -> None:
            ordered = sorted(scores)
            if not ordered:
                return
            for i in range(1, workers):
                task.emit("quantile", ordered[i * len(ordered) // workers])

        job = Job(
            name="pig-sample",
            input_source=HDFSInput(join_path),
            map_fn=map_fn,
            reduce_fn=reduce_fn,
            num_reducers=1,
            output=CollectOutput(),
        )
        result = self.platform.runner.run(job)
        return sorted(value for _, value in result.collected)

    # -- job 3: combiner top-k into a sole reducer -------------------------------------

    def _topk_job(
        self, query: RankJoinQuery, join_path: str, quantiles: list[float]
    ) -> list[JoinTuple]:
        k = query.k

        def map_fn(_index: int, record, task: TaskContext) -> None:
            _join_value, payload = record
            top: list = task.state.setdefault("topk", [])
            top.append(payload)
            top.sort(key=lambda p: -p[5])
            del top[k:]

        def map_finish(task: TaskContext) -> None:
            # Pig's combiner: only the local top-k list leaves the task
            for payload in task.state.get("topk", ()):
                task.emit("topk", payload)

        def reduce_fn(_key: str, values: list, task: TaskContext) -> None:
            merged = sorted(values, key=lambda p: -p[5])
            for payload in merged[:k]:
                task.emit("final", payload)

        job = Job(
            name="pig-topk",
            input_source=HDFSInput(join_path),
            map_fn=map_fn,
            map_finish_fn=map_finish,
            reduce_fn=reduce_fn,
            num_reducers=1,
            output=CollectOutput(),
        )
        result = self.platform.runner.run(job)
        return [
            JoinTuple(
                keys=(payload[0], payload[1]),
                join_value=payload[2],
                score=payload[5],
                scores=(payload[3], payload[4]),
            )
            for _, payload in result.collected
        ]
