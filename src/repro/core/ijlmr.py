"""Inverse Join List MapReduce rank join — IJLMR (§4.1).

The index is an inverted list keyed by *join value*: one index row per
distinct join value, holding ``{row key, score}`` entries of every input
tuple with that value (Fig. 2), one column family per indexed relation in a
shared index table.  It is built by a map-only MapReduce job (Alg. 1).

Query processing (Alg. 2) is a single MapReduce job: each mapper scans its
region of the index (both column families — co-located by design), forms
the per-join-value Cartesian products, keeps an in-memory local top-k, and
emits it when input is exhausted; a single reducer merges the local lists
into the global top-k.  Only the local top-k lists cross the network — but
the mappers still scan the whole index, which is why IJLMR's dollar cost
stays near Hive's (§4.1.2).
"""

from __future__ import annotations

from functools import partial

from repro.common.serialization import decode_float, decode_str
from repro.common.types import JoinTuple
from repro.core.base import IndexBuildReport, RankJoinAlgorithm, _ExecutionDetails
from repro.core.indexes import (
    IJLMR_TABLE,
    ensure_index_table,
    family_built,
    sample_split_keys,
)
from repro.mapreduce.job import CollectOutput, Job, TableInput, TableOutput, TaskContext
from repro.query.spec import RankJoinQuery
from repro.relational.binding import RelationBinding, load_relation
from repro.store.cell import RowResult
from repro.store.client import Put


def _build_map(payload: dict, row_key: str, row: RowResult, task: TaskContext) -> None:
    """Invert one base-relation row on its join value (Algorithm 1 mapper)."""
    join_raw = row.value(payload["family"], payload["join_column"])
    score_raw = row.value(payload["family"], payload["score_column"])
    if join_raw is None or score_raw is None:
        task.bump("skipped_rows")
        return
    put = Put(decode_str(join_raw))
    put.add(payload["signature"], row_key, score_raw)
    task.emit(put.row, put)
    task.bump("indexed_rows")


class IJLMRRankJoin(RankJoinAlgorithm):
    """The IJLMR index + single-job MapReduce rank join."""

    name = "IJLMR"

    # -- index build (Algorithm 1) ------------------------------------------

    def _index_exists(self, binding: RelationBinding) -> bool:
        # the IJLMR query path needs no in-memory state, so adopting a
        # store-present family is just a matter of not rebuilding it
        return family_built(self.platform, IJLMR_TABLE, binding.signature)

    def _build_index(self, binding: RelationBinding) -> IndexBuildReport:
        platform = self.platform
        signature = binding.signature

        # pre-split the index table from a sample of join values so the
        # bulk build distributes across workers
        sample = [row.join_value for row in load_relation(platform.store, binding)]
        splits = sample_split_keys(sample, len(platform.ctx.cluster.workers))
        ensure_index_table(platform, IJLMR_TABLE, signature, splits)

        job = Job(
            name=f"ijlmr-index-{signature}",
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
            output=TableOutput(IJLMR_TABLE),
        )

        def build() -> int:
            self.platform.runner.run(job)
            return self._family_bytes(signature)

        return self._metered_build(self.name, signature, build)

    def _family_bytes(self, signature: str) -> int:
        table = self.platform.store.backing(IJLMR_TABLE)
        return sum(
            cell.serialized_size()
            for row in table.all_rows(families={signature})  # lint: disable=RL301 (index-size accounting for the build report; the build job itself is metered)
            for cell in row
        )

    # -- query processing (Algorithm 2) --------------------------------------

    def _run(self, query: RankJoinQuery, details: _ExecutionDetails) -> list[JoinTuple]:
        left_family = query.left.signature
        right_family = query.right.signature
        function = query.function
        k = query.k

        def map_fn(join_value: str, row: RowResult, task: TaskContext) -> None:
            results: list[JoinTuple] = task.state.setdefault("topk", [])
            left_cells = row.family_cells(left_family)
            right_cells = row.family_cells(right_family)
            if not left_cells or not right_cells:
                return
            for lcell in left_cells:
                lscore = decode_float(lcell.value)
                for rcell in right_cells:
                    rscore = decode_float(rcell.value)
                    results.append(
                        JoinTuple(
                            keys=(lcell.qualifier, rcell.qualifier),
                            join_value=join_value,
                            score=function(lscore, rscore),
                            scores=(lscore, rscore),
                        )
                    )
                    task.bump("join_pairs")
            results.sort(key=JoinTuple.sort_key)
            del results[k:]

        def map_finish(task: TaskContext) -> None:
            for result in task.state.get("topk", ()):  # local top-k only
                task.emit("topk", _encode_tuple(result))

        def reduce_fn(_key: str, values: list, task: TaskContext) -> None:
            merged = sorted(
                (_decode_tuple(value) for value in values), key=JoinTuple.sort_key
            )
            for result in merged[:k]:
                task.emit("final", _encode_tuple(result))

        job = Job(
            name=f"ijlmr-query-{left_family}-{right_family}",
            input_source=TableInput.of(
                IJLMR_TABLE, {left_family, right_family}, keep_splits=True
            ),
            map_fn=map_fn,
            map_finish_fn=map_finish,
            reduce_fn=reduce_fn,
            num_reducers=1,
            output=CollectOutput(),
        )
        result = self.platform.runner.run(job)
        details.set("map_tasks", result.map_tasks)
        details.set("join_pairs", result.counters.get("join_pairs", 0.0))
        return [_decode_tuple(value) for _, value in result.collected]


def _encode_tuple(result: JoinTuple) -> list:
    """Serialize a join tuple for shuffle-size accounting:
    ``[left key, right key, join value, score, left score, right score]``
    (``golden_mr_bytes.json`` pins the bytes this list meters)."""
    return [*result.keys, result.join_value, result.score, *result.scores]


def _decode_tuple(record: list) -> JoinTuple:
    return JoinTuple(
        keys=(record[0], record[1]),
        join_value=record[2],
        score=record[3],
        scores=(record[4], record[5]),
    )
