"""Left-deep BFHM cascade: n-way rank joins from the binary two-phase
algorithm (§3's multi-way extension applied to §5).

The cascade runs the binary BFHM rank join pairwise along a left-deep
chain::

    ((R1 ⋈ R2) ⋈ R3) ⋈ ... ⋈ Rn

Each intermediate stage materializes its top-k′ join results as a
temporary relation (normalized partial score + shared join value), builds
a BFHM over it with the deployment-common filter size, and feeds it to the
next binary stage.  Because a pair outside an intermediate top-k′ can
still reach the final top-k through a high-scoring later partner, a §5.3
style repair loop re-runs truncated stages with doubled k′ until no pruned
partial result — completed with the maximum attainable scores of the
remaining relations — could beat the k-th final score.  Binary BFHM
guarantees 100% recall per stage, so the loop's fixpoint guarantees 100%
recall end to end.

Partial scores are stored normalized into the index's [0, 1] score domain;
each stage's binary aggregate de-normalizes on the fly (see
:func:`stage_functions`), so the final stage emits true n-way scores.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.functions import (
    AggregateFunction,
    MaxFunction,
    MinFunction,
    ProductFunction,
    SumFunction,
    WeightedSumFunction,
)
from repro.common.serialization import encode_float, encode_str
from repro.common.types import JoinTuple
from repro.core.base import IndexBuildReport, RankJoinAlgorithm, _ExecutionDetails
from repro.core.bfhm.algorithm import BFHMRankJoin
from repro.core.bfhm.estimation import SCORE_EPSILON, TerminationPolicy
from repro.core.bfhm.index import DEFAULT_FP_RATE, DEFAULT_NUM_BUCKETS
from repro.core.bfhm.updates import WriteBackPolicy
from repro.errors import QueryError
from repro.platform import Platform
from repro.query.spec import RankJoinQuery
from repro.relational.binding import RelationBinding
from repro.store.client import Put

#: column family / qualifiers of materialized intermediate relations
TEMP_FAMILY = "d"
TEMP_JOIN_COLUMN = "j"
TEMP_SCORE_COLUMN = "s"

#: separator between component row keys inside an intermediate row key
KEY_SEPARATOR = "|"


def _escape_key(key: str) -> str:
    """Escape a base row key for embedding in a composed intermediate key
    (a base key containing the separator must not collide with the
    composition of two other keys)."""
    return key.replace("\\", "\\\\").replace(KEY_SEPARATOR, "\\" + KEY_SEPARATOR)


def _compose_key(left_composed: str, right_key: str) -> str:
    """Row key of an intermediate tuple: the (already composed or escaped)
    left key joined with the escaped right component."""
    return f"{left_composed}{KEY_SEPARATOR}{_escape_key(right_key)}"

#: hard stop for the cascade repair loop (each round at least doubles a
#: truncated stage's k′, so real workloads converge in a handful)
MAX_CASCADE_ROUNDS = 24


def stage_functions(
    function: AggregateFunction, arity: int
) -> "list[tuple[AggregateFunction, float]]":
    """Per-stage binary aggregates of a left-deep cascade.

    Returns ``arity - 1`` pairs ``(binary_fn, upper)``: ``binary_fn``
    combines a *normalized* left partial score and the next relation's
    score into the true partial score over the first ``j + 2`` relations,
    and ``upper`` is that partial's maximum attainable value — the divisor
    normalizing it back into [0, 1] when the stage feeds another.
    """
    if arity < 2:
        raise QueryError(f"cascade needs >= 2 relations, got {arity}")
    stages: "list[tuple[AggregateFunction, float]]" = []
    if isinstance(function, WeightedSumFunction):
        weights = function.weights
        if len(weights) != arity:
            raise QueryError(
                f"weighted sum has {len(weights)} weights for arity {arity}"
            )
        upper = weights[0]
        for index, nxt in enumerate(weights[1:]):
            # stage 0 consumes the raw base score (weight w0); later stages
            # de-normalize the stored partial by the previous upper bound
            left = weights[0] if index == 0 else upper
            stages.append((WeightedSumFunction([left, nxt]), upper + nxt))
            upper += nxt
    elif isinstance(function, SumFunction):
        upper = 1.0
        for _ in range(arity - 1):
            stages.append((WeightedSumFunction([upper, 1.0]), upper + 1.0))
            upper += 1.0
    elif isinstance(function, ProductFunction):
        stages = [(ProductFunction(), 1.0)] * (arity - 1)
    elif isinstance(function, (MaxFunction, MinFunction)):
        stages = [(function, 1.0)] * (arity - 1)
    else:
        raise QueryError(
            f"cannot decompose {function!r} into binary cascade stages; "
            "the BFHM cascade needs sum/product/weighted-sum/max/min"
        )
    return stages


@dataclass
class CascadeStageRecord:
    """Introspection record of one executed cascade stage."""

    stage: int
    left_name: str
    right_name: str
    k: int
    produced: int
    truncated: bool
    #: lowest kept true partial score (the stage's pruning frontier)
    frontier: "float | None"
    details: dict[str, float] = field(default_factory=dict)


@dataclass
class _StageOutput:
    """One stage's materialized state, cached across repair rounds."""

    tuples: list[JoinTuple]
    #: intermediate row key -> (component keys, component scores)
    expansion: "dict[str, tuple[tuple[str, ...], tuple[float, ...]]]"
    #: binding of the materialized relation (None for the final stage)
    binding: "RelationBinding | None"
    truncated: bool
    frontier: "float | None"
    record: CascadeStageRecord


class BFHMCascadeRankJoin(RankJoinAlgorithm):
    """N-way BFHM rank join via a left-deep binary cascade."""

    name = "BFHM-cascade"
    max_arity = None

    def __init__(
        self,
        platform: Platform,
        num_buckets: int = DEFAULT_NUM_BUCKETS,
        fp_rate: float = DEFAULT_FP_RATE,
        policy: TerminationPolicy = TerminationPolicy.CONSERVATIVE,
        write_back: WriteBackPolicy = WriteBackPolicy.EAGER,
    ) -> None:
        super().__init__(platform)
        self._binary = BFHMRankJoin(
            platform, num_buckets, fp_rate, policy=policy, write_back=write_back
        )
        #: per-stage records of the most recent run, in execution order
        #: (repair rounds append re-executed stages)
        self.last_stage_records: list[CascadeStageRecord] = []

    # -- index lifecycle ----------------------------------------------------

    def prepare(self, query: RankJoinQuery) -> list[IndexBuildReport]:
        """Fix the deployment-common filter size over *all* base inputs,
        then build each base relation's BFHM."""
        self._binary.builder.plan_for(query.inputs)
        reports: list[IndexBuildReport] = []
        for index in range(len(query.inputs) - 1):
            reports.extend(self._binary.prepare(query.pairwise(index, index + 1)))
        return reports

    def build_report(self, binding: RelationBinding) -> "IndexBuildReport | None":
        return self._binary.build_report(binding)

    # -- execution -----------------------------------------------------------

    def _run(self, query: RankJoinQuery, details: _ExecutionDetails) -> list[JoinTuple]:
        temp_tables: list[str] = []
        try:
            return self._run_cascade(query, details, temp_tables)
        finally:
            # temp tables and their index state must go even when a stage
            # raises — leaked intermediates would be visible to every later
            # query on the shared platform
            self._cleanup(temp_tables)

    def _run_cascade(
        self,
        query: RankJoinQuery,
        details: _ExecutionDetails,
        temp_tables: "list[str]",
    ) -> list[JoinTuple]:
        arity = query.arity
        stages = stage_functions(query.function, arity)
        # every stage starts at the query's k; the repair loop grows
        # truncated intermediate stages (never the final one)
        stage_ks = [query.k] * (arity - 1)
        outputs: "list[_StageOutput | None]" = [None] * (arity - 1)
        self.last_stage_records = []
        rounds = 0

        while True:
            start = next(
                (i for i, output in enumerate(outputs) if output is None), None
            )
            if start is not None:
                self._run_stages(
                    query, stages, stage_ks, outputs, start, temp_tables
                )
            final = outputs[-1]
            assert final is not None
            violated = self._recall_violations(query, stages, outputs)
            if not violated or rounds >= MAX_CASCADE_ROUNDS:
                break
            rounds += 1
            for stage in violated:
                stage_ks[stage] += max(query.k, stage_ks[stage])
            for stage in range(min(violated), arity - 1):
                outputs[stage] = None  # downstream stages must re-run

        details.set("cascade_rounds", float(rounds))
        for record in self.last_stage_records:
            prefix = f"stage{record.stage}"
            details.set(f"{prefix}_produced", float(record.produced))
            for key in ("buckets_fetched", "reverse_rows_fetched",
                        "repair_rounds"):
                if key in record.details:
                    details.set(f"{prefix}_{key}", record.details[key])
        return self._expand_final(outputs)

    def _run_stages(
        self,
        query: RankJoinQuery,
        stages: "list[tuple[AggregateFunction, float]]",
        stage_ks: "list[int]",
        outputs: "list[_StageOutput | None]",
        start: int,
        temp_tables: "list[str]",
    ) -> None:
        """Execute stages ``start .. arity-2``, materializing intermediates."""
        for stage in range(start, len(stages)):
            if stage == 0:
                left_binding = query.inputs[0]
                expansion_in = None
            else:
                previous = outputs[stage - 1]
                assert previous is not None and previous.binding is not None
                left_binding = previous.binding
                expansion_in = previous.expansion
            right_binding = query.inputs[stage + 1]
            function, upper = stages[stage]
            stage_k = stage_ks[stage]
            stage_query = RankJoinQuery(
                inputs=(left_binding, right_binding), function=function,
                k=stage_k,
            )
            result = self._binary.execute(stage_query)
            produced = result.tuples
            truncated = len(produced) >= stage_k
            frontier = produced[-1].score if produced else None

            expansion: "dict[str, tuple[tuple[str, ...], tuple[float, ...]]]" = {}
            rows: "list[tuple[str, str, float]]" = []
            for t in produced:
                left, right = t.keys
                if expansion_in is None:
                    composed = _compose_key(_escape_key(left), right)
                    keys, scores = t.keys, t.scores
                else:
                    base_keys, base_scores = expansion_in[left]
                    composed = _compose_key(left, right)
                    keys = (*base_keys, right)
                    scores = (*base_scores, t.scores[1])
                expansion[composed] = (keys, scores)
                rows.append((composed, t.join_value, t.score))

            is_final = stage == len(stages) - 1
            binding = None
            if not is_final and produced:
                binding = self._materialize(rows, upper, temp_tables)
            record = CascadeStageRecord(
                stage=stage,
                left_name=left_binding.display_name,
                right_name=right_binding.display_name,
                k=stage_k,
                produced=len(produced),
                truncated=truncated,
                frontier=frontier,
                details=dict(result.details),
            )
            self.last_stage_records.append(record)
            outputs[stage] = _StageOutput(
                tuples=produced,
                expansion=expansion,
                binding=binding,
                truncated=truncated,
                frontier=frontier,
                record=record,
            )
            if not is_final and not produced:
                # an empty intermediate empties every later stage too
                for later in range(stage + 1, len(stages)):
                    outputs[later] = _StageOutput(
                        tuples=[], expansion={}, binding=None,
                        truncated=False, frontier=None,
                        record=CascadeStageRecord(
                            stage=later, left_name="(empty)",
                            right_name=query.inputs[later + 1].display_name,
                            k=stage_ks[later], produced=0, truncated=False,
                            frontier=None,
                        ),
                    )
                return

    def _materialize(
        self,
        rows: "list[tuple[str, str, float]]",
        upper: float,
        temp_tables: "list[str]",
    ) -> RelationBinding:
        """Write one stage's ``(row key, join value, true partial score)``
        rows as a temporary relation (metered puts), scores normalized into
        the index's [0, 1] domain, and bind it for the next binary stage."""
        table_name = self.platform.store.temp_table_name("bfhm_cascade_tmp_")
        norm = upper if upper > 0 else 1.0
        rows = [
            (row_key, join_value, min(1.0, score / norm))
            for row_key, join_value, score in rows
        ]

        workers = len(self.platform.ctx.cluster.workers)
        ordered_keys = sorted(key for key, _, _ in rows)
        step = max(1, len(ordered_keys) // max(1, workers))
        splits = (
            [ordered_keys[i] for i in range(step, len(ordered_keys), step)]
            if len(ordered_keys) >= 2 * workers
            else []
        )
        self.platform.store.create_table(
            table_name, {TEMP_FAMILY}, split_keys=splits or None
        )
        temp_tables.append(table_name)
        htable = self.platform.store.table(table_name)
        puts = []
        for row_key, join_value, score in rows:
            put = Put(row_key)
            put.add(TEMP_FAMILY, TEMP_JOIN_COLUMN, encode_str(join_value))
            put.add(TEMP_FAMILY, TEMP_SCORE_COLUMN, encode_float(score))
            puts.append(put)
        htable.put_batch(puts)
        htable.flush()
        return RelationBinding(
            table=table_name,
            join_column=TEMP_JOIN_COLUMN,
            score_column=TEMP_SCORE_COLUMN,
            family=TEMP_FAMILY,
            alias=f"tmp{len(temp_tables)}",
        )

    # -- recall repair -------------------------------------------------------

    def _input_top_bound(self, binding: RelationBinding) -> float:
        """Upper bound on a base relation's best score, read off its BFHM
        meta row (the first non-empty bucket's upper boundary)."""
        meta = self._binary.update_manager.meta(binding.signature)
        if not meta.buckets:
            return 0.0
        return meta.upper_boundary(meta.buckets[0])

    def _recall_violations(
        self,
        query: RankJoinQuery,
        stages: "list[tuple[AggregateFunction, float]]",
        outputs: "list[_StageOutput | None]",
    ) -> "list[int]":
        """Truncated intermediate stages whose pruned tuples could still
        reach the final top-k (the cascade analogue of §5.3's test)."""
        final = outputs[-1]
        assert final is not None
        kth = (
            final.tuples[query.k - 1].score
            if len(final.tuples) >= query.k
            else None
        )
        violated = []
        for stage in range(len(stages) - 1):
            output = outputs[stage]
            assert output is not None
            if not output.truncated or output.frontier is None:
                continue
            # complete the pruning frontier with the best attainable score
            # of every remaining relation
            partial = output.frontier
            for later in range(stage + 1, len(stages)):
                function, _ = stages[later]
                _, upper_prev = stages[later - 1]
                normalized = partial / (upper_prev if upper_prev > 0 else 1.0)
                partial = function(
                    min(1.0, normalized),
                    self._input_top_bound(query.inputs[later + 1]),
                )
            if kth is None or partial >= kth - SCORE_EPSILON:
                violated.append(stage)
        return violated

    # -- finalization --------------------------------------------------------

    def _expand_final(self, outputs: "list[_StageOutput | None]") -> list[JoinTuple]:
        final = outputs[-1]
        assert final is not None
        single_stage = len(outputs) == 1
        tuples = []
        for t in final.tuples:
            # the final stage's left key is either a raw base key (arity 2)
            # or an already-composed intermediate row key
            left, right = t.keys
            if single_stage:
                left = _escape_key(left)
            keys, scores = final.expansion[_compose_key(left, right)]
            tuples.append(
                JoinTuple(
                    keys=keys,
                    join_value=t.join_value,
                    score=t.score,
                    scores=scores,
                )
            )
        return tuples

    def _cleanup(self, temp_tables: "list[str]") -> None:
        """Drop materialized intermediates and forget their index state.

        Besides the temp tables themselves, every per-stage index build
        registered build reports and BFHM metas under the temp signature;
        left behind, they would grow without bound across queries (temp
        names are unique per store by construction)."""
        for table_name in temp_tables:
            if self.platform.store.has_table(table_name):
                self.platform.store.drop_table(table_name)
        # the temp relations' BFHM data (blob/reverse/meta rows) lives as
        # per-signature column families in the shared index table — drop
        # them too, or the store grows with every cascade query
        from repro.core.indexes import BFHM_TABLE

        if self.platform.store.has_table(BFHM_TABLE):
            backing = self.platform.store.backing(BFHM_TABLE)
            for family in [
                f for f in backing.families
                if f.startswith("bfhm_cascade_tmp_")
            ]:
                backing.drop_family(family)
        self._binary.forget("bfhm_cascade_tmp_")
